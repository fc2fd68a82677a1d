// Frequency-domain (AC small-signal) analysis: complex MNA solved per
// frequency point. This is the engine behind the conducted-emission
// prediction sweep (150 kHz - 108 MHz in the paper's CISPR 25 plots).
#pragma once

#include <complex>
#include <concepts>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/ckt/circuit.hpp"
#include "src/core/status.hpp"
#include "src/core/units.hpp"
#include "src/numeric/band_lu.hpp"

namespace emi::ckt {

using Complex = std::complex<double>;

class AcSolution {
 public:
  AcSolution(const Circuit& c, std::vector<double> freqs,
             std::vector<std::vector<Complex>> unknowns)
      : circuit_(&c), freqs_(std::move(freqs)), x_(std::move(unknowns)) {}

  const std::vector<double>& frequencies() const { return freqs_; }
  std::size_t size() const { return freqs_.size(); }

  // Node voltage phasor at frequency index fi.
  Complex voltage(const std::string& node, std::size_t fi) const;
  // Branch current phasor of an inductor or voltage source.
  Complex inductor_current(const std::string& name, std::size_t fi) const;

  // |V(node)| over the whole sweep.
  std::vector<double> voltage_magnitude(const std::string& node) const;

 private:
  const Circuit* circuit_;
  std::vector<double> freqs_;
  std::vector<std::vector<Complex>> x_;  // per frequency, unknown vector
};

struct AcOptions {
  // Leakage conductance from every node to ground; keeps MNA nonsingular
  // for nodes isolated by open diodes/ideal capacitors at DC-ish points.
  double g_min = 1e-12;
  // Per-frequency scale applied to every source's AC magnitude. Used by the
  // EMI flow to impose the trapezoidal noise-source envelope. Empty = 1.
  std::vector<double> source_scale;
  // Forwarded to the per-point LU factorization; a pivot below it reports
  // the point as singular. Flow-stage retries jitter this.
  double pivot_threshold = 1e-300;
  // Points whose pivot-ratio condition estimate exceeds this limit are
  // reported as ill-conditioned. Disabled by default: MNA matrices span
  // g_min..1/r_on legitimately, so a useful limit is workload-specific.
  double condition_limit = std::numeric_limits<double>::infinity();
};

// One failed point of a checked sweep.
struct AcPointFailure {
  std::size_t freq_index = 0;
  double freq_hz = 0.0;
  double condition_estimate = 0.0;  // 0 when factorization never completed
  core::Status status;              // kSingular / kIllConditioned / kInjectedFault
};

// Checked sweep outcome: failed points hold zero phasors in `solution` and
// one entry each in `failures` (ascending freq_index, so the list is
// deterministic for any thread count).
struct CheckedAcSolution {
  AcSolution solution;
  std::vector<AcPointFailure> failures;
  bool ok() const { return failures.empty(); }
};

// Solve the circuit at each frequency. Diodes are treated as open (g_min);
// switches as their frozen ac_state resistance.
AcSolution ac_solve(const Circuit& c, const std::vector<double>& freqs_hz,
                    const AcOptions& opt = {});

// Structured variant: never throws on numeric failure; singular or
// ill-conditioned points are skipped and reported instead of unwinding the
// sweep (throwing from inside the parallel region would terminate).
//
// Solver selection, here and in ac_coupling_probe_model: see
// ac_band_ordering.
CheckedAcSolution ac_solve_checked(const Circuit& c,
                                   const std::vector<double>& freqs_hz,
                                   const AcOptions& opt = {});

// Reduced-order coupling probe model: everything a rank-2 Sherman-Morrison
// update needs to evaluate a perturbed mutual inductance between any two of
// the candidate inductors WITHOUT another full solve. Adding mutual M
// between inductors p and q changes the MNA matrix by
//   dA = -j*w*M * (e_bp e_bq^T + e_bq e_bp^T)
// (bp/bq = inductor branch rows), so the probed measurement phasor is a
// closed-form function of the baseline solution entries at the branches,
// the A^{-1} columns at the branches, and M. One factorization per
// frequency amortizes across ALL candidate pairs: the factor is reused for
// the baseline right-hand side and one unit column per candidate inductor.
struct CouplingProbeModel {
  std::vector<double> freqs_hz;
  // Baseline measurement phasor per frequency (source_scale applied).
  std::vector<Complex> v_meas;
  // i_branch[fi][p]: baseline current unknown at candidate p's branch row.
  std::vector<std::vector<Complex>> i_branch;
  // col_meas[fi][p]: (A^{-1})[meas_row][branch(p)].
  std::vector<std::vector<Complex>> col_meas;
  // col_branch[fi][p][q]: (A^{-1})[branch(q)][branch(p)].
  std::vector<std::vector<std::vector<Complex>>> col_branch;
};

// Build the model at the given frequencies (typically a refined adaptive
// grid). Throws std::invalid_argument on an unknown node/inductor or a
// malformed grid, and raises the first per-point numeric failure the way
// ac_solve does. Deterministic for any thread count.
CouplingProbeModel ac_coupling_probe_model(const Circuit& c,
                                           const std::string& meas_node,
                                           const std::vector<std::string>& inductors,
                                           const std::vector<double>& freqs_hz,
                                           const AcOptions& opt = {});

// The solver selection of ac_solve_checked and ac_coupling_probe_model.
// Each call orders the circuit's MNA stamp pattern once by reverse
// Cuthill-McKee; the pattern depends on the elements, not the frequency.
// When the ordered band is narrow (num::band_pays) every point is stamped
// straight into band storage and factored by num::BandLu, and this returns
// that ordering; otherwise points are stamped into a dense matrix and
// factored by num::Lu, and this returns null. Long filter ladders take the
// band path; the converters' small systems stay dense.
std::shared_ptr<const num::BandOrdering> ac_band_ordering(const Circuit& c,
                                                          const AcOptions& opt = {});

// Unit-typed sweep entry points: a grid of units::Hertz cannot be confused
// with one of rad/s (use units::cycles() to come back from angular
// frequency). Templates (constrained to units::Hertz) rather than plain
// overloads so braced-init double lists keep binding to the raw entry
// points above without ambiguity.
template <typename Q>
  requires std::same_as<Q, units::Hertz>
AcSolution ac_solve(const Circuit& c, const std::vector<Q>& freqs,
                    const AcOptions& opt = {}) {
  std::vector<double> hz;
  hz.reserve(freqs.size());
  for (const Q f : freqs) hz.push_back(f.raw());
  return ac_solve(c, hz, opt);
}
template <typename Q>
  requires std::same_as<Q, units::Hertz>
CheckedAcSolution ac_solve_checked(const Circuit& c, const std::vector<Q>& freqs,
                                   const AcOptions& opt = {}) {
  std::vector<double> hz;
  hz.reserve(freqs.size());
  for (const Q f : freqs) hz.push_back(f.raw());
  return ac_solve_checked(c, hz, opt);
}

// Logarithmically spaced frequency grid [f_lo, f_hi], n >= 2 points.
// Degenerate requests come back as line-item kInvalidArgument Statuses
// instead of a silently unusable grid: fewer than 2 points, a non-positive
// start, equal or inverted endpoints, and endpoints so close that rounding
// produces duplicate adjacent frequencies.
core::Result<std::vector<units::Hertz>> log_frequency_grid(units::Hertz f_lo,
                                                           units::Hertz f_hi,
                                                           std::size_t n);

}  // namespace emi::ckt
