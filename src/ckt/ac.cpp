#include "src/ckt/ac.hpp"

#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <variant>

#include "src/core/parallel.hpp"
#include "src/numeric/band_lu.hpp"
#include "src/numeric/lu.hpp"
#include "src/numeric/matrix.hpp"
#include "src/numeric/stats.hpp"

namespace emi::ckt {

namespace {

using InductanceMatrix = std::vector<std::vector<double>>;

// Stamp helpers treating ground (-1) as the eliminated reference row/col.
template <typename Mat>
void stamp_conductance(Mat& a, NodeId n1, NodeId n2, Complex g) {
  if (n1 >= 0) a(index(n1), index(n1)) += g;
  if (n2 >= 0) a(index(n2), index(n2)) += g;
  if (n1 >= 0 && n2 >= 0) {
    a(index(n1), index(n2)) -= g;
    a(index(n2), index(n1)) -= g;
  }
}

// Stamp the full MNA system for one frequency point into `a`, indexed in
// unknown order: a dense num::MatrixC, a num::BandMatrix, or the
// StampPattern recorder. Shared verbatim between the sweep solver and the
// coupling probe model so both paths see bit-identical systems (same
// stamps, same order).
template <typename Mat>
void assemble_point(const Circuit& c, const InductanceMatrix& lmat, double w,
                    double scale, const AcOptions& opt, Mat& a,
                    std::vector<Complex>& rhs) {
  // g_min to ground keeps isolated nodes solvable.
  for (std::size_t ni = 0; ni < c.node_count(); ++ni) {
    a(ni, ni) += Complex{opt.g_min, 0.0};
  }

  for (const Resistor& r : c.resistors()) {
    stamp_conductance(a, r.n1, r.n2, Complex{1.0 / r.ohms, 0.0});
  }
  for (const Switch& s : c.switches()) {
    const double res = s.ac_state_on ? s.r_on : s.r_off;
    stamp_conductance(a, s.n1, s.n2, Complex{1.0 / res, 0.0});
  }
  for (const Diode& d : c.diodes()) {
    // AC: diode is open apart from g_min leakage.
    stamp_conductance(a, d.anode, d.cathode, Complex{opt.g_min, 0.0});
  }
  for (const Capacitor& cap : c.capacitors()) {
    stamp_conductance(a, cap.n1, cap.n2, Complex{0.0, w * cap.farads});
  }

  // Inductor branches: KCL contribution and branch voltage equations
  // including the full (mutual) inductance matrix.
  const auto& inds = c.inductors();
  for (std::size_t i = 0; i < inds.size(); ++i) {
    const std::size_t bi = c.inductor_branch(i);
    if (inds[i].n1 >= 0) {
      a(index(inds[i].n1), bi) += Complex{1.0, 0.0};
      a(bi, index(inds[i].n1)) += Complex{1.0, 0.0};
    }
    if (inds[i].n2 >= 0) {
      a(index(inds[i].n2), bi) -= Complex{1.0, 0.0};
      a(bi, index(inds[i].n2)) -= Complex{1.0, 0.0};
    }
    for (std::size_t j = 0; j < inds.size(); ++j) {
      if (lmat[i][j] != 0.0) {
        a(bi, c.inductor_branch(j)) -= Complex{0.0, w * lmat[i][j]};
      }
    }
  }

  // Voltage sources.
  const auto& vs = c.vsources();
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const std::size_t bi = c.vsource_branch(i);
    if (vs[i].n1 >= 0) {
      a(index(vs[i].n1), bi) += Complex{1.0, 0.0};
      a(bi, index(vs[i].n1)) += Complex{1.0, 0.0};
    }
    if (vs[i].n2 >= 0) {
      a(index(vs[i].n2), bi) -= Complex{1.0, 0.0};
      a(bi, index(vs[i].n2)) -= Complex{1.0, 0.0};
    }
    const double phase = vs[i].ac_phase_deg * std::numbers::pi / 180.0;
    rhs[bi] = scale * vs[i].ac_mag * Complex{std::cos(phase), std::sin(phase)};
  }

  // Current sources.
  for (const ISource& is : c.isources()) {
    const double phase = is.ac_phase_deg * std::numbers::pi / 180.0;
    const Complex i0 = scale * is.ac_mag * Complex{std::cos(phase), std::sin(phase)};
    if (is.n1 >= 0) rhs[index(is.n1)] -= i0;
    if (is.n2 >= 0) rhs[index(is.n2)] += i0;
  }
}

// Records the (row, col) of every stamp: the MNA pattern, which depends on
// the circuit's elements and not on the frequency.
struct StampPattern {
  std::vector<std::pair<std::size_t, std::size_t>> entries;
  Complex sink;
  Complex& operator()(std::size_t r, std::size_t c) {
    entries.emplace_back(r, c);
    return sink;
  }
};

using PointLu = std::variant<num::Lu<Complex>, num::BandLu<Complex>>;

// Stamp and factor one frequency point: straight into band storage when
// `band` is set, into a dense matrix otherwise. `rhs` (zeroed, one slot per
// unknown) receives the source vector.
core::Result<PointLu> factor_point(const Circuit& c, const InductanceMatrix& lmat,
                                   double w, double scale, const AcOptions& opt,
                                   const std::shared_ptr<const num::BandOrdering>& band,
                                   std::vector<Complex>& rhs) {
  const num::LuOptions lu_opt{opt.pivot_threshold};
  if (band != nullptr) {
    num::BandMatrix<Complex> a(band);
    assemble_point(c, lmat, w, scale, opt, a, rhs);
    core::Result<num::BandLu<Complex>> lu =
        num::BandLu<Complex>::factor(std::move(a), lu_opt);
    if (!lu.ok()) return lu.status();
    return PointLu(std::move(lu).value());
  }
  num::MatrixC a(rhs.size(), rhs.size());
  assemble_point(c, lmat, w, scale, opt, a, rhs);
  core::Result<num::Lu<Complex>> lu = num::Lu<Complex>::factor(std::move(a), lu_opt);
  if (!lu.ok()) return lu.status();
  return PointLu(std::move(lu).value());
}

double condition_estimate(const PointLu& lu) {
  return std::visit([](const auto& f) { return f.condition_estimate(); }, lu);
}

core::Result<std::vector<Complex>> solve(const PointLu& lu, const std::vector<Complex>& b) {
  return std::visit([&](const auto& f) { return f.try_solve(b); }, lu);
}

}  // namespace

std::shared_ptr<const num::BandOrdering> ac_band_ordering(const Circuit& c,
                                                          const AcOptions& opt) {
  StampPattern pattern;
  std::vector<Complex> rhs(c.unknown_count());
  assemble_point(c, c.inductance_matrix(), 1.0, 1.0, opt, pattern, rhs);
  auto ord = std::make_shared<const num::BandOrdering>(
      num::rcm_ordering(c.unknown_count(), pattern.entries));
  if (!num::band_pays(*ord)) return nullptr;
  return ord;
}

Complex AcSolution::voltage(const std::string& node, std::size_t fi) const {
  const auto id = circuit_->find_node(node);
  if (!id) throw std::invalid_argument("AcSolution::voltage: unknown node " + node);
  if (*id == kGround) return {0.0, 0.0};
  return x_.at(fi).at(static_cast<std::size_t>(*id));
}

Complex AcSolution::inductor_current(const std::string& name, std::size_t fi) const {
  const std::size_t li = circuit_->inductor_index(name);
  return x_.at(fi).at(circuit_->inductor_branch(li));
}

std::vector<double> AcSolution::voltage_magnitude(const std::string& node) const {
  std::vector<double> out(freqs_.size());
  for (std::size_t fi = 0; fi < freqs_.size(); ++fi) out[fi] = std::abs(voltage(node, fi));
  return out;
}

CheckedAcSolution ac_solve_checked(const Circuit& c,
                                   const std::vector<double>& freqs_hz,
                                   const AcOptions& opt) {
  if (!opt.source_scale.empty() && opt.source_scale.size() != freqs_hz.size()) {
    throw std::invalid_argument("ac_solve: source_scale size mismatch");
  }
  // Validate up front so the parallel region below never throws off-thread.
  for (const double f : freqs_hz) {
    if (f <= 0.0) throw std::invalid_argument("ac_solve: frequency must be > 0");
  }
  const std::size_t n_unknowns = c.unknown_count();
  const auto lmat = c.inductance_matrix();
  const std::shared_ptr<const num::BandOrdering> band = ac_band_ordering(c, opt);

  // Frequency points are independent MNA solves; each one stamps its own
  // matrix and writes its own solution and status slots, so the sweep
  // parallelizes with bit-identical results (and failure lists) for any
  // thread count.
  std::vector<std::vector<Complex>> solutions(freqs_hz.size());
  std::vector<core::Status> statuses(freqs_hz.size());
  std::vector<double> conds(freqs_hz.size(), 0.0);

  // Per-frequency-point cooperative stop: capture the submitting thread's
  // scope once (thread-locals do not cross pool lanes) and record a stop
  // Status in the point's own slot instead of throwing off-thread. The
  // failure then surfaces as kDeadlineExceeded / kCancelled through the
  // normal failure list, and the owning stage discards the sweep.
  const core::CancelScope* cscope = core::CancelScope::current();
  const auto solve_point = [&](std::size_t fi) {
    if (cscope != nullptr && cscope->should_stop()) {
      statuses[fi] = cscope->stop_status("ckt.ac");
      solutions[fi].assign(n_unknowns, Complex{});
      return;
    }
    const double f = freqs_hz[fi];
    const double w = 2.0 * std::numbers::pi * f;
    const double scale = opt.source_scale.empty() ? 1.0 : opt.source_scale[fi];

    std::vector<Complex> rhs(n_unknowns, {0.0, 0.0});
    const core::Result<PointLu> lu = factor_point(c, lmat, w, scale, opt, band, rhs);
    if (!lu.ok()) {
      statuses[fi] = lu.status();
      solutions[fi].assign(n_unknowns, Complex{});
      return;
    }
    conds[fi] = condition_estimate(lu.value());
    if (conds[fi] > opt.condition_limit) {
      statuses[fi] = core::Status(
          core::ErrorCode::kIllConditioned, "ckt.ac",
          "condition estimate " + std::to_string(conds[fi]) + " exceeds limit " +
              std::to_string(opt.condition_limit));
      solutions[fi].assign(n_unknowns, Complex{});
      return;
    }
    core::Result<std::vector<Complex>> x = solve(lu.value(), rhs);
    if (!x.ok()) {
      statuses[fi] = x.status();
      solutions[fi].assign(n_unknowns, Complex{});
      return;
    }
    solutions[fi] = std::move(x).value();
  };
  core::parallel_for(0, freqs_hz.size(), solve_point, /*grain=*/4);

  // Chunks skipped by a stopped scope never ran solve_point at all: give
  // those points zero phasors and the stop Status, so the sweep's shape
  // invariants hold (every solution vector sized, every skipped point in the
  // failure list) and the stop reason - not an indexing accident downstream -
  // is what the owning stage observes.
  if (cscope != nullptr && cscope->should_stop()) {
    for (std::size_t fi = 0; fi < freqs_hz.size(); ++fi) {
      if (solutions[fi].size() != n_unknowns) {
        solutions[fi].assign(n_unknowns, Complex{});
        if (statuses[fi].ok()) statuses[fi] = cscope->stop_status("ckt.ac");
      }
    }
  }

  CheckedAcSolution out{AcSolution(c, freqs_hz, std::move(solutions)), {}};
  for (std::size_t fi = 0; fi < freqs_hz.size(); ++fi) {
    if (!statuses[fi].ok()) {
      out.failures.push_back({fi, freqs_hz[fi], conds[fi], statuses[fi]});
    }
  }
  return out;
}

AcSolution ac_solve(const Circuit& c, const std::vector<double>& freqs_hz,
                    const AcOptions& opt) {
  CheckedAcSolution checked = ac_solve_checked(c, freqs_hz, opt);
  if (!checked.ok()) {
    const AcPointFailure& f = checked.failures.front();
    core::Status(f.status.code(), "ckt.ac",
                 "sweep failed at " + std::to_string(checked.failures.size()) + "/" +
                     std::to_string(freqs_hz.size()) + " points; first at index " +
                     std::to_string(f.freq_index) + " (" + std::to_string(f.freq_hz) +
                     " Hz): " + f.status.message())
        .raise();
  }
  return std::move(checked.solution);
}

CouplingProbeModel ac_coupling_probe_model(const Circuit& c,
                                           const std::string& meas_node,
                                           const std::vector<std::string>& inductors,
                                           const std::vector<double>& freqs_hz,
                                           const AcOptions& opt) {
  if (!opt.source_scale.empty() && opt.source_scale.size() != freqs_hz.size()) {
    throw std::invalid_argument("ac_coupling_probe_model: source_scale size mismatch");
  }
  for (const double f : freqs_hz) {
    if (f <= 0.0) {
      throw std::invalid_argument("ac_coupling_probe_model: frequency must be > 0");
    }
  }
  const auto meas = c.find_node(meas_node);
  if (!meas) {
    throw std::invalid_argument("ac_coupling_probe_model: unknown node " + meas_node);
  }
  std::vector<std::size_t> bidx;
  bidx.reserve(inductors.size());
  for (const std::string& name : inductors) {
    bidx.push_back(c.inductor_branch(c.inductor_index(name)));
  }

  const std::size_t n_unknowns = c.unknown_count();
  const std::size_t nl = bidx.size();
  const std::size_t nf = freqs_hz.size();
  const auto lmat = c.inductance_matrix();
  const std::shared_ptr<const num::BandOrdering> band = ac_band_ordering(c, opt);

  CouplingProbeModel m;
  m.freqs_hz = freqs_hz;
  m.v_meas.assign(nf, Complex{});
  m.i_branch.assign(nf, std::vector<Complex>(nl));
  m.col_meas.assign(nf, std::vector<Complex>(nl));
  m.col_branch.assign(nf, std::vector<std::vector<Complex>>(nl, std::vector<Complex>(nl)));
  std::vector<core::Status> statuses(nf);

  // One factorization per frequency, reused for the baseline RHS and one
  // unit column per candidate inductor: nl+1 back-substitutions against a
  // single factor. Per-point slots keep the build thread-invariant.
  const core::CancelScope* cscope = core::CancelScope::current();
  const auto build_point = [&](std::size_t fi) {
    if (cscope != nullptr && cscope->should_stop()) {
      statuses[fi] = cscope->stop_status("ckt.coupling_model");
      return;
    }
    const double w = 2.0 * std::numbers::pi * freqs_hz[fi];
    const double scale = opt.source_scale.empty() ? 1.0 : opt.source_scale[fi];
    std::vector<Complex> rhs(n_unknowns, {0.0, 0.0});
    const core::Result<PointLu> lu = factor_point(c, lmat, w, scale, opt, band, rhs);
    if (!lu.ok()) {
      statuses[fi] = lu.status();
      return;
    }
    const double cond = condition_estimate(lu.value());
    if (cond > opt.condition_limit) {
      statuses[fi] = core::Status(
          core::ErrorCode::kIllConditioned, "ckt.coupling_model",
          "condition estimate " + std::to_string(cond) + " exceeds limit " +
              std::to_string(opt.condition_limit));
      return;
    }
    core::Result<std::vector<Complex>> x = solve(lu.value(), rhs);
    if (!x.ok()) {
      statuses[fi] = x.status();
      return;
    }
    m.v_meas[fi] = (*meas == kGround) ? Complex{}
                                      : x.value()[static_cast<std::size_t>(*meas)];
    for (std::size_t p = 0; p < nl; ++p) m.i_branch[fi][p] = x.value()[bidx[p]];

    std::vector<Complex> e(n_unknowns, Complex{});
    for (std::size_t p = 0; p < nl; ++p) {
      e[bidx[p]] = Complex{1.0, 0.0};
      core::Result<std::vector<Complex>> y = solve(lu.value(), e);
      e[bidx[p]] = Complex{};
      if (!y.ok()) {
        statuses[fi] = y.status();
        return;
      }
      m.col_meas[fi][p] = (*meas == kGround)
                              ? Complex{}
                              : y.value()[static_cast<std::size_t>(*meas)];
      for (std::size_t q = 0; q < nl; ++q) {
        m.col_branch[fi][p][q] = y.value()[bidx[q]];
      }
    }
  };
  core::parallel_for(0, nf, build_point, /*grain=*/4);

  for (std::size_t fi = 0; fi < nf; ++fi) {
    if (!statuses[fi].ok()) {
      core::Status(statuses[fi].code(), "ckt.coupling_model",
                   "model build failed at index " + std::to_string(fi) + " (" +
                       std::to_string(freqs_hz[fi]) + " Hz): " + statuses[fi].message())
          .raise();
    }
  }
  return m;
}

core::Result<std::vector<units::Hertz>> log_frequency_grid(units::Hertz f_lo,
                                                           units::Hertz f_hi,
                                                           std::size_t n) {
  // Line-item checks so each degenerate request names its own mistake
  // instead of surfacing as num::log_space's generic throw (or worse, a
  // grid with repeated points that downstream solvers accept silently).
  if (n < 2) {
    return core::Status(core::ErrorCode::kInvalidArgument, "ckt.grid",
                        "log grid needs >= 2 points, got " + std::to_string(n));
  }
  if (!(f_lo.raw() > 0.0)) {
    return core::Status(core::ErrorCode::kInvalidArgument, "ckt.grid",
                        "log grid start must be positive, got " +
                            std::to_string(f_lo.raw()) + " Hz");
  }
  if (f_hi.raw() == f_lo.raw()) {
    return core::Status(core::ErrorCode::kInvalidArgument, "ckt.grid",
                        "log grid endpoints are equal (" +
                            std::to_string(f_lo.raw()) + " Hz)");
  }
  if (f_hi.raw() < f_lo.raw()) {
    return core::Status(core::ErrorCode::kInvalidArgument, "ckt.grid",
                        "log grid endpoints inverted: " + std::to_string(f_lo.raw()) +
                            " Hz > " + std::to_string(f_hi.raw()) + " Hz");
  }
  const std::vector<double> raw = num::log_space(f_lo.raw(), f_hi.raw(), n);
  std::vector<units::Hertz> out;
  out.reserve(raw.size());
  for (const double hz : raw) {
    if (!out.empty() && out.back().raw() == hz) {
      return core::Status(core::ErrorCode::kInvalidArgument, "ckt.grid",
                          "log grid rounds to duplicate adjacent frequencies near " +
                              std::to_string(hz) + " Hz; widen the span or drop points");
    }
    out.push_back(units::Hertz{hz});
  }
  return out;
}

}  // namespace emi::ckt
