#include "src/ckt/ac.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <optional>
#include <span>
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

// The (branch i, branch j) entry, i != j, of a point's dense MNA matrix:
// assemble_point writes nothing there but this mutual-inductance stamp.
Complex branch_coupling_entry(double w, double l) {
  Complex a{};
  if (l != 0.0) a -= Complex{0.0, w * l};
  return a;
}

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

core::Result<std::vector<Complex>> solve(const PointLu& lu, const std::vector<Complex>& b) {
  return std::visit([&](const auto& f) { return f.try_solve(b); }, lu);
}

// The condition check every sweep here runs on a factored point, then the
// solve: an estimate past opt.condition_limit fails the point as
// kIllConditioned at `stage` before any solve. `cond` receives the estimate.
template <typename Factor>
core::Result<std::vector<Complex>> solve_conditioned(const Factor& lu,
                                                     const std::vector<Complex>& b,
                                                     const AcOptions& opt,
                                                     const char* stage, double& cond) {
  cond = lu.condition_estimate();
  if (cond > opt.condition_limit) {
    return core::Status(core::ErrorCode::kIllConditioned, stage,
                        "condition estimate " + std::to_string(cond) + " exceeds limit " +
                            std::to_string(opt.condition_limit));
  }
  return lu.try_solve(b);
}

// One solved system's outcome at one frequency point.
struct PointOutcome {
  core::Status status;
  double cond = 0.0;  // 0 when the factorization never completed
};

// A point's factor and its solution for the point's sources.
struct SolvedPoint {
  PointLu lu;
  std::vector<Complex> x;
};

// Stamp, factor, condition-check and solve one point of the system with
// inductance matrix `lmat` (factor_point, then solve_conditioned at
// `stage`). A failure lands in `out` and comes back as nullopt.
std::optional<SolvedPoint> solve_point(const Circuit& c, const InductanceMatrix& lmat,
                                       double w, double scale, const AcOptions& opt,
                                       const std::shared_ptr<const num::BandOrdering>& band,
                                       const char* stage, PointOutcome& out) {
  std::vector<Complex> rhs(c.unknown_count());
  core::Result<PointLu> lu = factor_point(c, lmat, w, scale, opt, band, rhs);
  if (!lu.ok()) {
    out.status = lu.status();
    return std::nullopt;
  }
  core::Result<std::vector<Complex>> x = std::visit(
      [&](const auto& f) { return solve_conditioned(f, rhs, opt, stage, out.cond); },
      lu.value());
  if (!x.ok()) {
    out.status = x.status();
    return std::nullopt;
  }
  return SolvedPoint{std::move(lu).value(), std::move(x).value()};
}

// The per-point driver behind every entry point below; each keeps only its
// per-point factor/solve work and its result shape. The driver checks the
// grid up front, so the parallel region never throws off-thread: every
// frequency finite and > 0, source_scale empty or one entry per point
// (std::invalid_argument prefixed with `who`). It then calls
// solve(fi, w, scale, out) for each point on the pool, `grain` points per
// chunk, where `out` holds the point's `systems` outcomes, and ends with the
// stop rule: a point that never ran because the calling thread's
// CancelScope stopped (the thread-local scope is captured here; it does not
// cross pool lanes) carries the scope's stop Status at `stage` in every
// system. Returns each system's failed points in ascending index, so the
// lists are the same at any thread count.
template <typename Solve>
std::vector<std::vector<AcPointFailure>> drive_points(const char* who, const char* stage,
                                                      const std::vector<double>& freqs_hz,
                                                      const AcOptions& opt,
                                                      std::size_t systems,
                                                      std::size_t grain,
                                                      const Solve& solve) {
  if (!opt.source_scale.empty() && opt.source_scale.size() != freqs_hz.size()) {
    throw std::invalid_argument(std::string(who) + ": source_scale size mismatch");
  }
  for (const double f : freqs_hz) {
    if (!(std::isfinite(f) && f > 0.0)) {
      throw std::invalid_argument(std::string(who) + ": frequency must be finite and > 0");
    }
  }
  const std::size_t nf = freqs_hz.size();
  std::vector<PointOutcome> outcomes(nf * systems);
  std::vector<std::uint8_t> ran(nf, 0);
  const core::CancelScope* cscope = core::CancelScope::current();
  core::parallel_for(
      0, nf,
      [&](std::size_t fi) {
        if (cscope != nullptr && cscope->should_stop()) return;
        ran[fi] = 1;
        const double w = 2.0 * std::numbers::pi * freqs_hz[fi];
        const double scale = opt.source_scale.empty() ? 1.0 : opt.source_scale[fi];
        solve(fi, w, scale, std::span<PointOutcome>(&outcomes[fi * systems], systems));
      },
      grain);

  const bool stopped = cscope != nullptr && cscope->should_stop();
  std::vector<std::vector<AcPointFailure>> failures(systems);
  for (std::size_t fi = 0; fi < nf; ++fi) {
    for (std::size_t sys = 0; sys < systems; ++sys) {
      PointOutcome& o = outcomes[fi * systems + sys];
      if (stopped && !ran[fi]) o.status = cscope->stop_status(stage);
      if (!o.status.ok()) failures[sys].push_back({fi, freqs_hz[fi], o.cond, o.status});
    }
  }
  return failures;
}

// "<what> failed at K/N points; first at index I (F Hz): <its message>" at
// `stage`, with the first failure's code; OK when there are none.
core::Status failed_points_status(const char* stage, const char* what,
                                  const std::vector<AcPointFailure>& failures,
                                  std::size_t n_points) {
  if (failures.empty()) return {};
  const AcPointFailure& f = failures.front();
  return {f.status.code(), stage,
          std::string(what) + " failed at " + std::to_string(failures.size()) + "/" +
              std::to_string(n_points) + " points; first at index " +
              std::to_string(f.freq_index) + " (" + std::to_string(f.freq_hz) +
              " Hz): " + f.status.message()};
}

// ac_stamp_pattern of the circuit with inductance matrix `lmat`.
std::vector<std::pair<std::size_t, std::size_t>> stamp_pattern(
    const Circuit& c, const InductanceMatrix& lmat, const AcOptions& opt) {
  StampPattern pattern;
  std::vector<Complex> rhs(c.unknown_count());
  assemble_point(c, lmat, 1.0, 1.0, opt, pattern, rhs);
  return std::move(pattern.entries);
}

// ac_band_ordering of the circuit with inductance matrix `lmat`.
std::shared_ptr<const num::BandOrdering> band_ordering(const Circuit& c,
                                                       const InductanceMatrix& lmat,
                                                       const AcOptions& opt) {
  const std::vector<std::pair<std::size_t, std::size_t>> pattern =
      stamp_pattern(c, lmat, opt);
  if (num::band_cannot_pay(c.unknown_count(), pattern)) return nullptr;
  auto ord = std::make_shared<const num::BandOrdering>(
      num::rcm_ordering(c.unknown_count(), pattern));
  if (!num::band_pays(*ord)) return nullptr;
  return ord;
}

}  // namespace

std::shared_ptr<const num::BandOrdering> ac_band_ordering(const Circuit& c,
                                                          const AcOptions& opt) {
  return band_ordering(c, c.inductance_matrix(), opt);
}

std::vector<std::pair<std::size_t, std::size_t>> ac_stamp_pattern(const Circuit& c,
                                                                  const AcOptions& opt) {
  return stamp_pattern(c, c.inductance_matrix(), opt);
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
  const std::size_t n_unknowns = c.unknown_count();
  const auto lmat = c.inductance_matrix();
  const std::shared_ptr<const num::BandOrdering> band = ac_band_ordering(c, opt);

  // Each point stamps its own matrix and writes its own solution slot.
  std::vector<std::vector<Complex>> solutions(freqs_hz.size());
  std::vector<std::vector<AcPointFailure>> failures = drive_points(
      "ac_solve", "ckt.ac", freqs_hz, opt, 1, /*grain=*/4,
      [&](std::size_t fi, double w, double scale, std::span<PointOutcome> out) {
        if (std::optional<SolvedPoint> p =
                solve_point(c, lmat, w, scale, opt, band, "ckt.ac", out[0])) {
          solutions[fi] = std::move(p->x);
        }
      });
  for (const AcPointFailure& f : failures[0]) {
    solutions[f.freq_index].assign(n_unknowns, Complex{});
  }
  return {AcSolution(c, freqs_hz, std::move(solutions)), std::move(failures[0])};
}

core::Status ac_sweep_status(const std::vector<AcPointFailure>& failures,
                             std::size_t n_points) {
  return failed_points_status("ckt.ac", "sweep", failures, n_points);
}

CouplingProbeModel ac_coupling_probe_model(const Circuit& c,
                                           const std::string& meas_node,
                                           const std::vector<std::string>& inductors,
                                           const std::vector<double>& freqs_hz,
                                           const AcOptions& opt) {
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

  // One factorization per frequency, reused for the baseline RHS and one
  // unit column per candidate inductor: nl+1 back-substitutions against a
  // single factor. Per-point slots keep the build thread-invariant.
  const std::vector<std::vector<AcPointFailure>> failures = drive_points(
      "ac_coupling_probe_model", "ckt.coupling_model", freqs_hz, opt, 1, /*grain=*/4,
      [&](std::size_t fi, double w, double scale, std::span<PointOutcome> out) {
        const std::optional<SolvedPoint> sp =
            solve_point(c, lmat, w, scale, opt, band, "ckt.coupling_model", out[0]);
        if (!sp) return;
        m.v_meas[fi] = (*meas == kGround) ? Complex{} : sp->x[static_cast<std::size_t>(*meas)];
        for (std::size_t p = 0; p < nl; ++p) m.i_branch[fi][p] = sp->x[bidx[p]];

        std::vector<Complex> e(n_unknowns, Complex{});
        for (std::size_t p = 0; p < nl; ++p) {
          e[bidx[p]] = Complex{1.0, 0.0};
          core::Result<std::vector<Complex>> y = solve(sp->lu, e);
          e[bidx[p]] = Complex{};
          if (!y.ok()) {
            out[0].status = y.status();
            return;
          }
          m.col_meas[fi][p] = (*meas == kGround)
                                  ? Complex{}
                                  : y.value()[static_cast<std::size_t>(*meas)];
          for (std::size_t q = 0; q < nl; ++q) {
            m.col_branch[fi][p][q] = y.value()[bidx[q]];
          }
        }
      });
  failed_points_status("ckt.coupling_model", "model build", failures[0], nf)
      .throw_if_error();
  return m;
}

CouplingProbeSweep ac_coupling_probe_sweep(
    const Circuit& c, const std::string& meas_node,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs, double probe_k,
    const std::vector<double>& freqs_hz, const AcOptions& opt) {
  const auto meas = c.find_node(meas_node);
  if (!meas) {
    throw std::invalid_argument("ac_coupling_probe_sweep: unknown node " + meas_node);
  }
  const auto& inds = c.inductors();
  const std::size_t n = c.unknown_count();
  const std::size_t nf = freqs_hz.size();
  const InductanceMatrix lmat = c.inductance_matrix();
  const std::shared_ptr<const num::BandOrdering> band = band_ordering(c, lmat, opt);

  // Every probe must pass set_coupling: checked on one copy, in pair order,
  // so the first bad probe raises what it would alone.
  {
    Circuit checked = c;
    for (const auto& [a, b] : pairs) {
      if (a >= inds.size() || b >= inds.size()) {
        throw std::invalid_argument("ac_coupling_probe_sweep: no such inductor index");
      }
      checked.set_coupling(inds[a].name, inds[b].name, probe_k);
    }
  }
  // A probe adds entries to the circuit's pattern unless it zeroes a mutual
  // the circuit has, so when no order of the circuit's pattern can pay for
  // band storage, such a probe's cannot either: it stays dense without
  // stamping its own pattern.
  const bool never_banded = band == nullptr && num::band_cannot_pay(n, stamp_pattern(c, lmat, opt));

  // A probe's system is the circuit's elements with the inductance matrix
  // set_coupling leaves (assemble_point reads couplings only through it):
  // the circuit's, with the pair's mutual replaced. It resumes the
  // circuit's factorization when both are dense. set_coupling rejects a
  // self pair, so a probe leaves the diagonal alone and its lu fault draw
  // is the circuit's.
  struct Probe {
    double mutual = 0.0;   // the pair's entry of the probe's matrix
    InductanceMatrix lmat; // the whole matrix, for a probe that may go banded
    std::shared_ptr<const num::BandOrdering> band;
    std::size_t first = 0;  // first changed column: the lower branch
  };
  std::vector<Probe> probes(pairs.size());
  std::vector<std::size_t> resume_order;
  std::vector<std::size_t> full_order;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const auto [a, b] = pairs[p];
    Probe& pr = probes[p];
    pr.mutual = c.coupled_mutual(a, b, probe_k);
    pr.first = std::min(c.inductor_branch(a), c.inductor_branch(b));
    if (never_banded && (pr.mutual != 0.0 || lmat[a][b] == 0.0)) {
      resume_order.push_back(p);
      continue;
    }
    pr.lmat = lmat;
    pr.lmat[a][b] = pr.lmat[b][a] = pr.mutual;
    pr.band = band_ordering(c, pr.lmat, opt);
    (band == nullptr && pr.band == nullptr ? resume_order : full_order).push_back(p);
  }
  // The circuit's elimination only moves forward, so probes resume in
  // ascending first column.
  std::stable_sort(resume_order.begin(), resume_order.end(),
                   [&](std::size_t x, std::size_t y) { return probes[x].first < probes[y].first; });

  // System 0 is the circuit and 1 + p probe p; each point writes only its
  // own measurement and resume slots: thread-count invariant.
  const std::size_t systems = 1 + probes.size();
  std::vector<Complex> v(nf * systems);
  std::vector<std::uint32_t> resumed(nf, 0);
  const auto measure = [&](PointOutcome& o, Complex& vm,
                           const core::Result<std::vector<Complex>>& x) {
    if (!x.ok()) {
      o.status = x.status();
    } else if (*meas != kGround) {
      vm = x.value()[index(*meas)];
    }
  };
  const auto solve_full = [&](PointOutcome& o, Complex& vm, const InductanceMatrix& l,
                              const std::shared_ptr<const num::BandOrdering>& ord,
                              double w, double scale) {
    const std::optional<SolvedPoint> sp = solve_point(c, l, w, scale, opt, ord, "ckt.ac", o);
    if (sp && *meas != kGround) vm = sp->x[index(*meas)];
  };

  const num::LuOptions lu_opt{opt.pivot_threshold};
  std::vector<std::vector<AcPointFailure>> failures = drive_points(
      "ac_coupling_probe_sweep", "ckt.ac", freqs_hz, opt, systems, /*grain=*/1,
      [&](std::size_t fi, double w, double scale, std::span<PointOutcome> out) {
        Complex* vp = &v[fi * systems];
        if (band == nullptr) {
          std::vector<Complex> rhs(n);
          num::MatrixC a0(n, n);
          assemble_point(c, lmat, w, scale, opt, a0, rhs);
          core::Result<num::Lu<Complex>> base = num::Lu<Complex>::start(a0, lu_opt);
          std::optional<num::Lu<Complex>> lu;
          std::vector<Complex> col(n);
          for (const std::size_t p : resume_order) {
            const Probe& pr = probes[p];
            const auto [a, b] = pairs[p];
            PointOutcome& o = out[1 + p];
            // The steps before the first changed column are the circuit's, a
            // failure among them included.
            core::Status st = base.ok() ? base.value().advance(pr.first) : base.status();
            if (!st.ok()) {
              o.status = std::move(st);
              continue;
            }
            lu = base.value();
            for (const auto& [row, column] : {std::pair{a, b}, std::pair{b, a}}) {
              const std::size_t bc = c.inductor_branch(column);
              for (std::size_t r = 0; r < n; ++r) col[r] = a0(r, bc);
              col[c.inductor_branch(row)] = branch_coupling_entry(w, pr.mutual);
              lu->replace_column(bc, col);
            }
            if (st = lu->advance(n); !st.ok()) {
              o.status = std::move(st);
              continue;
            }
            measure(o, vp[1 + p], solve_conditioned(*lu, rhs, opt, "ckt.ac", o.cond));
            if (o.status.ok()) ++resumed[fi];
          }
          if (core::Status st = base.ok() ? base.value().advance(n) : base.status();
              !st.ok()) {
            out[0].status = std::move(st);
          } else {
            measure(out[0], vp[0], solve_conditioned(base.value(), rhs, opt, "ckt.ac",
                                                     out[0].cond));
          }
        } else {
          solve_full(out[0], vp[0], lmat, band, w, scale);
        }
        for (const std::size_t p : full_order) {
          solve_full(out[1 + p], vp[1 + p], probes[p].lmat, probes[p].band, w, scale);
        }
      });

  const auto collect = [&](std::size_t sys) {
    MeasuredSweep m;
    m.v_meas.resize(nf);
    for (std::size_t fi = 0; fi < nf; ++fi) m.v_meas[fi] = v[fi * systems + sys];
    m.failures = std::move(failures[sys]);
    return m;
  };
  CouplingProbeSweep out;
  out.baseline = collect(0);
  out.probes.reserve(probes.size());
  for (std::size_t p = 0; p < probes.size(); ++p) out.probes.push_back(collect(1 + p));
  for (const std::uint32_t r : resumed) out.resumed_points += r;
  return out;
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
  if (!std::isfinite(f_hi.raw())) {
    return core::Status(core::ErrorCode::kInvalidArgument, "ckt.grid",
                        "log grid end must be finite, got " + std::to_string(f_hi.raw()));
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
