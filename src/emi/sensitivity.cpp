#include "src/emi/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/core/parallel.hpp"
#include "src/numeric/stats.hpp"
#include "src/sweep/adaptive.hpp"
#include "src/sweep/coupling.hpp"

namespace emi::emc {
namespace {

// rank_geometric_coupling sorts its entries as this many blocks at once,
// then merges them: on the 64-stage board (8,128 entries) the sort takes
// about 0.35 ms at 4 lanes instead of a single sort's 0.6-0.7 ms.
constexpr std::size_t kRankBlocks = 8;

// The ranking entry of one probed spectrum against the baseline.
CouplingSensitivity pair_delta(const std::string& a, const std::string& b,
                               const std::vector<double>& probed,
                               const std::vector<double>& baseline) {
  double max_d = 0.0, sum_d = 0.0;
  for (std::size_t fi = 0; fi < probed.size(); ++fi) {
    const double v = probed[fi] - baseline[fi];
    max_d = std::max(max_d, std::fabs(v));
    sum_d += std::fabs(v);
  }
  return {a, b, max_d, probed.empty() ? 0.0 : sum_d / static_cast<double>(probed.size())};
}

std::vector<double> levels_dbuv(const std::vector<ckt::Complex>& v_meas) {
  std::vector<double> out;
  out.reserve(v_meas.size());
  for (const ckt::Complex& v : v_meas) out.push_back(num::volts_to_dbuv(std::abs(v)));
  return out;
}

// The exact ranking: every probe on the full grid through one probe sweep,
// which factors each point once for the baseline and resumes that
// factorization for the probes. A failed baseline point raises the
// baseline's sweep Status, otherwise the lowest-index failed probe's.
std::vector<CouplingSensitivity> exact_ranking(
    const ckt::Circuit& c, const std::string& meas_node,
    const std::vector<std::string>& names,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    const std::vector<double>& freqs, const std::vector<double>& env,
    const SensitivityOptions& opt, emi::sweep::SweepStats& stats) {
  std::vector<std::pair<std::size_t, std::size_t>> inductors;
  inductors.reserve(pairs.size());
  for (const auto& [i, j] : pairs) {
    inductors.emplace_back(c.inductor_index(names[i]), c.inductor_index(names[j]));
  }
  ckt::AcOptions ac = opt.sweep.ac;
  ac.source_scale = env;
  const ckt::CouplingProbeSweep sw =
      ckt::ac_coupling_probe_sweep(c, meas_node, inductors, opt.probe_k, freqs, ac);
  ckt::ac_sweep_status(sw.baseline.failures, freqs.size()).throw_if_error();
  for (const ckt::MeasuredSweep& probe : sw.probes) {
    ckt::ac_sweep_status(probe.failures, freqs.size()).throw_if_error();
  }
  stats.full_solves += freqs.size() * (1 + pairs.size());
  stats.resumed_solves += sw.resumed_points;

  const std::vector<double> baseline = levels_dbuv(sw.baseline.v_meas);
  std::vector<CouplingSensitivity> out;
  out.reserve(pairs.size());
  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
    out.push_back(pair_delta(names[pairs[pi].first], names[pairs[pi].second],
                             levels_dbuv(sw.probes[pi].v_meas), baseline));
  }
  return out;
}

// The adaptive ranking: an adaptive baseline, then every pair through the
// coupling model, escalating to the pair's own adaptive sweep.
std::vector<CouplingSensitivity> adaptive_ranking(
    const ckt::Circuit& c, const std::string& meas_node,
    const std::vector<std::string>& names,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    const std::vector<double>& freqs, const std::vector<double>& env,
    const SensitivityOptions& opt, int degrade, emi::sweep::SweepStats& stats) {
  // The coupling model never calls set_coupling, so check up front that it
  // accepts every probe (no self pair, |probe_k| < 1), as the exact
  // branch's probe sweep does. Its checks read only the names and k.
  ckt::Circuit probed = c;
  for (const auto& [i, j] : pairs) probed.set_coupling(names[i], names[j], opt.probe_k);

  // The refined grid the adaptive baseline settles on doubles as the
  // coupling model's frequency grid below: refinement already spent its
  // solves where the response has structure, and a probe coupling only
  // perturbs that structure slightly.
  auto base = emi::sweep::adaptive_ac_sweep(c, {meas_node}, freqs, env, opt.sweep.ac,
                                            opt.accel, degrade);
  stats.merge(base.stats);
  const std::vector<double> baseline = std::move(base.level_dbuv[0]);
  if (pairs.empty()) return {};
  std::vector<std::size_t> refined;
  for (std::size_t fi = 0; fi < base.solved.size(); ++fi) {
    if (base.solved[fi]) refined.push_back(fi);
  }

  // The per-pair sweeps go through the reduced-order coupling model: ONE
  // factorization pass over the model grid (the baseline MNA system,
  // factored once per model frequency) serves every candidate pair via an
  // exact rank-2 Sherman-Morrison update, so a pair's marginal cost is a
  // handful of 2x2 solves plus the complex cubic fill. The model grid is the
  // refined grid plus the midpoint of every refined gap: the probe couplings
  // shift the response's structure slightly, so the probed fill needs a
  // little more headroom than the baseline did. Halving the gaps costs one
  // extra solve per gap ONCE (the model is shared by every pair) and cuts
  // the cubic fill error by ~an order.
  std::vector<std::size_t> mids;
  for (std::size_t k = 1; k < refined.size(); ++k) {
    if (refined[k] - refined[k - 1] >= 2) {
      mids.push_back(refined[k - 1] + (refined[k] - refined[k - 1]) / 2);
    }
  }
  refined.insert(refined.end(), mids.begin(), mids.end());
  std::sort(refined.begin(), refined.end());
  std::vector<double> model_f(refined.size()), model_env(refined.size());
  for (std::size_t k = 0; k < refined.size(); ++k) {
    model_f[k] = freqs[refined[k]];
    model_env[k] = env[refined[k]];
  }
  ckt::AcOptions model_ac = opt.sweep.ac;
  model_ac.source_scale = model_env;
  const ckt::CouplingProbeModel model =
      ckt::ac_coupling_probe_model(c, meas_node, names, model_f, model_ac);
  stats.full_solves += refined.size();
  const std::vector<std::vector<double>> lmat = c.inductance_matrix();

  // The per-pair sweeps are independent. Results and sweep stats land in
  // index-addressed slots and are merged in pair-index order afterwards, so
  // the whole report is thread-count invariant.
  std::vector<CouplingSensitivity> out(pairs.size());
  std::vector<emi::sweep::SweepStats> pair_stats(pairs.size());
  core::parallel_for(0, pairs.size(), [&](std::size_t pi) {
    const auto& [i, j] = pairs[pi];
    // set_coupling REPLACES the pair's mutual with probe_k*sqrt(Li*Lj), so
    // the model evaluates the DIFFERENCE against whatever mutual the pair
    // already carries.
    const std::size_t ci = c.inductor_index(names[i]);
    const std::size_t cj = c.inductor_index(names[j]);
    const double delta_m =
        opt.probe_k * std::sqrt(lmat[ci][ci] * lmat[cj][cj]) - lmat[ci][cj];
    // Escalation: the pair's own adaptive sweep, full admission-controlled
    // accuracy at the refined-solve price, not the dense one.
    const auto own_sweep = [&]() {
      ckt::Circuit probe = c;
      probe.set_coupling(names[i], names[j], opt.probe_k);
      auto a = emi::sweep::adaptive_ac_sweep(probe, {meas_node}, freqs, env, opt.sweep.ac,
                                             opt.accel, degrade);
      pair_stats[pi].merge(a.stats);
      return std::move(a.level_dbuv[0]);
    };
    const std::vector<double> probed = emi::sweep::coupling_model_pair_sweep(
        model, refined, freqs, env, delta_m, i, j, degrade, &pair_stats[pi], own_sweep);
    out[pi] = pair_delta(names[i], names[j], probed, baseline);
  });
  for (const auto& st : pair_stats) stats.merge(st);
  return out;
}

}  // namespace

std::vector<CouplingSensitivity> rank_coupling_sensitivity(
    ckt::Circuit c, const std::string& meas_node, const TrapezoidSpectrum& source,
    const SensitivityOptions& opt) {
  return rank_coupling_sensitivity_report(std::move(c), meas_node, source, opt).ranking;
}

SensitivityReport rank_coupling_sensitivity_report(
    ckt::Circuit c, const std::string& meas_node, const TrapezoidSpectrum& source,
    const SensitivityOptions& opt, int degrade) {
  // Candidate inductors: explicit list or every inductor in the circuit.
  std::vector<std::string> names = opt.candidates;
  if (names.empty()) {
    for (const auto& l : c.inductors()) names.push_back(l.name);
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) pairs.emplace_back(i, j);
  }

  const std::vector<double> freqs =
      num::log_space(opt.sweep.f_min_hz, opt.sweep.f_max_hz, opt.sweep.n_points);
  const std::vector<double> env = envelope_series(source, freqs);

  SensitivityReport rep;
  std::vector<CouplingSensitivity> out =
      opt.accel.adaptive
          ? adaptive_ranking(c, meas_node, names, pairs, freqs, env, opt, degrade, rep.stats)
          : exact_ranking(c, meas_node, names, pairs, freqs, env, opt, rep.stats);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.max_delta_db > b.max_delta_db;
  });
  rep.ranking = std::move(out);
  return rep;
}

std::vector<CouplingSensitivity> significant_pairs(
    const std::vector<CouplingSensitivity>& ranked, double threshold_db) {
  std::vector<CouplingSensitivity> out;
  for (const auto& s : ranked) {
    if (s.max_delta_db >= threshold_db) out.push_back(s);
  }
  return out;
}

std::vector<GeometricCoupling> rank_geometric_coupling(
    const peec::CouplingExtractor& extractor,
    std::span<const peec::PlacedModel> models,
    std::span<const std::string> names) {
  const std::size_t n = models.size();
  if (names.size() != n) {
    throw std::invalid_argument("rank_geometric_coupling: names/models size mismatch");
  }
  if (n < 2) return {};

  // One batched extraction for the whole matrix: self terms on the diagonal,
  // mutuals off it, deduplicated by canonical relative pose. The screen only
  // ranks magnitudes, so it tolerates the clustered error bound when the
  // extractor's kernel options opt into clustering.
  const std::vector<units::Henry> m = extractor.mutual_matrix(models);

  // Order: |k| descending, then name a, then name b. A name's rank (how
  // many names sort below it) stands in for the name, so the sort compares
  // integers in the same total order; entries that tie carry equal k and
  // names, so the output matches a sort on the strings. The rank is also
  // the position in by_name of the name's first holder, so an entry names
  // its pair by rank alone.
  std::vector<std::size_t> by_name(n);
  for (std::size_t i = 0; i < n; ++i) by_name[i] = i;
  std::sort(by_name.begin(), by_name.end(),
            [&](std::size_t a, std::size_t b) { return names[a] < names[b]; });
  std::vector<std::size_t> rank(n, 0);
  for (std::size_t q = 1; q < n; ++q) {
    rank[by_name[q]] =
        names[by_name[q]] == names[by_name[q - 1]] ? rank[by_name[q - 1]] : q;
  }
  struct Entry {
    double k_abs;
    std::size_t rank_a, rank_b;
  };
  const auto before = [](const Entry& a, const Entry& b) {
    if (a.k_abs != b.k_abs) return a.k_abs > b.k_abs;
    if (a.rank_a != b.rank_a) return a.rank_a < b.rank_a;
    return a.rank_b < b.rank_b;
  };
  // The entries are built, sorted as kRankBlocks blocks and emitted in
  // parallel regions (each row, block and output slot handled by one
  // index); the sorted blocks are merged pairwise on the calling lane. The
  // order is total up to entries equal in every field, which emit the same
  // names and k, so the output is a plain sort's at any lane count.
  const std::size_t n_entries = n * (n - 1) / 2;
  std::vector<Entry> entries(n_entries);
  core::parallel_for(
      0, n,
      [&](std::size_t i) {
        std::size_t e = i * (2 * n - i - 1) / 2;  // row i's first entry
        for (std::size_t j = i + 1; j < n; ++j, ++e) {
          const double k = peec::coupling_ratio(m[i * n + j], m[i * n + i], m[j * n + j]);
          entries[e] = {std::fabs(k), rank[i], rank[j]};
        }
      },
      8);
  const auto at = [&](std::size_t b) {
    return entries.begin() + static_cast<std::ptrdiff_t>(n_entries * b / kRankBlocks);
  };
  core::parallel_for(
      0, kRankBlocks, [&](std::size_t b) { std::sort(at(b), at(b + 1), before); }, 1);
  // A stop skipped rows or blocks: the ranking is discarded, so do not
  // merge it.
  if (!core::CancelScope::poll()) return {};
  for (std::size_t width = 1; width < kRankBlocks; width *= 2) {
    for (std::size_t b = 0; b + width < kRankBlocks; b += 2 * width) {
      std::inplace_merge(at(b), at(b + width), at(std::min(b + 2 * width, kRankBlocks)),
                         before);
    }
  }
  std::vector<GeometricCoupling> out(n_entries);
  core::parallel_for(
      0, n_entries,
      [&](std::size_t e) {
        const Entry& x = entries[e];
        out[e] = {names[by_name[x.rank_a]], names[by_name[x.rank_b]], x.k_abs};
      },
      512);
  return out;
}

}  // namespace emi::emc
