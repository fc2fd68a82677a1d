// Performance: parallel scaling of the core execution layer. Each benchmark
// sweeps the global lane count (1/2/4/8) over a fixed workload, so the
// time-per-iteration ratio between Arg(1) and Arg(n) is the speedup. On a
// single-core host the lanes serialize and the sweep degenerates to
// measuring pool overhead, which is itself worth tracking.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/parallel.hpp"
#include "src/core/thread_pool.hpp"
#include "src/emi/emission.hpp"
#include "src/emi/rules.hpp"
#include "src/emi/sensitivity.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/flow/design_flow.hpp"
#include "src/flow/scenario_large.hpp"
#include "src/peec/partial_inductance.hpp"

namespace {

using namespace emi;

void set_lanes(benchmark::State& state) {
  core::ThreadPool::set_global_thread_count(
      static_cast<std::size_t>(state.range(0)));
}

// Raw pool/reduction overhead and scaling on an embarrassingly parallel sum.
void BM_ParallelSum(benchmark::State& state) {
  set_lanes(state);
  constexpr std::size_t kN = 1 << 16;
  for (auto _ : state) {
    const double s = core::parallel_sum(
        0, kN, [](std::size_t i) { return 1.0 / static_cast<double>(i + 1); }, 256);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_ParallelSum)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

// Neumann double sum of two dense coils - the PEEC kernel the extractor
// parallelizes row-wise above kParallelPairThreshold.
void BM_PathMutual(benchmark::State& state) {
  set_lanes(state);
  peec::BobbinCoilParams p;
  p.n_rings = 8;
  const peec::ComponentFieldModel a = peec::bobbin_coil("A", p);
  const peec::ComponentFieldModel b = peec::bobbin_coil("B", p);
  const peec::SegmentPath pa = a.path_at({{0, 0, 0}, 0.0});
  const peec::SegmentPath pb = b.path_at({{30, 0, 0}, 0.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(peec::path_mutual(pa, pb, {}));
  }
}
BENCHMARK(BM_PathMutual)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// AC emission sweep: one linear solve per frequency point, parallel over
// points.
void BM_EmissionSweep(benchmark::State& state) {
  set_lanes(state);
  const flow::BuckConverter bc = flow::make_buck_converter();
  emc::EmissionSweepOptions opt;
  opt.n_points = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        emc::conducted_emission(bc.circuit, bc.meas_node, bc.noise, opt));
  }
}
BENCHMARK(BM_EmissionSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// Exact sensitivity ranking: the buck baseline and its 36 probed circuits
// (every inductor pair) at 60 points, parallel over frequency points. Each
// point factors the baseline once and the probes resume its shared prefix.
// Freshly created pool threads can run stacked on one CPU for a few hundred
// ms, so untimed rankings warm the pool for 300 ms first. `full_solves`,
// `resumed_solves` and `pool_batches` are per ranking.
void BM_SensitivityRanking(benchmark::State& state) {
  set_lanes(state);
  const flow::BuckConverter bc = flow::make_buck_converter();
  emc::SensitivityOptions opt;
  opt.sweep.n_points = 60;
  const auto warm_end = std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < warm_end) {
    benchmark::DoNotOptimize(
        emc::rank_coupling_sensitivity(bc.circuit, bc.meas_node, bc.noise, opt));
  }
  sweep::SweepStats stats;
  std::uint64_t batches = 0;
  for (auto _ : state) {
    const core::PoolStats p0 = core::ThreadPool::global().stats();
    const emc::SensitivityReport rep = emc::rank_coupling_sensitivity_report(
        bc.circuit, bc.meas_node, bc.noise, opt);
    benchmark::DoNotOptimize(rep.ranking.data());
    batches = core::ThreadPool::global().stats().batches - p0.batches;
    stats = rep.stats;
  }
  state.counters["full_solves"] = static_cast<double>(stats.full_solves);
  state.counters["resumed_solves"] = static_cast<double>(stats.resumed_solves);
  state.counters["pool_batches"] = static_cast<double>(batches);
}
BENCHMARK(BM_SensitivityRanking)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Adaptive refinement vs the dense sweep above: same buck circuit, same
// grid density, ~10x fewer MNA solves (solved/interpolated counts are
// reported as counters).
void BM_AdaptiveSweep(benchmark::State& state) {
  set_lanes(state);
  const flow::BuckConverter bc = flow::make_buck_converter();
  emc::EmissionSweepOptions opt;
  opt.n_points = 200;
  sweep::SweepAccel accel;
  accel.adaptive = true;
  std::uint64_t full = 0, interp = 0;
  for (auto _ : state) {
    const emc::AdaptiveEmissionResult r = emc::conducted_emission_adaptive(
        bc.circuit, bc.meas_node, bc.noise, opt, accel);
    benchmark::DoNotOptimize(r.spectrum.level_dbuv.data());
    full = r.stats.full_solves;
    interp = r.stats.interp_points;
  }
  state.counters["full_solves"] = static_cast<double>(full);
  state.counters["interp_points"] = static_cast<double>(interp);
}
BENCHMARK(BM_AdaptiveSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// Accelerated sensitivity ranking: one adaptive baseline + one coupling-
// model factorization pass shared by all 21 buck pairs, against
// BM_SensitivityRanking's 21 dense probed sweeps.
void BM_SensitivityRankingAdaptive(benchmark::State& state) {
  set_lanes(state);
  const flow::BuckConverter bc = flow::make_buck_converter();
  emc::SensitivityOptions opt;
  opt.sweep.n_points = 60;
  opt.accel.adaptive = true;
  std::uint64_t full = 0, evals = 0;
  for (auto _ : state) {
    const emc::SensitivityReport rep = emc::rank_coupling_sensitivity_report(
        bc.circuit, bc.meas_node, bc.noise, opt);
    benchmark::DoNotOptimize(rep.ranking.data());
    full = rep.stats.full_solves;
    evals = rep.stats.surrogate_evals;
  }
  state.counters["full_solves"] = static_cast<double>(full);
  state.counters["surrogate_evals"] = static_cast<double>(evals);
}
BENCHMARK(BM_SensitivityRankingAdaptive)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// PEMD rule derivation alone: the buck flow's 11 rule pairs on a cold
// extractor, every pair's bisection in one lockstep search (the flow's rule
// stage). The pairs come from one flow run before timing, which also warms
// the freshly sized pool. `sample_evals` and `pool_batches` are per
// derivation.
void BM_RuleDerivation(benchmark::State& state) {
  set_lanes(state);
  flow::BuckConverter bc = flow::make_buck_converter();
  flow::FlowOptions fopt;
  fopt.sweep.n_points = 60;
  const flow::FlowResult res = flow::run_design_flow(bc, flow::layout_unfavorable(bc), fopt);
  std::vector<peec::ModelPair> pairs;
  for (const emc::MinDistanceRule& r : res.rules) {
    pairs.emplace_back(bc.model_for_component(r.comp_a), bc.model_for_component(r.comp_b));
  }
  std::uint64_t evals = 0, batches = 0;
  for (auto _ : state) {
    const peec::CouplingExtractor extractor;  // cold: every probe extracts
    const peec::KernelStats k0 = peec::kernel_stats();
    const core::PoolStats p0 = core::ThreadPool::global().stats();
    const std::vector<emc::MinDistanceRule> rules = emc::RuleDeriver(extractor).derive(pairs);
    benchmark::DoNotOptimize(rules.data());
    evals = peec::kernel_stats().sample_evals - k0.sample_evals;
    batches = core::ThreadPool::global().stats().batches - p0.batches;
  }
  state.counters["pairs"] = static_cast<double>(pairs.size());
  state.counters["sample_evals"] = static_cast<double>(evals);
  state.counters["pool_batches"] = static_cast<double>(batches);
}
BENCHMARK(BM_RuleDerivation)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// AC points of the large-scenario ladder at 16, 64 and 256 stages (99, 387
// and 1,539 unknowns) on one lane: the per-point stamp, factorization and
// solve, without pool scaling. `per_point` is the iteration time divided by
// the sweep's points.
void BM_LadderAcPoint(benchmark::State& state) {
  core::ThreadPool::set_global_thread_count(1);
  flow::LargeScenarioOptions so;
  so.n_stages = static_cast<std::size_t>(state.range(0));
  const flow::LargeScenarioCircuit sc = flow::make_large_scenario_circuit(so);
  emc::EmissionSweepOptions opt;
  opt.n_points = 4;
  for (auto _ : state) {
    emc::EmissionSpectrum s =
        emc::conducted_emission(sc.circuit, sc.meas_node, sc.source, opt);
    benchmark::DoNotOptimize(s);
  }
  state.counters["per_point"] = benchmark::Counter(
      static_cast<double>(opt.n_points),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LadderAcPoint)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// The headline: the paper's whole design flow end to end.
void BM_DesignFlow(benchmark::State& state) {
  set_lanes(state);
  flow::FlowOptions opt;
  opt.sweep.n_points = 60;
  for (auto _ : state) {
    flow::BuckConverter bc = flow::make_buck_converter();
    const flow::FlowResult res =
        flow::run_design_flow(bc, flow::layout_unfavorable(bc), opt);
    benchmark::DoNotOptimize(res.peak_improvement_db);
  }
}
BENCHMARK(BM_DesignFlow)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
