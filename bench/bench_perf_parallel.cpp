// Performance: parallel scaling of the core execution layer. Each benchmark
// sweeps the global lane count (1/2/4/8) over a fixed workload, so the
// time-per-iteration ratio between Arg(1) and Arg(n) is the speedup. On a
// single-core host the lanes serialize and the sweep degenerates to
// measuring pool overhead, which is itself worth tracking.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/parallel.hpp"
#include "src/core/thread_pool.hpp"
#include "src/emi/emission.hpp"
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

// Sensitivity ranking: one probed emission sweep per inductor pair (21 for
// the buck converter), parallel over pairs.
void BM_SensitivityRanking(benchmark::State& state) {
  set_lanes(state);
  const flow::BuckConverter bc = flow::make_buck_converter();
  emc::SensitivityOptions opt;
  opt.sweep.n_points = 60;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        emc::rank_coupling_sensitivity(bc.circuit, bc.meas_node, bc.noise, opt));
  }
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
  opt.accel.surrogate = true;
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
