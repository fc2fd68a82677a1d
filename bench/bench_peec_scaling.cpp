// N-scaling of batched mutual extraction over the large filter-stage grid
// (scenario_large.hpp): the quadratic pairwise wall with the exact kernel
// versus near-O(n) growth with hierarchical clustering, plus the realized
// worst-case error against the exact kernel at the Ns where computing both
// is affordable. Run the binary for the curve: `segments` and the pair
// counters give the work growth, wall-clock the end-to-end cost,
// `max_err_over_bound` the accuracy ledger (must stay <= 1). emibench's
// large_board is the gated end-to-end record of the clustered path;
// BM_ScreeningMatrix times its extraction alone at 1, 2, 4 and 8 lanes.
#include <benchmark/benchmark.h>

#include <cmath>
#include <utility>
#include <vector>

#include "src/core/thread_pool.hpp"
#include "src/emi/sensitivity.hpp"
#include "src/flow/scenario_large.hpp"
#include "src/peec/cluster_tree.hpp"
#include "src/peec/coupling.hpp"

namespace {

using namespace emi;

constexpr peec::QuadratureOptions kQuad{4, 2};
constexpr double kTheta = 4.0;

peec::KernelOptions clustered_options() {
  peec::KernelOptions k;
  k.cluster = true;
  k.cluster_theta = kTheta;
  return k;
}

std::vector<std::pair<std::size_t, std::size_t>> all_pairs(std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

// Batched extraction of every model pair with a fresh extractor per
// iteration (cold cache: the point is kernel work, not cache hits). Kernel
// counters are reported per iteration so the JSON carries the pair-count
// growth next to the wall-clock growth.
void run_scaling(benchmark::State& state, const peec::KernelOptions& kopt) {
  flow::LargeScenarioOptions opt;
  opt.n_stages = static_cast<std::size_t>(state.range(0));
  const flow::LargeScenario s = flow::make_large_scenario(opt);
  const auto pairs = all_pairs(s.placed.size());
  const peec::KernelStats before = peec::kernel_stats();
  for (auto _ : state) {
    const peec::CouplingExtractor ex(kQuad, kopt);
    benchmark::DoNotOptimize(ex.mutual_batch(s.placed, pairs).data());
  }
  const peec::KernelStats after = peec::kernel_stats();
  const double iters = static_cast<double>(state.iterations());
  state.counters["segments"] = static_cast<double>(s.total_segments());
  state.counters["pairs_exact"] =
      static_cast<double>(after.exact_pairs - before.exact_pairs) / iters;
  state.counters["pairs_cluster"] =
      static_cast<double>(after.cluster_pairs - before.cluster_pairs) / iters;
  state.counters["cluster_skipped"] =
      static_cast<double>(after.cluster_skipped - before.cluster_skipped) /
      iters;
  state.SetComplexityN(static_cast<std::int64_t>(s.total_segments()));
}

void BM_ScalingExact(benchmark::State& state) {
  run_scaling(state, peec::KernelOptions{});
}
// The exact arm stops at 8 stages (~520 segments): past that the quadratic
// wall it demonstrates makes the bench itself unaffordable.
BENCHMARK(BM_ScalingExact)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_ScalingClustered(benchmark::State& state) {
  run_scaling(state, clustered_options());
}
BENCHMARK(BM_ScalingClustered)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

// Accuracy ledger at the Ns where the exact matrix is affordable: the
// realized worst-case clustered error across every model pair, normalized
// by the documented per-pair bound (<= 1 by the cluster_tree battery's
// theorem, re-measured here on the scaled scenario).
void BM_ScalingError(benchmark::State& state) {
  flow::LargeScenarioOptions opt;
  opt.n_stages = static_cast<std::size_t>(state.range(0));
  const flow::LargeScenario s = flow::make_large_scenario(opt);
  const peec::KernelOptions kopt = clustered_options();
  double max_err = 0.0;
  double max_ratio = 0.0;
  for (auto _ : state) {
    max_err = 0.0;
    max_ratio = 0.0;
    for (std::size_t i = 0; i < s.placed.size(); ++i) {
      const peec::SegmentPath pi = s.placed[i].model->path_at(s.placed[i].pose);
      for (std::size_t j = i + 1; j < s.placed.size(); ++j) {
        const peec::SegmentPath pj =
            s.placed[j].model->path_at(s.placed[j].pose);
        const double exact = peec::path_mutual(pi, pj, kQuad);
        const peec::ClusteredMutual clus =
            peec::path_mutual_clustered_stats(pi, pj, kQuad, kopt);
        const double err = std::fabs(clus.value - exact);
        max_err = std::max(max_err, err);
        if (clus.error_bound > 0.0) {
          max_ratio = std::max(max_ratio, err / clus.error_bound);
        }
      }
    }
    benchmark::DoNotOptimize(max_err);
  }
  state.counters["segments"] = static_cast<double>(s.total_segments());
  state.counters["max_err_henry"] = max_err;
  state.counters["max_err_over_bound"] = max_ratio;
}
BENCHMARK(BM_ScalingError)->Arg(2)->Arg(6)->Unit(benchmark::kMillisecond);

// large_board's extraction: one cold clustered mutual_matrix over the
// 64-stage grid (board seed 3, emibench --seed 2) at default quadrature and
// cluster options, with the pool sized to the argument. One untimed matrix
// warms the freshly sized pool. The counters are per matrix.
void BM_ScreeningMatrix(benchmark::State& state) {
  core::ThreadPool::set_global_thread_count(static_cast<std::size_t>(state.range(0)));
  flow::LargeScenarioOptions opt;
  opt.n_stages = 64;
  opt.seed = 3;
  const flow::LargeScenario s = flow::make_large_scenario(opt);
  peec::KernelOptions kopt;
  kopt.cluster = true;
  benchmark::DoNotOptimize(
      peec::CouplingExtractor(peec::QuadratureOptions{}, kopt).mutual_matrix(s.placed).data());
  peec::KernelStats work{};
  std::uint64_t batches = 0;
  for (auto _ : state) {
    const peec::CouplingExtractor ex(peec::QuadratureOptions{}, kopt);
    const peec::KernelStats k0 = peec::kernel_stats();
    const core::PoolStats p0 = core::ThreadPool::global().stats();
    benchmark::DoNotOptimize(ex.mutual_matrix(s.placed).data());
    const peec::KernelStats k1 = peec::kernel_stats();
    batches = core::ThreadPool::global().stats().batches - p0.batches;
    work.exact_pairs = k1.exact_pairs - k0.exact_pairs;
    work.cluster_pairs = k1.cluster_pairs - k0.cluster_pairs;
    work.cluster_skipped = k1.cluster_skipped - k0.cluster_skipped;
  }
  state.counters["pairs_exact"] = static_cast<double>(work.exact_pairs);
  state.counters["pairs_cluster"] = static_cast<double>(work.cluster_pairs);
  state.counters["cluster_skipped"] = static_cast<double>(work.cluster_skipped);
  state.counters["pool_batches"] = static_cast<double>(batches);
}
BENCHMARK(BM_ScreeningMatrix)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// The screening emibench's large_board times: one cold
// rank_geometric_coupling over the same 64-stage grid, the extractor built
// and destroyed inside the timed loop, so the batch's bookkeeping, the
// ranking and the teardown count with the extraction. One untimed ranking
// warms the freshly sized pool. pool_batches is per ranking.
void BM_ScreeningRank(benchmark::State& state) {
  core::ThreadPool::set_global_thread_count(static_cast<std::size_t>(state.range(0)));
  flow::LargeScenarioOptions opt;
  opt.n_stages = 64;
  opt.seed = 3;
  const flow::LargeScenario s = flow::make_large_scenario(opt);
  peec::KernelOptions kopt;
  kopt.cluster = true;
  const auto rank = [&] {
    const peec::CouplingExtractor ex(peec::QuadratureOptions{}, kopt);
    return emc::rank_geometric_coupling(ex, s.placed, s.names).size();
  };
  benchmark::DoNotOptimize(rank());
  std::uint64_t batches = 0;
  for (auto _ : state) {
    const core::PoolStats p0 = core::ThreadPool::global().stats();
    benchmark::DoNotOptimize(rank());
    batches = core::ThreadPool::global().stats().batches - p0.batches;
  }
  state.counters["pool_batches"] = static_cast<double>(batches);
}
BENCHMARK(BM_ScreeningRank)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
