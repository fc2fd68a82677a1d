// Performance: PEEC extraction primitives. Scaling of the Neumann double
// sum with model complexity, self-inductance caching, field-map rendering,
// a full AC emission sweep, and the pair-kernel microbenchmarks (legacy
// nested quadrature vs the sampled SoA kernel, serial and parallel, the
// row kernel's cost per sample evaluation in each of its three uses, plus
// batched extraction vs per-call extraction). Run the binary for numbers
// (`bench_perf_peec --benchmark_filter='KernelPair|KernelRow'`); the gated
// end-to-end record of extraction cost is emibench's flow_buck and
// large_board.
#include <benchmark/benchmark.h>

#include <chrono>
#include <utility>
#include <vector>

#include "src/core/thread_pool.hpp"
#include "src/emi/emission.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/peec/biot_savart.hpp"
#include "src/peec/cluster_tree.hpp"
#include "src/peec/component_model.hpp"
#include "src/peec/coupling.hpp"
#include "src/peec/sampled_path.hpp"

using emi::units::Millimeters;

namespace {

using namespace emi;

// Shared geometry for the kernel microbenchmarks: the paper's bobbin-coil
// solenoid pair (60 x 60 segments) at the acceptance configuration, order 4
// with 2 subdivisions.
struct KernelBenchFixture {
  peec::ComponentFieldModel a = peec::bobbin_coil("A");
  peec::ComponentFieldModel b = peec::bobbin_coil("B");
  peec::SegmentPath pa = a.path_at({});
  peec::SegmentPath pb = b.path_at(peec::Pose{{30, 4, 0}, 25.0});
  peec::QuadratureOptions q{4, 2};
};

const KernelBenchFixture& kernel_fixture() {
  static const KernelBenchFixture f;
  return f;
}

void BM_KernelPair_Legacy(benchmark::State& state) {
  const KernelBenchFixture& f = kernel_fixture();
  core::ScopedSerialFallback serial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(peec::path_mutual_legacy(f.pa, f.pb, f.q));
  }
}
BENCHMARK(BM_KernelPair_Legacy)->Unit(benchmark::kMicrosecond);

void BM_KernelPair_Sampled(benchmark::State& state) {
  // Sampling included: what path_mutual() costs end to end.
  const KernelBenchFixture& f = kernel_fixture();
  core::ScopedSerialFallback serial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(peec::path_mutual(f.pa, f.pb, f.q));
  }
}
BENCHMARK(BM_KernelPair_Sampled)->Unit(benchmark::kMicrosecond);

void BM_KernelPair_SampledPrebuilt(benchmark::State& state) {
  // The pair kernel alone, over SampledPaths built once (the extractor's
  // steady state: one build per model, many pair evaluations).
  const KernelBenchFixture& f = kernel_fixture();
  const peec::SampledPath sa = peec::sample_path(f.pa, f.q);
  const peec::SampledPath sb = peec::sample_path(f.pb, f.q);
  core::ScopedSerialFallback serial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(peec::path_mutual_sampled(sa, sb));
  }
}
BENCHMARK(BM_KernelPair_SampledPrebuilt)->Unit(benchmark::kMicrosecond);

void BM_KernelSamplePathBuild(benchmark::State& state) {
  const KernelBenchFixture& f = kernel_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(peec::sample_path(f.pa, f.q).px.data());
  }
}
BENCHMARK(BM_KernelSamplePathBuild)->Unit(benchmark::kMicrosecond);

void BM_KernelPair_LegacyParallel(benchmark::State& state) {
  const KernelBenchFixture& f = kernel_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(peec::path_mutual_legacy(f.pa, f.pb, f.q));
  }
}
BENCHMARK(BM_KernelPair_LegacyParallel)->Unit(benchmark::kMicrosecond);

void BM_KernelPair_SampledParallel(benchmark::State& state) {
  const KernelBenchFixture& f = kernel_fixture();
  const peec::SampledPath sa = peec::sample_path(f.pa, f.q);
  const peec::SampledPath sb = peec::sample_path(f.pb, f.q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(peec::path_mutual_sampled(sa, sb));
  }
}
BENCHMARK(BM_KernelPair_SampledParallel)->Unit(benchmark::kMicrosecond);

// The exact row kernel serially at the default quadrature (order 6 x 2) on
// the 60 x 60 coil pair: the mutual rows of path_mutual_sampled, the self
// rows of one coil's path_inductance, and the exact remainder rows of a
// clustered extraction the root gate does not admit (that one also samples
// the second side, builds its tree and traverses). "ns_per_exact_eval" is
// the wall time over the kernel_stats() sample-evaluation delta.
template <typename Fn>
void run_kernel_rows(benchmark::State& state, const Fn& fn) {
  core::ScopedSerialFallback serial;
  const peec::KernelStats before = peec::kernel_stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) fn();
  const auto t1 = std::chrono::steady_clock::now();
  const peec::KernelStats after = peec::kernel_stats();
  const double evals = static_cast<double>(after.sample_evals - before.sample_evals);
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  state.counters["ns_per_exact_eval"] = evals > 0.0 ? ns / evals : 0.0;
  state.counters["evals"] = evals / static_cast<double>(state.iterations());
}

void BM_KernelRow_Mutual(benchmark::State& state) {
  const KernelBenchFixture& f = kernel_fixture();
  const peec::SampledPath sa = peec::sample_path(f.pa);
  const peec::SampledPath sb = peec::sample_path(f.pb);
  run_kernel_rows(state, [&] { benchmark::DoNotOptimize(peec::path_mutual_sampled(sa, sb)); });
}
BENCHMARK(BM_KernelRow_Mutual)->Unit(benchmark::kMicrosecond);

void BM_KernelRow_Self(benchmark::State& state) {
  const KernelBenchFixture& f = kernel_fixture();
  const peec::SampledPath sa = peec::sample_path(f.pa);
  const peec::SampledPath* paths[] = {&sa};
  double out = 0.0;
  run_kernel_rows(state, [&] {
    peec::path_inductance_sampled_many(paths, {&out, 1});
    benchmark::DoNotOptimize(out);
  });
}
BENCHMARK(BM_KernelRow_Self)->Unit(benchmark::kMicrosecond);

void BM_KernelRow_Remainder(benchmark::State& state) {
  const KernelBenchFixture& f = kernel_fixture();
  peec::KernelOptions kopt;
  kopt.cluster = true;
  const peec::PreparedPath pa = peec::prepare_path(f.pa, {}, kopt);
  run_kernel_rows(state, [&] {
    benchmark::DoNotOptimize(peec::path_mutual_clustered_stats(pa, f.pb, {}, kopt).value);
  });
}
BENCHMARK(BM_KernelRow_Remainder)->Unit(benchmark::kMicrosecond);

// Batched extraction of every model pair of the buck converter vs the same
// work as N^2 individual mutual() calls. Fresh extractor per iteration so
// both variants measure cold-cache extraction plus locking, not cache hits.
void BM_KernelExtraction_PerCall(benchmark::State& state) {
  const flow::BuckConverter bc = flow::make_buck_converter();
  const place::Layout layout = flow::layout_unfavorable(bc);
  std::vector<peec::PlacedModel> models;
  for (const auto& m : bc.models) {
    models.push_back({&m, flow::pose_of(bc, layout, m.name)});
  }
  for (auto _ : state) {
    const peec::CouplingExtractor ex;
    double sum = 0.0;
    for (std::size_t i = 0; i < models.size(); ++i) {
      for (std::size_t j = i + 1; j < models.size(); ++j) {
        sum += ex.mutual(models[i], models[j]).raw();
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_KernelExtraction_PerCall)->Unit(benchmark::kMillisecond);

void BM_KernelExtraction_Batched(benchmark::State& state) {
  const flow::BuckConverter bc = flow::make_buck_converter();
  const place::Layout layout = flow::layout_unfavorable(bc);
  std::vector<peec::PlacedModel> models;
  for (const auto& m : bc.models) {
    models.push_back({&m, flow::pose_of(bc, layout, m.name)});
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < models.size(); ++i) {
    for (std::size_t j = i + 1; j < models.size(); ++j) pairs.emplace_back(i, j);
  }
  for (auto _ : state) {
    const peec::CouplingExtractor ex;
    benchmark::DoNotOptimize(ex.mutual_batch(models, pairs).data());
  }
}
BENCHMARK(BM_KernelExtraction_Batched)->Unit(benchmark::kMillisecond);

void BM_MutualCapCap(benchmark::State& state) {
  const peec::ComponentFieldModel a = peec::x_capacitor("A");
  const peec::ComponentFieldModel b = peec::x_capacitor("B");
  const peec::CouplingExtractor ex;
  const peec::PlacedModel pa{&a, {{0, 0, 0}, 0.0}};
  const peec::PlacedModel pb{&b, {{25, 0, 0}, 0.0}};
  for (auto _ : state) benchmark::DoNotOptimize(ex.mutual(pa, pb).raw());
}
BENCHMARK(BM_MutualCapCap)->Unit(benchmark::kMicrosecond);

void BM_MutualCoilCoil(benchmark::State& state) {
  // n_rings scales the segment count; the Neumann sum is O(n1*n2).
  peec::BobbinCoilParams p;
  p.n_rings = static_cast<std::size_t>(state.range(0));
  const peec::ComponentFieldModel a = peec::bobbin_coil("A", p);
  const peec::ComponentFieldModel b = peec::bobbin_coil("B", p);
  const peec::CouplingExtractor ex;
  const peec::PlacedModel pa{&a, {{0, 0, 0}, 0.0}};
  const peec::PlacedModel pb{&b, {{30, 0, 0}, 0.0}};
  for (auto _ : state) benchmark::DoNotOptimize(ex.mutual(pa, pb).raw());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MutualCoilCoil)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_SelfInductanceCached(benchmark::State& state) {
  const peec::ComponentFieldModel coil = peec::bobbin_coil("A");
  const peec::CouplingExtractor ex;
  ex.self_inductance(coil).raw();  // warm the cache
  for (auto _ : state) benchmark::DoNotOptimize(ex.self_inductance(coil).raw());
}
BENCHMARK(BM_SelfInductanceCached);

void BM_FieldMap(benchmark::State& state) {
  const peec::ComponentFieldModel coil = peec::bobbin_coil("A");
  const peec::SegmentPath path = coil.path_at({});
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(peec::field_map(path, Millimeters{-30}, Millimeters{30}, Millimeters{-30}, Millimeters{30}, Millimeters{6.0}, n, n));
  }
}
BENCHMARK(BM_FieldMap)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_EmissionSweep(benchmark::State& state) {
  const flow::BuckConverter bc = flow::make_buck_converter();
  const peec::CouplingExtractor ex;
  const ckt::Circuit c =
      flow::circuit_with_couplings(bc, flow::layout_unfavorable(bc), ex);
  emc::EmissionSweepOptions opt;
  opt.n_points = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        emc::conducted_emission(c, bc.meas_node, bc.noise, opt));
  }
}
BENCHMARK(BM_EmissionSweep)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
