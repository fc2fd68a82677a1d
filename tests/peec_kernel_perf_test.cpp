// Fast perf smoke for the sampled kernel, counter-based so it is robust on
// loaded CI machines: the sampled kernel must not perform more integrand
// evaluations than the legacy nested kernel, and the fast-path configuration
// must (a) agree with the exact kernel within the documented bounds and
// (b) measurably cut the evaluation count on a realistic pair.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/flow/scenario_large.hpp"
#include "src/peec/cluster_tree.hpp"
#include "src/peec/component_model.hpp"
#include "src/peec/coupling.hpp"
#include "src/peec/partial_inductance.hpp"
#include "src/peec/sampled_path.hpp"

namespace emi::peec {
namespace {

struct KernelDelta {
  KernelStats before = kernel_stats();
  KernelStats sample() const {
    const KernelStats now = kernel_stats();
    return {now.sample_evals - before.sample_evals,
            now.exact_pairs - before.exact_pairs,
            now.analytic_pairs - before.analytic_pairs,
            now.far_field_pairs - before.far_field_pairs,
            now.cluster_pairs - before.cluster_pairs,
            now.cluster_skipped - before.cluster_skipped};
  }
};

TEST(KernelPerfSmoke, SampledDoesNoMoreWorkThanLegacy) {
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = bobbin_coil("B");
  const SegmentPath pa = ma.path_at({});
  const SegmentPath pb = mb.path_at(Pose{{30.0, 4.0, 0.0}, 25.0});
  const QuadratureOptions q{4, 2};

  KernelDelta legacy_delta;
  const double ref = path_mutual_legacy(pa, pb, q);
  const KernelStats legacy = legacy_delta.sample();

  KernelDelta sampled_delta;
  const double got = path_mutual(pa, pb, q);
  const KernelStats sampled = sampled_delta.sample();

  EXPECT_EQ(ref, got);
  ASSERT_GT(legacy.sample_evals, 0u);
  EXPECT_LE(sampled.sample_evals, legacy.sample_evals);
  EXPECT_EQ(sampled.exact_pairs, legacy.exact_pairs);
}

TEST(KernelPerfSmoke, FastPathsAgreeAndSkipEvaluations) {
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = bobbin_coil("B");
  const SegmentPath pa = ma.path_at({});
  // Far enough that the far-field gate admits most pairs at the default
  // ratio, near enough that the mutual is still well above zero.
  const SegmentPath pb = mb.path_at(Pose{{120.0, 10.0, 0.0}, 0.0});
  const QuadratureOptions q{4, 2};

  KernelDelta exact_delta;
  const double exact = path_mutual(pa, pb, q);
  const KernelStats exact_stats = exact_delta.sample();

  KernelOptions fast;
  fast.analytic_parallel = true;
  fast.far_field = true;
  KernelDelta fast_delta;
  const double approx = path_mutual(pa, pb, q, fast);
  const KernelStats fast_stats = fast_delta.sample();

  // Documented far-field bound at the default ratio 8: 1.5/64.
  ASSERT_NE(exact, 0.0);
  EXPECT_LT(std::fabs((approx - exact) / exact), 1.5 / 64.0);
  // The fast configuration must actually reroute pairs off the exact path.
  EXPECT_GT(fast_stats.analytic_pairs + fast_stats.far_field_pairs, 0u);
  EXPECT_LT(fast_stats.sample_evals, exact_stats.sample_evals);
  EXPECT_LT(fast_stats.exact_pairs, exact_stats.exact_pairs);
}

TEST(KernelPerfSmoke, ClusteredExtractionPopulatesCountersAndCutsWork) {
  // Two coils far apart: the root cluster pair is admitted outright, so the
  // clustered run must tally cluster traffic, skip (nearly) every exact
  // pair integral, and stay inside the documented theta bound.
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = bobbin_coil("B");
  const SegmentPath pa = ma.path_at({});
  const SegmentPath pb = mb.path_at(Pose{{150.0, 10.0, 0.0}, 0.0});
  const QuadratureOptions q{4, 2};

  KernelDelta exact_delta;
  const double exact = path_mutual(pa, pb, q);
  const KernelStats exact_stats = exact_delta.sample();

  KernelOptions copt;
  copt.cluster = true;
  copt.cluster_theta = 4.0;
  KernelDelta clus_delta;
  const ClusteredMutual clus = path_mutual_clustered_stats(pa, pb, q, copt);
  const KernelStats clus_stats = clus_delta.sample();

  // The KernelStats plumbing is what FlowResult profile counters surface;
  // both cluster counters must be populated by a clustered run.
  EXPECT_GT(clus_stats.cluster_pairs, 0u);
  EXPECT_GT(clus_stats.cluster_skipped, 0u);
  EXPECT_EQ(clus_stats.cluster_pairs, clus.cluster_pairs);
  EXPECT_EQ(clus_stats.cluster_skipped, clus.cluster_skipped);
  // Every covered pair is an exact integral not performed. Covered pairs
  // include the orthogonal ones the exact kernel would have skipped without
  // tallying, so the sum brackets between the baseline exact count and the
  // full double-sum pair count.
  EXPECT_GE(clus_stats.exact_pairs + clus_stats.cluster_skipped,
            exact_stats.exact_pairs);
  EXPECT_LE(clus_stats.exact_pairs + clus_stats.cluster_skipped,
            static_cast<std::uint64_t>(pa.segments.size()) *
                pb.segments.size());
  EXPECT_LT(clus_stats.sample_evals, exact_stats.sample_evals);
  EXPECT_LE(std::fabs(clus.value - exact), clus.error_bound);

  // An exact-by-default run never touches the cluster counters.
  KernelDelta default_delta;
  path_mutual(pa, pb, q);
  const KernelStats default_stats = default_delta.sample();
  EXPECT_EQ(default_stats.cluster_pairs, 0u);
  EXPECT_EQ(default_stats.cluster_skipped, 0u);
}

// Exact work-counter gate for clustered batch extraction: one cold
// mutual_matrix_clustered over the 16-stage large-scenario grid (32 models,
// 496 pairs). The counts are a pure function of the geometry, quadrature
// and kernel options - never of the host or the thread count - so they are
// pinned exactly. A change that moves one updates the value here and says
// why; a change that only reorganizes the work must leave them all alone.
TEST(KernelPerfGate, ClusteredMatrixOverSixteenStageGrid) {
  flow::LargeScenarioOptions opt;
  opt.n_stages = 16;
  const flow::LargeScenario s = flow::make_large_scenario(opt);
  KernelOptions kopt;
  kopt.cluster = true;
  const CouplingExtractor ex(QuadratureOptions{}, kopt);

  KernelDelta delta;
  const std::vector<units::Henry> m = ex.mutual_matrix_clustered(s.placed);
  const KernelStats k = delta.sample();
  ASSERT_EQ(m.size(), s.placed.size() * s.placed.size());

  EXPECT_EQ(k.exact_pairs, 70818u);
  EXPECT_EQ(k.sample_evals, 10197792u);
  EXPECT_EQ(k.cluster_pairs, 2262u);
  EXPECT_EQ(k.cluster_skipped, 442862u);
  const ExtractionCacheStats c = ex.cache_stats();
  EXPECT_EQ(c.mutual_misses, 496u);
  EXPECT_EQ(c.mutual_hits, 0u);
}

}  // namespace
}  // namespace emi::peec
