// Smoke battery for the large-scale scenario generator (scenario_large.hpp)
// under `ctest -L large`: determinism (seeded fingerprint and stage-prefix
// stability), DRC-clean-by-construction output, the segment-count floor the
// scaling benchmark relies on, and a capped-N end-to-end run of the
// extraction pipeline - exact vs clustered matrix, error bound, counters
// and the geometric prescreen - over the generated grid.
#include "src/flow/scenario_large.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/emi/sensitivity.hpp"
#include "src/peec/cluster_tree.hpp"
#include "src/place/drc.hpp"

namespace emi::flow {
namespace {

LargeScenarioOptions opts(std::size_t stages, std::uint64_t seed = 1) {
  LargeScenarioOptions o;
  o.n_stages = stages;
  o.seed = seed;
  return o;
}

peec::KernelOptions clustered(double theta) {
  peec::KernelOptions k;
  k.cluster = true;
  k.cluster_theta = theta;
  return k;
}

TEST(ScenarioLarge, FingerprintIsDeterministicPerSeed) {
  const LargeScenario a = make_large_scenario(opts(8, 7));
  const LargeScenario b = make_large_scenario(opts(8, 7));
  const LargeScenario c = make_large_scenario(opts(8, 8));
  EXPECT_EQ(layout_fingerprint(a), layout_fingerprint(b));
  EXPECT_NE(layout_fingerprint(a), layout_fingerprint(c));
}

TEST(ScenarioLarge, StagesArePrefixStable) {
  // Per-stage RNG streams are independent, so a capped-N scenario is a
  // prefix of the larger one - the property that lets the scaling bench
  // compare the same geometry at different N.
  const LargeScenario small = make_large_scenario(opts(4));
  const LargeScenario big = make_large_scenario(opts(16));
  ASSERT_LE(small.models.size(), big.models.size());
  for (std::size_t i = 0; i < small.models.size(); ++i) {
    EXPECT_EQ(peec::model_digest(small.models[i]),
              peec::model_digest(big.models[i]))
        << "model " << i;
    // Stage grids differ in column count, so compare poses only within the
    // shared first row.
    if (i < 2 * 2) {
      EXPECT_EQ(small.placed[i].pose.position.x, big.placed[i].pose.position.x);
    }
  }
}

TEST(ScenarioLarge, OutputIsDrcClean) {
  const LargeScenario s = make_large_scenario(opts(9));
  ASSERT_EQ(s.layout.placements.size(), s.board.components().size());
  for (const place::Placement& p : s.layout.placements) {
    EXPECT_TRUE(p.placed);
  }
  const place::DrcReport report = place::DrcEngine(s.board).check(s.layout);
  EXPECT_TRUE(report.clean()) << report.violations.size() << " violations";
}

TEST(ScenarioLarge, SixteenStagesClearTheThousandSegmentFloor) {
  const LargeScenario s = make_large_scenario(opts(16));
  EXPECT_GE(s.total_segments(), 1000u);
  EXPECT_EQ(s.models.size(), 32u);
  EXPECT_EQ(s.placed.size(), 32u);
  EXPECT_EQ(s.names.size(), 32u);
}

TEST(ScenarioLarge, RejectsDrcUnsafeOptions) {
  LargeScenarioOptions bad;
  bad.n_stages = 0;
  EXPECT_THROW(make_large_scenario(bad), std::invalid_argument);
  bad = LargeScenarioOptions{};
  bad.jitter = bad.pitch;  // far past the DRC margin
  EXPECT_THROW(make_large_scenario(bad), std::invalid_argument);
}

TEST(ScenarioLarge, CappedEndToEndExactVsClustered) {
  // Six stages (~390 segments): full clustered matrix extraction over the
  // grid, compared entry-by-entry against the exact matrix within the
  // per-pair documented bound, with cluster counters actually engaged, plus
  // the geometric prescreen running on the clustered extractor.
  const LargeScenario s = make_large_scenario(opts(6));
  const peec::QuadratureOptions quad{4, 2};
  const peec::CouplingExtractor exact(quad);
  const peec::CouplingExtractor clus(quad, clustered(4.0));

  const peec::KernelStats before = peec::kernel_stats();
  const std::vector<units::Henry> m_exact = exact.mutual_matrix(s.placed);
  const std::vector<units::Henry> m_clus = clus.mutual_matrix(s.placed);
  const peec::KernelStats after = peec::kernel_stats();
  EXPECT_GT(after.cluster_pairs, before.cluster_pairs);
  EXPECT_GT(after.cluster_skipped, before.cluster_skipped);

  const std::size_t n = s.placed.size();
  ASSERT_EQ(m_exact.size(), n * n);
  ASSERT_EQ(m_clus.size(), n * n);
  for (std::size_t i = 0; i < n; ++i) {
    // Self terms never cluster.
    EXPECT_EQ(m_exact[i * n + i].raw(), m_clus[i * n + i].raw());
    for (std::size_t j = i + 1; j < n; ++j) {
      // Symmetry survives clustering (canonicalization computes one key).
      EXPECT_EQ(m_clus[i * n + j].raw(), m_clus[j * n + i].raw());
      // The matrix entry carries the models' stray scaling; the air-side
      // error bound for this pair comes from the stats entry point.
      const peec::ClusteredMutual cm = peec::path_mutual_clustered_stats(
          s.placed[i].model->path_at(s.placed[i].pose),
          s.placed[j].model->path_at(s.placed[j].pose), quad, clustered(4.0));
      const double stray = s.placed[i].model->stray_scale *
                           s.placed[j].model->stray_scale;
      EXPECT_LE(std::fabs(m_clus[i * n + j].raw() - m_exact[i * n + j].raw()),
                stray * cm.error_bound + 1e-18)
          << "pair " << i << "," << j;
    }
  }

  // Every clustered entry is the per-pair mutual() value of a cold
  // extractor, bit for bit: the batch's shared first sides change no bits.
  const peec::CouplingExtractor per_call(quad, clustered(4.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(m_clus[i * n + j].raw(), per_call.mutual(s.placed[i], s.placed[j]).raw())
          << "pair " << i << "," << j;
    }
  }

  // The prescreen (the flow's batched probe call site) runs on the
  // clustered extractor and ranks every pair.
  const std::vector<emc::GeometricCoupling> ranked =
      emc::rank_geometric_coupling(clus, s.placed, s.names);
  EXPECT_EQ(ranked.size(), n * (n - 1) / 2);
}

}  // namespace
}  // namespace emi::flow
