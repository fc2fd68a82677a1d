// Battery for hierarchical far-field clustering (cluster_tree.hpp): tree
// invariants, equivalence of single-segment clusters with the per-pair
// far-field formula, bitwise equality with the exact kernel whenever
// clustering admits nothing, determinism across schedules, and the 500-seed
// fuzz sweep asserting the documented theta error bound against the order-8
// exact kernel.
#include "src/peec/cluster_tree.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/thread_pool.hpp"
#include "src/flow/scenario_large.hpp"
#include "src/numeric/rng.hpp"
#include "src/peec/component_model.hpp"
#include "src/peec/coupling.hpp"
#include "src/peec/partial_inductance.hpp"

namespace emi::peec {
namespace {

constexpr QuadratureOptions kRefQuad{8, 2};

KernelOptions clustered(double theta, std::size_t leaf = 4) {
  KernelOptions k;
  k.cluster = true;
  k.cluster_theta = theta;
  k.cluster_leaf_segments = leaf;
  return k;
}

// Random open chain of `n` segments taking 1..4 mm steps around `center`:
// compact enough that well-separated chain pairs admit cluster interactions
// at moderate theta.
SegmentPath random_chain(num::Rng& rng, const Vec3& center, std::size_t n) {
  SegmentPath p;
  Vec3 at{center.x + rng.uniform(-2.0, 2.0), center.y + rng.uniform(-2.0, 2.0),
          center.z + rng.uniform(-1.0, 1.0)};
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 step{rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0),
                    rng.uniform(-2.0, 2.0)};
    const Vec3 to{at.x + step.x, at.y + step.y, at.z + step.z};
    p.segments.push_back(Segment{at, to, 0.2, rng.uniform(0.5, 1.5)});
    at = to;
  }
  return p;
}

TEST(ClusterTree, BuildInvariants) {
  const ComponentFieldModel coil = bobbin_coil("A");
  const SegmentPath path = coil.path_at({});
  const SampledPath sp = sample_path(path, QuadratureOptions{4, 2});
  const std::size_t n = sp.segment_count();
  const std::size_t leaf_cap = 4;
  const ClusterTree tree = ClusterTree::build(sp, leaf_cap);
  ASSERT_FALSE(tree.empty());
  EXPECT_EQ(tree.root().begin, 0u);
  EXPECT_EQ(tree.root().end, n);

  // order() is a permutation of the segment indices.
  std::vector<char> seen(n, 0);
  for (const std::size_t i : tree.order()) {
    ASSERT_LT(i, n);
    EXPECT_EQ(seen[i], 0);
    seen[i] = 1;
  }

  for (const ClusterNode& node : tree.nodes()) {
    ASSERT_LT(node.begin, node.end);
    if (node.leaf()) {
      EXPECT_LE(node.count(), leaf_cap);
      EXPECT_LT(node.right, 0);
    } else {
      const ClusterNode& l = tree.nodes()[static_cast<std::size_t>(node.left)];
      const ClusterNode& r = tree.nodes()[static_cast<std::size_t>(node.right)];
      EXPECT_EQ(l.begin, node.begin);
      EXPECT_EQ(l.end, r.begin);
      EXPECT_EQ(r.end, node.end);
      // Moments and error mass aggregate over the same members, so parent
      // totals match child totals up to summation order.
      EXPECT_NEAR(node.abs_moment, l.abs_moment + r.abs_moment,
                  1e-9 * node.abs_moment);
      EXPECT_NEAR(node.mx, l.mx + r.mx, 1e-9 * (1.0 + std::fabs(node.mx)));
    }
    // The radius covers every member endpoint.
    for (std::size_t k = node.begin; k < node.end; ++k) {
      const std::size_t i = tree.order()[k];
      const double ex = sp.ax[i] + sp.dx[i] * sp.len[i];
      const double ey = sp.ay[i] + sp.dy[i] * sp.len[i];
      const double ez = sp.az[i] + sp.dz[i] * sp.len[i];
      const double da = std::sqrt((sp.ax[i] - node.cx) * (sp.ax[i] - node.cx) +
                                  (sp.ay[i] - node.cy) * (sp.ay[i] - node.cy) +
                                  (sp.az[i] - node.cz) * (sp.az[i] - node.cz));
      const double db = std::sqrt((ex - node.cx) * (ex - node.cx) +
                                  (ey - node.cy) * (ey - node.cy) +
                                  (ez - node.cz) * (ez - node.cz));
      EXPECT_LE(da, node.radius * (1.0 + 1e-12));
      EXPECT_LE(db, node.radius * (1.0 + 1e-12));
    }
  }
}

TEST(ClusterTree, BuildIsDeterministic) {
  const ComponentFieldModel coil = bobbin_coil("A");
  const SampledPath sp = sample_path(coil.path_at({}), QuadratureOptions{4, 2});
  const ClusterTree t1 = ClusterTree::build(sp, 4);
  const ClusterTree t2 = ClusterTree::build(sp, 4);
  ASSERT_EQ(t1.nodes().size(), t2.nodes().size());
  EXPECT_EQ(t1.order(), t2.order());
  for (std::size_t i = 0; i < t1.nodes().size(); ++i) {
    EXPECT_EQ(t1.nodes()[i].cx, t2.nodes()[i].cx);
    EXPECT_EQ(t1.nodes()[i].radius, t2.nodes()[i].radius);
    EXPECT_EQ(t1.nodes()[i].left, t2.nodes()[i].left);
  }
}

TEST(ClusterTree, SingleSegmentClustersReduceToFarFieldFormula) {
  // Two single-segment paths, leaf size 1: each tree is one node whose
  // moment is w*l*d and whose center is the midpoint, so an admitted pair
  // must reproduce the per-pair far-field dipole formula (weighted).
  const Segment s1{{0, 0, 0}, {10, 0, 0}, 0.2, 1.1};
  const Segment s2{{80, 3, 1}, {80, 15, 1}, 0.3, 0.8};
  SegmentPath p1, p2;
  p1.segments = {s1};
  p2.segments = {s2};
  const ClusteredMutual got =
      path_mutual_clustered_stats(p1, p2, kRefQuad, clustered(3.0, 1));
  ASSERT_EQ(got.cluster_pairs, 1u);
  EXPECT_EQ(got.cluster_skipped, 1u);

  const Vec3 m1 = s1.midpoint(), m2 = s2.midpoint();
  const Vec3 r{m2.x - m1.x, m2.y - m1.y, m2.z - m1.z};
  const double R = std::sqrt(r.x * r.x + r.y * r.y + r.z * r.z);
  const Vec3 d1 = s1.direction(), d2 = s2.direction();
  const double dot = d1.x * d2.x + d1.y * d2.y + d1.z * d2.z;
  const double expect = s1.weight * s2.weight * kMu0 /
                        (4.0 * geom::kPi) * dot * s1.length() * s2.length() /
                        R * kMmToM;
  EXPECT_NEAR(got.value, expect, 1e-12 * std::fabs(expect) + 1e-30);
  // And the realized error against order-8 exact stays within the bound.
  const double ref = path_mutual(p1, p2, kRefQuad);
  EXPECT_LE(std::fabs(got.value - ref), got.error_bound);
}

// The clustered entry point serves clustering only: with it off, both
// overloads refuse, as they do for theta < 2. The exact kernel is
// path_mutual.
TEST(ClusterTree, DisabledThrows) {
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = x_capacitor("B");
  const SegmentPath pa = ma.path_at({});
  const SegmentPath pb = mb.path_at(Pose{{35.0, -6.0, 0.0}, 40.0});
  KernelOptions off = clustered(4.0);
  off.cluster = false;
  for (const QuadratureOptions q : {QuadratureOptions{4, 2}, kRefQuad}) {
    EXPECT_THROW(path_mutual_clustered_stats(pa, pb, q, KernelOptions{}),
                 std::invalid_argument);
    EXPECT_THROW(path_mutual_clustered_stats(pa, pb, q, off), std::invalid_argument);
    EXPECT_THROW(path_mutual_clustered_stats(prepare_path(pa, q), pb, q, off),
                 std::invalid_argument);
  }
}

TEST(ClusterTree, HugeThetaAdmitsNothingAndMatchesExactBitwise) {
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = bobbin_coil("B");
  const SegmentPath pa = ma.path_at({});
  const SegmentPath pb = mb.path_at(Pose{{40.0, 8.0, 0.0}, 15.0});
  const QuadratureOptions q{4, 2};
  const ClusteredMutual got =
      path_mutual_clustered_stats(pa, pb, q, clustered(1e9));
  EXPECT_EQ(got.cluster_pairs, 0u);
  EXPECT_EQ(got.cluster_skipped, 0u);
  EXPECT_EQ(got.error_bound, 0.0);
  EXPECT_EQ(got.value, path_mutual(pa, pb, q));
}

TEST(ClusterTree, ThetaBelowTwoThrows) {
  SegmentPath p1, p2;
  p1.segments = {Segment{{0, 0, 0}, {5, 0, 0}}};
  p2.segments = {Segment{{30, 0, 0}, {35, 0, 0}}};
  EXPECT_THROW(path_mutual_clustered_stats(p1, p2, {}, clustered(1.5)),
               std::invalid_argument);
}

TEST(ClusterTree, ClusteredResultIsScheduleIndependent) {
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = bobbin_coil("B");
  const SegmentPath pa = ma.path_at({});
  const SegmentPath pb = mb.path_at(Pose{{60.0, 10.0, 0.0}, 30.0});
  const KernelOptions k = clustered(3.0);
  const QuadratureOptions q{4, 2};
  const ClusteredMutual pooled = path_mutual_clustered_stats(pa, pb, q, k);
  ASSERT_GT(pooled.cluster_pairs, 0u);
  ClusteredMutual serial;
  {
    core::ScopedSerialFallback fallback;
    serial = path_mutual_clustered_stats(pa, pb, q, k);
  }
  EXPECT_EQ(pooled.value, serial.value);
  EXPECT_EQ(pooled.error_bound, serial.error_bound);
  EXPECT_EQ(pooled.cluster_pairs, serial.cluster_pairs);
}

TEST(ClusterTree, CountersTallyClusterTraffic) {
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = bobbin_coil("B");
  const SegmentPath pa = ma.path_at({});
  const SegmentPath pb = mb.path_at(Pose{{70.0, 0.0, 0.0}, 0.0});
  const KernelStats before = kernel_stats();
  const ClusteredMutual got =
      path_mutual_clustered_stats(pa, pb, QuadratureOptions{4, 2},
                                  clustered(3.0));
  const KernelStats after = kernel_stats();
  ASSERT_GT(got.cluster_pairs, 0u);
  EXPECT_EQ(after.cluster_pairs - before.cluster_pairs, got.cluster_pairs);
  EXPECT_EQ(after.cluster_skipped - before.cluster_skipped,
            got.cluster_skipped);
  // Every segment pair was either covered by a cluster interaction or
  // handed to the exact remainder. The remainder - like the exact row
  // kernel - skips orthogonal pairs without tallying them, so the two
  // tallies bracket between the baseline exact-pair count and the full
  // double sum rather than hitting it exactly.
  const KernelStats base_before = kernel_stats();
  path_mutual(pa, pb, QuadratureOptions{4, 2});
  const KernelStats base_after = kernel_stats();
  const std::uint64_t baseline_exact =
      base_after.exact_pairs - base_before.exact_pairs;
  const std::size_t n1 = pa.segments.size(), n2 = pb.segments.size();
  const std::uint64_t tallied = (after.cluster_skipped -
                                 before.cluster_skipped) +
                                (after.exact_pairs - before.exact_pairs);
  EXPECT_GE(tallied, baseline_exact);
  EXPECT_LE(tallied, static_cast<std::uint64_t>(n1) * n2);
}

// The satellite fuzz battery: 500 randomized chain-pair layouts, clustered
// value vs order-8 exact, |error| within the accumulated documented bound,
// and the exact bits where nothing is admitted.
TEST(ClusterTree, FuzzErrorBoundAcross500Seeds) {
  std::uint64_t admitted_layouts = 0;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    num::Rng rng(seed);
    const std::size_t n1 = 2 + rng.below(5);
    const std::size_t n2 = 2 + rng.below(5);
    const double dist = rng.uniform(25.0, 120.0);
    const double az = rng.uniform(0.0, 2.0 * geom::kPi);
    const Vec3 cb{dist * std::cos(az), dist * std::sin(az),
                  rng.uniform(-5.0, 5.0)};
    const SegmentPath p1 = random_chain(rng, {0, 0, 0}, n1);
    const SegmentPath p2 = random_chain(rng, cb, n2);
    const double theta = rng.uniform(2.0, 8.0);

    const double ref = path_mutual(p1, p2, kRefQuad);
    const ClusteredMutual got =
        path_mutual_clustered_stats(p1, p2, kRefQuad, clustered(theta, 2));
    if (got.cluster_pairs > 0) {
      ++admitted_layouts;
      EXPECT_LE(std::fabs(got.value - ref), got.error_bound)
          << "seed=" << seed << " theta=" << theta;
    } else {
      EXPECT_EQ(got.value, ref) << "seed=" << seed;
      EXPECT_EQ(got.error_bound, 0.0);
    }
  }
  // The sweep must actually exercise admission, not just the fallback.
  EXPECT_GT(admitted_layouts, 100u);
}

TEST(ClusterTree, ExtractorKeysDoNotAliasAcrossClusterConfigs) {
  // Three extractors sharing one cache: exact, clustered, and clustered
  // with a different theta. Each must be served its own value - a key alias
  // would hand the later extractors the first one's bits.
  const auto cache = std::make_shared<ExtractionCache>();
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = bobbin_coil("B");
  const PlacedModel a{&ma, Pose{{0, 0, 0}, 0.0}};
  const PlacedModel b{&mb, Pose{{55.0, 5.0, 0.0}, 20.0}};
  const QuadratureOptions q{4, 2};

  const CouplingExtractor exact(q, KernelOptions{}, cache);
  const CouplingExtractor clus3(q, clustered(3.0), cache);
  const CouplingExtractor clus6(q, clustered(6.0), cache);
  const double m_exact = exact.mutual(a, b).raw();
  const double m_clus3 = clus3.mutual(a, b).raw();
  const double m_clus6 = clus6.mutual(a, b).raw();

  const CouplingExtractor fresh3(q, clustered(3.0));
  const CouplingExtractor fresh6(q, clustered(6.0));
  EXPECT_EQ(m_clus3, fresh3.mutual(a, b).raw());
  EXPECT_EQ(m_clus6, fresh6.mutual(a, b).raw());
  const CouplingExtractor fresh_exact(q);
  EXPECT_EQ(m_exact, fresh_exact.mutual(a, b).raw());
}

TEST(ClusterTree, MatrixClusteredWithDefaultOptionsIsMatrixBitwise) {
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = x_capacitor("B");
  const ComponentFieldModel mc = bobbin_coil("C");
  const std::vector<PlacedModel> models{
      {&ma, Pose{{0, 0, 0}, 0.0}},
      {&mb, Pose{{40.0, 0, 0}, 90.0}},
      {&mc, Pose{{0, 45.0, 0}, 10.0}},
  };
  // With clustering off the cluster knobs are inert: the matrix is the
  // exact one, bit for bit.
  KernelOptions off;
  off.cluster_theta = 3.0;
  off.cluster_leaf_segments = 2;
  const CouplingExtractor ex;
  const CouplingExtractor ex_off(QuadratureOptions{}, off);
  const std::vector<units::Henry> m1 = ex.mutual_matrix(models);
  const std::vector<units::Henry> m2 = ex_off.mutual_matrix(models);
  ASSERT_EQ(m1.size(), m2.size());
  for (std::size_t i = 0; i < m1.size(); ++i) {
    EXPECT_EQ(m1[i].raw(), m2[i].raw()) << "entry " << i;
  }
}

// The root gate at its boundary: chain B moved along +x to just past and
// just inside R = theta * (r_A + r_B) of the two root clusters. Past the
// gate the root pair is admitted outright - one cluster pair covering every
// segment pair, no exact pair; inside it the second side is sampled and the
// traversal recurses. Both results carry the bits recorded before the root
// test moved ahead of the second side's sampling, at 1, 2 and 4 lanes.
TEST(ClusterTree, RootGateBoundaryPairs) {
  const QuadratureOptions q{};
  const KernelOptions k = clustered(4.0);
  num::Rng rng(7);
  const PreparedPath a = prepare_path(random_chain(rng, {0.0, 0.0, 0.0}, 12), q, k);
  const SegmentPath b0 = random_chain(rng, {0.0, 0.0, 0.0}, 10);
  const auto shifted = [&](double dx) {
    SegmentPath p = b0;
    for (Segment& seg : p.segments) {
      seg.a.x += dx;
      seg.b.x += dx;
    }
    return p;
  };
  const ClusterNode& ra = a.tree.root();
  const ClusterNode rb = prepare_path(b0, q, k).tree.root();
  const double gate = 4.0 * (ra.radius + rb.radius);
  const double ox = rb.cx - ra.cx;
  const double oy = rb.cy - ra.cy;
  const double oz = rb.cz - ra.cz;
  const double d_gate = -ox + std::sqrt(gate * gate - oy * oy - oz * oz);
  ASSERT_GT(d_gate, 0.0);

  struct Case {
    double scale;
    std::uint64_t value_bits, bound_bits, cluster_pairs, cluster_skipped, exact_pairs;
  };
  const std::size_t n = b0.segments.size() * 12;
  const Case cases[] = {
      {1.0 + 1e-9, 0xbdbf1321c8c491bdull, 0x3e31830f32e9ef37ull, 1u, 120u, 0u},
      {1.0 - 1e-9, 0xbdb8b3d1fbf9ec1cull, 0x3e31896895ae749eull, 2u, 120u, 0u},
  };
  const std::size_t lanes0 = core::ThreadPool::global_thread_count();
  for (const Case& c : cases) {
    const SegmentPath pb = shifted(d_gate * c.scale);
    for (const std::size_t lanes : {1u, 2u, 4u}) {
      core::ThreadPool::set_global_thread_count(lanes);
      const KernelStats before = kernel_stats();
      const ClusteredMutual got = path_mutual_clustered_stats(a, pb, q, k);
      const KernelStats after = kernel_stats();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value), c.value_bits)
          << "scale " << c.scale << " lanes " << lanes;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.error_bound), c.bound_bits);
      EXPECT_EQ(got.cluster_pairs, c.cluster_pairs);
      EXPECT_EQ(got.cluster_skipped, c.cluster_skipped);
      const std::uint64_t exact = after.exact_pairs - before.exact_pairs;
      EXPECT_EQ(exact, c.exact_pairs);
      if (c.scale > 1.0) {  // the root pair alone covers every segment pair
        EXPECT_EQ(got.cluster_pairs, 1u);
        EXPECT_EQ(got.cluster_skipped, n);
        EXPECT_EQ(exact, 0u);
      } else {
        EXPECT_GT(got.cluster_pairs, 1u);
      }
    }
  }
  core::ThreadPool::set_global_thread_count(lanes0);
}


// Two pairs of the 16-stage grid (seed 1) that the root gate does not
// admit, so their value comes from the traversal plus the exact remainder:
// a stage's X capacitor against its own coil (nothing admitted, every pair
// exact) and two coils of neighbouring stages (admitted clusters and a
// partly covered remainder). Value, bound and counters were recorded before
// the remainder moved onto the row kernel; they hold at 1, 2 and 4 lanes.
TEST(ClusterTree, RemainderPairsOfTheSixteenStageGrid) {
  flow::LargeScenarioOptions opt;
  opt.n_stages = 16;
  opt.seed = 1;
  const flow::LargeScenario s = flow::make_large_scenario(opt);
  const KernelOptions k = clustered(4.0);
  struct Case {
    const char* a;
    const char* b;
    std::uint64_t value_bits, bound_bits, cluster_pairs, cluster_skipped, exact_pairs,
        sample_evals;
  };
  const Case cases[] = {
      {"CX3", "LF3", 0x3e4d83e691c8b752ull, 0x0ull, 0u, 0u, 240u, 34560u},
      {"LF1", "LF2", 0xbe6e9de65a829ea4ull, 0x3ecf5ced3d22504full, 65u, 1540u, 1736u, 249984u},
  };
  const auto path_of = [&](const char* name) {
    for (std::size_t m = 0; m < s.names.size(); ++m) {
      if (s.names[m] == name) return s.placed[m].model->path_at(s.placed[m].pose);
    }
    ADD_FAILURE() << "no model " << name;
    return SegmentPath{};
  };
  const std::size_t lanes0 = core::ThreadPool::global_thread_count();
  for (const Case& c : cases) {
    const SegmentPath pa = path_of(c.a);
    const SegmentPath pb = path_of(c.b);
    for (const std::size_t lanes : {1u, 2u, 4u}) {
      core::ThreadPool::set_global_thread_count(lanes);
      const KernelStats before = kernel_stats();
      const ClusteredMutual got = path_mutual_clustered_stats(pa, pb, QuadratureOptions{}, k);
      const KernelStats after = kernel_stats();
      const std::string at = std::string(c.a) + "-" + c.b + " lanes " + std::to_string(lanes);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value), c.value_bits) << at;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.error_bound), c.bound_bits) << at;
      EXPECT_EQ(got.cluster_pairs, c.cluster_pairs) << at;
      EXPECT_EQ(got.cluster_skipped, c.cluster_skipped) << at;
      EXPECT_EQ(after.exact_pairs - before.exact_pairs, c.exact_pairs) << at;
      EXPECT_EQ(after.sample_evals - before.sample_evals, c.sample_evals) << at;
    }
  }
  core::ThreadPool::set_global_thread_count(lanes0);
}

}  // namespace
}  // namespace emi::peec
