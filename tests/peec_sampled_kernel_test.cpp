// Accuracy battery for the sampled pair kernel (sampled_path.hpp): it must
// reproduce the legacy nested quadrature bit for bit across geometry and
// quadrature sweeps, schedules and degenerate segments.
#include "src/peec/sampled_path.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/thread_pool.hpp"
#include "src/peec/component_model.hpp"
#include "src/peec/partial_inductance.hpp"

namespace emi::peec {
namespace {

Segment make_segment(const Vec3& a, const Vec3& b, double radius = 0.25,
                     double weight = 1.0) {
  return Segment{a, b, radius, weight};
}

TEST(SampledKernel, ExactMatchesLegacyBitwiseAcrossGeometry) {
  // Distance x angle x lateral offset x quadrature sweep: every combination
  // must agree with the legacy nested kernel to the last bit.
  for (double dist : {3.0, 8.0, 20.0, 60.0}) {
    for (double ang_deg : {0.0, 15.0, 45.0, 75.0, 90.0}) {
      for (double off : {0.0, 4.0}) {
        const double c = std::cos(ang_deg * geom::kPi / 180.0);
        const double s = std::sin(ang_deg * geom::kPi / 180.0);
        const Segment s1 = make_segment({0, 0, 0}, {10, 0, 0}, 0.2, 1.0);
        const Segment s2 = make_segment({dist, off, 1.0},
                                        {dist + 12 * c, off + 12 * s, 1.0}, 0.3, 0.8);
        for (std::size_t order : {1u, 2u, 4u, 6u, 8u}) {
          for (std::size_t sub : {1u, 2u, 3u}) {
            const QuadratureOptions q{order, sub};
            SegmentPath p1, p2;
            p1.segments = {s1};
            p2.segments = {s2};
            const SampledPath a = sample_path(p1, q);
            const SampledPath b = sample_path(p2, q);
            const double ref = mutual_neumann(s1, s2, q);
            const double got = sampled_mutual_exact(a, 0, b, 0);
            EXPECT_EQ(ref, got) << "dist=" << dist << " ang=" << ang_deg
                                << " off=" << off << " order=" << order
                                << " sub=" << sub;
          }
        }
      }
    }
  }
}

TEST(SampledKernel, PathMutualMatchesLegacyBitwise) {
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = bobbin_coil("B");
  const SegmentPath pa = ma.path_at({});
  const SegmentPath pb = mb.path_at(Pose{{30.0, 4.0, 0.0}, 25.0});
  for (std::size_t order : {2u, 4u, 6u}) {
    const QuadratureOptions q{order, 2};
    EXPECT_EQ(path_mutual_legacy(pa, pb, q), path_mutual(pa, pb, q))
        << "order=" << order;
  }
}

TEST(SampledKernel, SerialAndParallelSchedulesAgreeBitwise) {
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = bobbin_coil("B");
  const SegmentPath pa = ma.path_at({});
  const SegmentPath pb = mb.path_at(Pose{{25.0, -3.0, 0.0}, 70.0});
  const QuadratureOptions q{4, 2};
  const double parallel = path_mutual(pa, pb, q);
  double serial;
  {
    core::ScopedSerialFallback fallback;
    serial = path_mutual(pa, pb, q);
  }
  EXPECT_EQ(parallel, serial);
}

TEST(SampledKernel, DefaultOptionsNeverTakeFastPaths) {
  // Far-apart parallel pair: the sampled kernel returns the legacy kernel's
  // exact bits and tallies the pair as exact.
  const Segment s1 = make_segment({0, 0, 0}, {10, 0, 0});
  const Segment s2 = make_segment({0, 200.0, 0}, {10, 200.0, 0});
  const QuadratureOptions q{4, 2};
  SegmentPath p1, p2;
  p1.segments = {s1};
  p2.segments = {s2};
  const SampledPath a = sample_path(p1, q);
  const SampledPath b = sample_path(p2, q);

  const double ref = mutual_neumann(s1, s2, q);
  const KernelStats before = kernel_stats();
  const double got = sampled_mutual_exact(a, 0, b, 0);
  const KernelStats after = kernel_stats();
  EXPECT_EQ(got, ref);
  EXPECT_EQ(after.exact_pairs - before.exact_pairs, 1u);
}

TEST(SampledKernel, PathInductanceUnchangedBySampling) {
  // path_inductance runs on the sampled kernel too; it must match the
  // legacy double sum term by term.
  const ComponentFieldModel m = bobbin_coil("L");
  const SegmentPath p = m.path_at({});
  const QuadratureOptions q{4, 2};
  double ref = 0.0;
  const auto& segs = p.segments;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    double row = segs[i].weight * segs[i].weight * self_inductance(segs[i]);
    for (std::size_t j = i + 1; j < segs.size(); ++j) {
      row += 2.0 * segs[i].weight * segs[j].weight * mutual_neumann(segs[i], segs[j], q);
    }
    ref += row;
  }
  EXPECT_EQ(ref, path_inductance(p, q));
}

TEST(SampledKernel, ZeroLengthAndPerpendicularSegments) {
  const QuadratureOptions q{4, 2};
  // Perpendicular pair: essentially zero, and still bit-identical to legacy.
  const Segment s1 = make_segment({0, 0, 0}, {10, 0, 0});
  const Segment s2 = make_segment({5, 5, 0}, {5, 15, 0});
  SegmentPath p1, p2;
  p1.segments = {s1};
  p2.segments = {s2};
  SampledPath a = sample_path(p1, q);
  SampledPath b = sample_path(p2, q);
  EXPECT_EQ(mutual_neumann(s1, s2, q), sampled_mutual_exact(a, 0, b, 0));
  EXPECT_NEAR(sampled_mutual_exact(a, 0, b, 0), 0.0, 1e-15);

  // A zero-length segment contributes exactly zero.
  const Segment zero = make_segment({3, 3, 3}, {3, 3, 3});
  SegmentPath pz;
  pz.segments = {zero};
  const SampledPath z = sample_path(pz, q);
  EXPECT_EQ(0.0, sampled_mutual_exact(z, 0, b, 0));
}

TEST(SampledKernel, SampledPathLayoutInvariants) {
  const ComponentFieldModel m = bobbin_coil("L");
  const SegmentPath p = m.path_at(Pose{{12.0, -5.0, 0.0}, 40.0});
  const QuadratureOptions q{6, 2};
  const SampledPath sp = sample_path(p, q);
  ASSERT_EQ(sp.segment_count(), p.segments.size());
  EXPECT_EQ(sp.order, q.order);
  EXPECT_EQ(sp.n_sub, q.subdivisions);
  EXPECT_EQ(sp.samples_per_segment(), q.order * q.subdivisions);
  EXPECT_EQ(sp.px.size(), sp.segment_count() * sp.samples_per_segment());
  EXPECT_EQ(sp.half.size(), sp.segment_count() * sp.n_sub);
  for (std::size_t i = 0; i < sp.segment_count(); ++i) {
    EXPECT_EQ(sp.wgt[i], p.segments[i].weight);
  }
}

}  // namespace
}  // namespace emi::peec
