// Accuracy battery for the sampled pair kernel (sampled_path.hpp): it must
// reproduce the legacy nested quadrature bit for bit across geometry and
// quadrature sweeps, schedules and degenerate segments.
#include "src/peec/sampled_path.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/parallel.hpp"
#include "src/core/thread_pool.hpp"
#include "src/numeric/rng.hpp"
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

// path_mutual_sampled_many on a mixed batch - a large pair, both
// orientations of a large-small pair, a small pair, empty sides and a
// zero-length segment - against one path_mutual_sampled call per pair (and
// the independent legacy kernel): same bits and the same kernel tallies at
// 1, 2 and 4 lanes.
TEST(SampledKernel, BatchMatchesPerPairBitwiseAndTallies) {
  const QuadratureOptions q{6, 2};
  const SegmentPath coil = bobbin_coil("A").path_at({});
  const SegmentPath coil_far = bobbin_coil("B").path_at(Pose{{31.0, 4.0, 0.0}, 20.0});
  const SegmentPath cap = x_capacitor("C").path_at(Pose{{12.0, -6.0, 0.0}, 0.0});
  const SegmentPath cap_far = x_capacitor("D").path_at(Pose{{-9.0, 14.0, 0.0}, 35.0});
  SegmentPath cap_zero = cap_far;
  cap_zero.segments.push_back(make_segment({2, 2, 1}, {2, 2, 1}));
  ASSERT_EQ(coil.segments.size(), 60u);
  ASSERT_EQ(cap.segments.size(), 4u);
  const SampledPath s_coil = sample_path(coil, q);
  const SampledPath s_coil_far = sample_path(coil_far, q);
  const SampledPath s_cap = sample_path(cap, q);
  const SampledPath s_cap_far = sample_path(cap_far, q);
  const SampledPath s_cap_zero = sample_path(cap_zero, q);
  const SampledPath s_empty = sample_path(SegmentPath{}, q);
  const std::vector<std::pair<const SampledPath*, const SegmentPath*>> sides = {
      {&s_coil, &coil}, {&s_coil_far, &coil_far}, {&s_cap, &cap},
      {&s_cap_far, &cap_far}, {&s_cap_zero, &cap_zero}};
  const std::vector<std::pair<std::size_t, std::size_t>> shape = {
      {0, 1}, {2, 1}, {1, 2}, {2, 3}, {4, 0}, {0, 4}, {4, 3}};
  std::vector<const SampledPath*> a, b;
  std::vector<const SegmentPath*> pa, pb;
  for (const auto& [i, j] : shape) {
    a.push_back(sides[i].first);
    b.push_back(sides[j].first);
    pa.push_back(sides[i].second);
    pb.push_back(sides[j].second);
  }
  const SegmentPath empty;
  for (const bool first_empty : {true, false}) {  // empty first, empty second
    a.push_back(first_empty ? &s_empty : &s_coil);
    b.push_back(first_empty ? &s_coil : &s_empty);
    pa.push_back(first_empty ? &empty : &coil);
    pb.push_back(first_empty ? &coil : &empty);
  }

  const std::size_t lanes0 = core::ThreadPool::global_thread_count();
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    core::ThreadPool::set_global_thread_count(lanes);
    const KernelStats k0 = kernel_stats();
    std::vector<double> per_pair(a.size());
    for (std::size_t p = 0; p < a.size(); ++p) per_pair[p] = path_mutual_sampled(*a[p], *b[p]);
    const KernelStats k1 = kernel_stats();
    std::vector<double> batch(a.size(), -1.0);
    path_mutual_sampled_many(a, b, batch);
    const KernelStats k2 = kernel_stats();
    for (std::size_t p = 0; p < a.size(); ++p) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[p]),
                std::bit_cast<std::uint64_t>(per_pair[p]))
          << "pair " << p << " lanes " << lanes;
      EXPECT_EQ(batch[p], path_mutual_legacy(*pa[p], *pb[p], q)) << "pair " << p;
    }
    EXPECT_NE(batch[0], 0.0);
    EXPECT_EQ(batch[a.size() - 1], 0.0);
    EXPECT_EQ(batch[a.size() - 2], 0.0);
    EXPECT_EQ(k2.exact_pairs - k1.exact_pairs, k1.exact_pairs - k0.exact_pairs);
    EXPECT_EQ(k2.sample_evals - k1.sample_evals, k1.sample_evals - k0.sample_evals);
    EXPECT_GT(k2.exact_pairs - k1.exact_pairs, 3600u);
  }
  core::ThreadPool::set_global_thread_count(lanes0);

  // Mismatched span lengths are a caller mistake.
  std::vector<double> short_out(1);
  EXPECT_THROW(path_mutual_sampled_many(a, b, short_out), std::invalid_argument);
}

// Open zig-zag chain of n segments along +x with alternating weights.
SegmentPath zigzag(std::size_t n) {
  SegmentPath p;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = 3.0 * static_cast<double>(i);
    const double y = (i % 2 == 0) ? 0.0 : 2.0;
    p.segments.push_back(make_segment({x, y, 0.0}, {x + 3.0, 2.0 - y, 0.5}, 0.2,
                                      (i % 3 == 0) ? -1.0 : 2.0));
  }
  return p;
}

// path_inductance_sampled_many against one path_inductance call per path
// and the legacy term-by-term double sum: a coil, a capacitor loop, a
// one-segment path and chains of 15 and 16 segments (n^2 on both sides of
// kParallelPairThreshold), batched above the threshold and below it. Same
// bits and the same kernel tallies at 1, 2 and 4 lanes. A zero-length
// segment's self term throws in both.
TEST(SampledKernel, SelfBatchMatchesPathInductanceBitwiseAndTallies) {
  const QuadratureOptions q{6, 2};
  SegmentPath one;
  one.segments = {make_segment({0, 0, 0}, {7, 1, 0}, 0.3, 3.0)};
  const std::vector<SegmentPath> paths = {bobbin_coil("L").path_at({}),
                                          x_capacitor("C").path_at({}), one, zigzag(15),
                                          zigzag(16)};
  ASSERT_LT(15u * 15u, kParallelPairThreshold);
  ASSERT_GE(16u * 16u, kParallelPairThreshold);
  std::vector<double> legacy;
  std::vector<SampledPath> sampled;
  for (const SegmentPath& p : paths) {
    double ref = 0.0;
    const auto& segs = p.segments;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      double row = segs[i].weight * segs[i].weight * self_inductance(segs[i]);
      for (std::size_t j = i + 1; j < segs.size(); ++j) {
        row += 2.0 * segs[i].weight * segs[j].weight * mutual_neumann(segs[i], segs[j], q);
      }
      ref += row;
    }
    legacy.push_back(ref);
    sampled.push_back(sample_path(p, q));
  }
  std::vector<const SampledPath*> all;
  for (const SampledPath& sp : sampled) all.push_back(&sp);
  // Capacitor loop plus one segment: 17 segment pairs, a serial batch.
  const std::vector<const SampledPath*> small = {&sampled[1], &sampled[2]};

  const std::size_t lanes0 = core::ThreadPool::global_thread_count();
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    core::ThreadPool::set_global_thread_count(lanes);
    const KernelStats k0 = kernel_stats();
    std::vector<double> per_path;
    for (const SegmentPath& p : paths) per_path.push_back(path_inductance(p, q));
    const KernelStats k1 = kernel_stats();
    std::vector<double> batch(all.size(), -1.0);
    path_inductance_sampled_many(all, batch);
    const KernelStats k2 = kernel_stats();
    std::vector<double> small_batch(small.size(), -1.0);
    path_inductance_sampled_many(small, small_batch);
    for (std::size_t p = 0; p < paths.size(); ++p) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[p]),
                std::bit_cast<std::uint64_t>(per_path[p]))
          << "path " << p << " lanes " << lanes;
      EXPECT_EQ(batch[p], legacy[p]) << "path " << p;
    }
    EXPECT_EQ(small_batch[0], per_path[1]);
    EXPECT_EQ(small_batch[1], per_path[2]);
    EXPECT_EQ(k2.exact_pairs - k1.exact_pairs, k1.exact_pairs - k0.exact_pairs);
    EXPECT_EQ(k2.sample_evals - k1.sample_evals, k1.sample_evals - k0.sample_evals);
    EXPECT_GT(k2.exact_pairs - k1.exact_pairs, 1000u);
  }
  core::ThreadPool::set_global_thread_count(lanes0);

  SegmentPath with_zero = zigzag(16);
  with_zero.segments.push_back(make_segment({2, 2, 1}, {2, 2, 1}));
  const SampledPath zero_sampled = sample_path(with_zero, q);
  const std::vector<const SampledPath*> with_zero_batch = {&sampled[0], &zero_sampled};
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    core::ThreadPool::set_global_thread_count(lanes);
    EXPECT_THROW(path_inductance(with_zero, q), std::invalid_argument) << "lanes " << lanes;
    std::vector<double> out(2);
    EXPECT_THROW(path_inductance_sampled_many(with_zero_batch, out), std::invalid_argument)
        << "lanes " << lanes;
  }
  core::ThreadPool::set_global_thread_count(lanes0);
  std::vector<double> short_out(1);
  EXPECT_THROW(path_inductance_sampled_many(all, short_out), std::invalid_argument);
}

// `p` moved by `d`.
SegmentPath shifted(SegmentPath p, const Vec3& d) {
  for (Segment& seg : p.segments) {
    seg.a = seg.a + d;
    seg.b = seg.b + d;
  }
  return p;
}

// A closed path along x, y, z and oblique directions with a zero-length
// segment: every row mixes exact pairs with orthogonal and zero-length ones.
SegmentPath mixed_path() {
  const Vec3 pts[] = {{0, 0, 0}, {6, 0, 0},  {6, 5, 0},  {6, 5, 0},  {6, 5, 4},
                      {1, 7, 4}, {1, 7, 1},  {-3, 7, 1}, {-3, 2, 2}, {0, 0, 0}};
  SegmentPath p;
  for (std::size_t k = 0; k + 1 < std::size(pts); ++k) {
    p.segments.push_back(make_segment(pts[k], pts[k + 1], 0.2 + 0.05 * static_cast<double>(k % 3),
                                      (k % 2 == 0) ? 1.0 : -0.75));
  }
  return p;
}

// The legacy kernel's value and tallied sample evaluations (0 for a skipped
// pair) for every segment pair of `a` x `b`, row-major.
struct PairRef {
  std::vector<double> m;
  std::vector<std::uint64_t> evals;
};
PairRef legacy_pairs(const SegmentPath& a, const SegmentPath& b, const QuadratureOptions& q) {
  PairRef r;
  for (const Segment& sa : a.segments) {
    for (const Segment& sb : b.segments) {
      const KernelStats before = kernel_stats();
      r.m.push_back(mutual_neumann(sa, sb, q));
      r.evals.push_back(kernel_stats().sample_evals - before.sample_evals);
    }
  }
  return r;
}

// One row's result: value bits (or a throw) and its tally.
struct RowOut {
  double value = 0.0;
  bool threw = false;
  std::uint64_t exact_pairs = 0;
  std::uint64_t sample_evals = 0;
};

void expect_rows(const std::vector<RowOut>& got, const std::vector<RowOut>& want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].threw, want[i].threw) << what << " row " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
              std::bit_cast<std::uint64_t>(want[i].value))
        << what << " row " << i;
    EXPECT_EQ(got[i].exact_pairs, want[i].exact_pairs) << what << " row " << i;
    EXPECT_EQ(got[i].sample_evals, want[i].sample_evals) << what << " row " << i;
  }
}

// Each row form against a fold of per-pair mutual_neumann values in the
// reference order, bit for bit and with the same tallies: the self row
// (j > i) and sampled_mutual_row with none (the mutual row), all and a
// random half (a clustered remainder's row) of its pairs covered. Four
// geometries (coil, X capacitor, zig-zag chain, a path with orthogonal and
// zero-length segments) at four quadrature shapes, including 8 x 9 (72
// samples per segment), with the rows run in parallel at 1, 2 and 4 lanes,
// each with its own scratch.
TEST(SampledKernel, RowFormsMatchPerPairFoldsBitwiseAndTallies) {
  struct Geometry {
    const char* name;
    SegmentPath a, b;
  };
  const Geometry geometries[] = {
      {"coil", bobbin_coil("A").path_at({}), bobbin_coil("B").path_at(Pose{{30.0, 4.0, 0.0}, 25.0})},
      {"xcap", x_capacitor("C").path_at({}), x_capacitor("D").path_at(Pose{{12.0, -6.0, 0.0}, 35.0})},
      {"zigzag", zigzag(16), shifted(zigzag(11), {1.5, 6.0, 1.0})},
      {"mixed", mixed_path(), shifted(mixed_path(), {2.0, 9.0, -1.0})},
  };
  const QuadratureOptions shapes[] = {{4, 2}, {6, 2}, {3, 3}, {8, 9}};
  const std::size_t lanes0 = core::ThreadPool::global_thread_count();
  for (const Geometry& g : geometries) {
    const std::size_t n1 = g.a.segments.size();
    const std::size_t n2 = g.b.segments.size();
    // Coverage masks of the remainder rows: none, all, a random half.
    std::vector<unsigned char> all(n1 * n2, 1);
    std::vector<unsigned char> half(n1 * n2, 0);
    num::Rng rng(11);
    for (unsigned char& c : half) c = rng.uniform() < 0.5 ? 1 : 0;
    const std::pair<const char*, const unsigned char*> masks[] = {
        {"none", nullptr}, {"all", all.data()}, {"half", half.data()}};
    for (const QuadratureOptions& q : shapes) {
      const std::string tag = std::string(g.name) + " order " + std::to_string(q.order) +
                              " x " + std::to_string(q.subdivisions);
      const PairRef ab = legacy_pairs(g.a, g.b, q);
      const PairRef aa = legacy_pairs(g.a, g.a, q);
      const auto& sa = g.a.segments;
      const auto& sb = g.b.segments;
      std::vector<std::vector<RowOut>> want_rem;
      for (const auto& [mask_name, mask] : masks) {
        std::vector<RowOut> rows(n1);
        for (std::size_t i = 0; i < n1; ++i) {
          for (std::size_t j = 0; j < n2; ++j) {
            if (mask != nullptr && mask[i * n2 + j]) continue;
            rows[i].value += sa[i].weight * sb[j].weight * ab.m[i * n2 + j];
            if (ab.evals[i * n2 + j] != 0) ++rows[i].exact_pairs;
            rows[i].sample_evals += ab.evals[i * n2 + j];
          }
        }
        want_rem.push_back(std::move(rows));
      }
      std::vector<RowOut> want_self(n1);
      for (std::size_t i = 0; i < n1; ++i) {
        const double wi = sa[i].weight;
        try {
          want_self[i].value = wi * wi * self_inductance(sa[i]);
        } catch (const std::invalid_argument&) {
          want_self[i] = RowOut{0.0, true, 0, 0};
          continue;
        }
        for (std::size_t j = i + 1; j < n1; ++j) {
          want_self[i].value += 2.0 * wi * sa[j].weight * aa.m[i * n1 + j];
          if (aa.evals[i * n1 + j] != 0) ++want_self[i].exact_pairs;
          want_self[i].sample_evals += aa.evals[i * n1 + j];
        }
      }

      const SampledPath pa = sample_path(g.a, q);
      const SampledPath pb = sample_path(g.b, q);
      // Runs `row` for every row of `pa` in parallel; a throw is recorded.
      const auto run = [&](const auto& row) {
        std::vector<RowOut> out(n1);
        core::parallel_for(0, n1, [&](std::size_t i) {
          RowScratch scratch;
          detail::PairTally tally;
          try {
            out[i].value = row(i, scratch, tally);
          } catch (const std::invalid_argument&) {
            out[i].threw = true;
          }
          out[i].exact_pairs = tally.exact_pairs;
          out[i].sample_evals = tally.sample_evals;
        });
        return out;
      };
      for (const std::size_t lanes : {1u, 2u, 4u}) {
        core::ThreadPool::set_global_thread_count(lanes);
        const std::string at = tag + " lanes " + std::to_string(lanes);
        for (std::size_t k = 0; k < std::size(masks); ++k) {
          const unsigned char* mask = masks[k].second;
          expect_rows(run([&](std::size_t i, RowScratch& s, detail::PairTally& t) {
                        return sampled_mutual_row(pa, i, pb, mask ? mask + i * n2 : nullptr, s,
                                                  t);
                      }),
                      want_rem[k], at + " covered " + masks[k].first);
        }
        expect_rows(run([&](std::size_t i, RowScratch& s, detail::PairTally& t) {
                      return sampled_self_row(pa, i, s, t);
                    }),
                    want_self, at + " self");
      }
    }
  }
  core::ThreadPool::set_global_thread_count(lanes0);
}

}  // namespace
}  // namespace emi::peec
