// The extraction caches of CouplingExtractor: content-digest model identity,
// canonical-relative-pose mutual memoization, hit/miss accounting, and
// correctness of cached results against the raw PEEC kernels.
#include "src/peec/coupling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/peec/component_model.hpp"
#include "src/peec/partial_inductance.hpp"

namespace emi::peec {
namespace {

class MutualCacheTest : public ::testing::Test {
 protected:
  ComponentFieldModel ca_ = x_capacitor("CA");
  ComponentFieldModel cb_ = x_capacitor("CB");
  CouplingExtractor ex_;
};

TEST_F(MutualCacheTest, ModelDigestTracksContentNotAddress) {
  // Copies share a digest; mutating any cached-relevant field changes it.
  ComponentFieldModel copy = ca_;
  EXPECT_EQ(model_digest(ca_), model_digest(copy));
  copy.mu_eff = 10.0;
  EXPECT_NE(model_digest(ca_), model_digest(copy));
  ComponentFieldModel scaled = ca_;
  scaled.stray_scale = 0.5;
  EXPECT_NE(model_digest(ca_), model_digest(scaled));
  // Name is presentation, not field content: CA and CB share geometry.
  EXPECT_EQ(model_digest(ca_), model_digest(cb_));
}

TEST_F(MutualCacheTest, TranslatedPairHitsSameEntry) {
  const PlacedModel a0{&ca_, {{0.0, 0.0, 0.0}, 30.0}};
  const PlacedModel b0{&cb_, {{25.0, 4.0, 0.0}, 75.0}};
  const double m0 = ex_.mutual(a0, b0).raw();
  const ExtractionCacheStats after_first = ex_.cache_stats();
  EXPECT_EQ(after_first.mutual_misses, 1u);
  EXPECT_EQ(after_first.mutual_hits, 0u);

  // Rigid translation of the whole pair: same relative pose, cache hit,
  // bit-identical mutual.
  const PlacedModel a1{&ca_, {{-7.5, 113.25, 0.0}, 30.0}};
  const PlacedModel b1{&cb_, {{17.5, 117.25, 0.0}, 75.0}};
  const double m1 = ex_.mutual(a1, b1).raw();
  EXPECT_EQ(m0, m1);
  const ExtractionCacheStats after_second = ex_.cache_stats();
  EXPECT_EQ(after_second.mutual_misses, 1u);
  EXPECT_EQ(after_second.mutual_hits, 1u);
}

TEST_F(MutualCacheTest, SwappedArgumentsHitAndMatchExactly) {
  const PlacedModel a{&ca_, {{0.0, 0.0, 0.0}, 0.0}};
  const PlacedModel b{&cb_, {{22.0, 5.0, 0.0}, 30.0}};
  const double mab = ex_.mutual(a, b).raw();
  const double mba = ex_.mutual(b, a).raw();
  // Canonical pair ordering makes reciprocity exact, not just numerical.
  EXPECT_EQ(mab, mba);
  EXPECT_EQ(ex_.cache_stats().mutual_hits, 1u);
  EXPECT_EQ(ex_.cache_stats().mutual_misses, 1u);
}

TEST_F(MutualCacheTest, DifferentRelativePoseMisses) {
  const PlacedModel a{&ca_, {{0.0, 0.0, 0.0}, 0.0}};
  const PlacedModel near{&cb_, {{20.0, 0.0, 0.0}, 0.0}};
  const PlacedModel far{&cb_, {{40.0, 0.0, 0.0}, 0.0}};
  const double m_near = ex_.mutual(a, near).raw();
  const double m_far = ex_.mutual(a, far).raw();
  EXPECT_NE(m_near, m_far);
  EXPECT_EQ(ex_.cache_stats().mutual_misses, 2u);
  EXPECT_EQ(ex_.cache_stats().mutual_hits, 0u);
}

TEST_F(MutualCacheTest, QuadratureOptionsSeparateCachedValues) {
  QuadratureOptions coarse;
  coarse.order = 2;
  coarse.subdivisions = 1;
  const CouplingExtractor ex_coarse(coarse);
  const PlacedModel a{&ca_, {{0.0, 0.0, 0.0}, 0.0}};
  const PlacedModel b{&cb_, {{18.0, 3.0, 0.0}, 20.0}};
  const double m_fine = ex_.mutual(a, b).raw();
  const double m_coarse = ex_coarse.mutual(a, b).raw();
  // Different quadrature, different result - no cross-contamination, and
  // each extractor logged its own miss.
  EXPECT_NE(m_fine, m_coarse);
  EXPECT_EQ(ex_.cache_stats().mutual_misses, 1u);
  EXPECT_EQ(ex_coarse.cache_stats().mutual_misses, 1u);
}

TEST_F(MutualCacheTest, CachedMutualMatchesRawKernel) {
  const Pose pa{{3.0, -2.0, 0.0}, 40.0};
  const Pose pb{{29.0, 6.0, 0.0}, 130.0};
  const PlacedModel a{&ca_, pa};
  const PlacedModel b{&cb_, pb};
  const double cached = ex_.mutual(a, b).raw();
  const double raw =
      path_mutual(ca_.path_at(pa), cb_.path_at(pb), ex_.options());
  // The cached value is computed in the canonical relative frame; it must
  // agree with the world-frame kernel to rigid-motion-invariance accuracy.
  EXPECT_NEAR(cached, raw, std::fabs(raw) * 1e-9 + 1e-18);
  // And repeat calls return the first bits.
  EXPECT_EQ(ex_.mutual(a, b).raw(), cached);
}

TEST_F(MutualCacheTest, StrayScaleAppliedOutsideTheCache) {
  ComponentFieldModel scaled = cb_;
  scaled.stray_scale = 0.25;
  const PlacedModel a{&ca_, {{0.0, 0.0, 0.0}, 0.0}};
  const PlacedModel b{&cb_, {{24.0, 0.0, 0.0}, 0.0}};
  const PlacedModel bs{&scaled, {{24.0, 0.0, 0.0}, 0.0}};
  const double m = ex_.mutual(a, b).raw();
  const double ms = ex_.mutual(a, bs).raw();
  EXPECT_NEAR(ms, 0.25 * m, std::fabs(m) * 1e-12);
}

TEST_F(MutualCacheTest, SelfCacheCountsHitsAndSurvivesReallocation) {
  auto m1 = std::make_unique<ComponentFieldModel>(x_capacitor("M1"));
  const double l1 = ex_.self_inductance(*m1).raw();
  EXPECT_EQ(ex_.cache_stats().self_misses, 1u);
  EXPECT_EQ(ex_.self_inductance(*m1).raw(), l1);
  EXPECT_EQ(ex_.cache_stats().self_hits, 1u);

  // Destroy the model and allocate a different one. With address-based keys
  // the new model could alias the stale entry; content digests cannot.
  m1.reset();
  XCapacitorParams big;
  big.pin_pitch = Millimeters{37.5};
  auto m2 = std::make_unique<ComponentFieldModel>(x_capacitor("M2", big));
  const double l2 = ex_.self_inductance(*m2).raw();
  EXPECT_NE(l2, l1);
  EXPECT_NEAR(l2, CouplingExtractor(ex_.options()).self_inductance(*m2).raw(),
              std::fabs(l2) * 1e-12);
}

TEST_F(MutualCacheTest, EvictionKeepsNewestHalfAndMonotoneCounters) {
  // Cheapest possible extraction: single-segment trace models at order 1 /
  // no subdivision, so filling past the cap stays fast.
  QuadratureOptions tiny;
  tiny.order = 1;
  tiny.subdivisions = 1;
  const CouplingExtractor ex(tiny);
  const ComponentFieldModel ta = trace_model("TA", {0, 0, 0}, {10, 0, 0});
  const ComponentFieldModel tb = trace_model("TB", {0, 0, 0}, {8, 0, 0});
  const PlacedModel a{&ta, {{0.0, 0.0, 0.0}, 0.0}};

  const auto b_at = [&](std::size_t i) {
    // Distinct relative pose per index -> distinct cache key.
    return PlacedModel{&tb, {{20.0 + 0.125 * static_cast<double>(i), 0.0, 0.0}, 0.0}};
  };

  const std::size_t n = CouplingExtractor::kMutualCacheCap + 16;
  const double first = ex.mutual(a, b_at(0)).raw();
  for (std::size_t i = 1; i < n; ++i) (void)ex.mutual(a, b_at(i));
  const ExtractionCacheStats filled = ex.cache_stats();
  EXPECT_EQ(filled.mutual_misses, n);
  EXPECT_EQ(filled.mutual_hits, 0u);

  // The cap was crossed, so the oldest-inserted half is gone: the first key
  // misses again (and recomputes the same bits), while the newest key is
  // still resident and hits.
  EXPECT_EQ(ex.mutual(a, b_at(n - 1)).raw(), ex.mutual(a, b_at(n - 1)).raw());
  const ExtractionCacheStats newest = ex.cache_stats();
  EXPECT_EQ(newest.mutual_hits, 2u);
  EXPECT_EQ(newest.mutual_misses, n);

  EXPECT_EQ(ex.mutual(a, b_at(0)).raw(), first);
  const ExtractionCacheStats refetched = ex.cache_stats();
  EXPECT_EQ(refetched.mutual_misses, n + 1);
  // Counters are cumulative traffic, never reset by eviction.
  EXPECT_GE(refetched.mutual_misses, filled.mutual_misses);
  EXPECT_GE(refetched.mutual_hits, filled.mutual_hits);
}

// Batch values match per-call mutual() bit for bit, with the exact and the
// clustered kernel. Beyond the original three models, a hub (the smallest
// digest of four model kinds) is canonical-first in three pairs with
// different partners, so the batch's per-model first-side table is shared.
TEST_F(MutualCacheTest, BatchMatchesPerCallBitwise) {
  KernelOptions clustered;
  clustered.cluster = true;
  const ComponentFieldModel coil = bobbin_coil("L1");
  const ComponentFieldModel tant = tantalum_capacitor("C2");
  const ComponentFieldModel elko = electrolytic_capacitor("C3");
  std::vector<const ComponentFieldModel*> kinds = {&ca_, &coil, &tant, &elko};
  std::sort(kinds.begin(), kinds.end(),
            [](const ComponentFieldModel* a, const ComponentFieldModel* b) {
              return model_digest(*a) < model_digest(*b);
            });
  for (std::size_t k = 1; k < kinds.size(); ++k) {
    ASSERT_LT(model_digest(*kinds[0]), model_digest(*kinds[k]));
  }
  std::vector<PlacedModel> models = {
      {&ca_, {{0.0, 0.0, 0.0}, 0.0}},
      {&cb_, {{22.0, 5.0, 0.0}, 30.0}},
      {&coil, {{40.0, -6.0, 0.0}, 90.0}},
      {kinds[0], {{0.0, 40.0, 0.0}, 0.0}},  // the hub
      {kinds[1], {{30.0, 40.0, 0.0}, 45.0}},
      {kinds[2], {{0.0, 75.0, 0.0}, 0.0}},
      {kinds[3], {{-30.0, 45.0, 0.0}, 120.0}},
  };
  std::vector<std::pair<std::size_t, std::size_t>> pairs = {
      {0, 1}, {0, 2}, {1, 2}, {1, 0},  // swapped duplicate of {0,1}
      {0, 1},                          // literal duplicate
      {3, 4}, {3, 5}, {3, 6}, {4, 3},  // hub pairs; {4,3} duplicates {3,4}
  };
  for (const KernelOptions& kopt : {KernelOptions{}, clustered}) {
    const CouplingExtractor ex(QuadratureOptions{}, kopt);
    const std::vector<Henry> batch = ex.mutual_batch(models, pairs);
    ASSERT_EQ(batch.size(), pairs.size());

    const CouplingExtractor fresh(ex.options(), ex.kernel_options());
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      EXPECT_EQ(batch[p].raw(),
                fresh.mutual(models[pairs[p].first], models[pairs[p].second]).raw())
          << "pair " << p << ", cluster " << kopt.cluster;
    }
    // 6 unique canonical poses; the swapped and literal duplicates are hits.
    EXPECT_EQ(ex.cache_stats().mutual_misses, 6u);
    EXPECT_EQ(ex.cache_stats().mutual_hits, 3u);

    // Re-running the batch is all hits and returns the same bits.
    const std::vector<Henry> again = ex.mutual_batch(models, pairs);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      EXPECT_EQ(batch[p].raw(), again[p].raw());
    }
    EXPECT_EQ(ex.cache_stats().mutual_misses, 6u);
    EXPECT_EQ(ex.cache_stats().mutual_hits, 12u);
  }
}

TEST_F(MutualCacheTest, BatchValidatesInputs) {
  std::vector<PlacedModel> models = {{&ca_, {{0.0, 0.0, 0.0}, 0.0}}};
  const std::vector<std::pair<std::size_t, std::size_t>> oob = {{0, 1}};
  EXPECT_THROW((void)ex_.mutual_batch(models, oob), std::invalid_argument);
  models.push_back({nullptr, {{10.0, 0.0, 0.0}, 0.0}});
  const std::vector<std::pair<std::size_t, std::size_t>> null_pair = {{0, 1}};
  EXPECT_THROW((void)ex_.mutual_batch(models, null_pair), std::invalid_argument);
}

TEST_F(MutualCacheTest, MutualMatrixSymmetricWithSelfDiagonal) {
  const ComponentFieldModel coil = bobbin_coil("L1");
  const std::vector<PlacedModel> models = {
      {&ca_, {{0.0, 0.0, 0.0}, 0.0}},
      {&cb_, {{24.0, 3.0, 0.0}, 45.0}},
      {&coil, {{50.0, 10.0, 0.0}, 90.0}},
  };
  const std::size_t n = models.size();
  const std::vector<Henry> m = ex_.mutual_matrix(models);
  ASSERT_EQ(m.size(), n * n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(m[i * n + i].raw(), ex_.self_inductance(*models[i].model).raw());
    for (std::size_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(m[i * n + j].raw(), m[j * n + i].raw());
      EXPECT_EQ(m[i * n + j].raw(), ex_.mutual(models[i], models[j]).raw());
    }
  }
}

TEST_F(MutualCacheTest, KernelOptionsSeparateCachedValues) {
  KernelOptions fast;
  fast.analytic_parallel = true;
  fast.far_field = true;
  fast.far_field_ratio = 4.0;
  const CouplingExtractor ex_fast(QuadratureOptions{}, fast);
  // Far pair: the fast extractor reroutes it, the exact one does not; the
  // kernel gates are part of the key, so the two extractors never share
  // entries even for the same geometry.
  const PlacedModel a{&ca_, {{0.0, 0.0, 0.0}, 0.0}};
  const PlacedModel b{&cb_, {{180.0, 0.0, 0.0}, 0.0}};
  const double exact = ex_.mutual(a, b).raw();
  const double approx = ex_fast.mutual(a, b).raw();
  EXPECT_EQ(ex_.cache_stats().mutual_misses, 1u);
  EXPECT_EQ(ex_fast.cache_stats().mutual_misses, 1u);
  // Approximation is close (far-field bound) but not the same bits.
  EXPECT_NEAR(approx, exact, std::fabs(exact) * 0.1 + 1e-18);
}

}  // namespace
}  // namespace emi::peec
