// The extraction caches of CouplingExtractor: content-digest model identity,
// canonical-relative-pose mutual memoization, hit/miss accounting, and
// correctness of cached results against the raw PEEC kernels.
#include "src/peec/coupling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/deadline.hpp"
#include "src/core/fault_injection.hpp"
#include "src/core/thread_pool.hpp"
#include "src/flow/scenario_large.hpp"
#include "src/peec/component_model.hpp"
#include "src/peec/extraction_cache.hpp"
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

// coupling_batch's self terms against one self_inductance call per lookup
// on a fresh extractor: the same bits, the same self hits and misses and the
// same cache fault draws, with models looked up more than once (the same
// object and a copy sharing its digest), at 1, 2 and 4 lanes, with no fault
// armed and with every cache lookup forced to miss. The batch looks up both
// self terms of each pair in pair order, so the per-call reference is
// self(a), self(b) and mutual(a, b) per pair, and each k is their ratio.
TEST(SelfBatch, MatchesPerCallLookupsBitwiseWithSameCounts) {
  struct Disarm {
    ~Disarm() {
      core::FaultInjector::instance().disarm();
      core::ThreadPool::set_global_thread_count(core::ThreadPool::default_thread_count());
    }
  } disarm;
  const ComponentFieldModel coil = bobbin_coil("L1");
  const ComponentFieldModel coil_copy = bobbin_coil("L2");
  const ComponentFieldModel cap = x_capacitor("C");
  const ComponentFieldModel trace = trace_model("T", {0.0, 0.0, 0.0}, {20.0, 0.0, 0.0});
  const ComponentFieldModel choke = cm_choke("CM");
  const std::vector<PlacedModel> models = {{&coil, {}},
                                           {&cap, {{30.0, 0.0, 0.0}, 0.0}},
                                           {&coil_copy, {{5.0, 40.0, 0.0}, 30.0}},
                                           {&trace, {{-40.0, 10.0, 0.0}, 0.0}},
                                           {&choke, {{0.0, -45.0, 0.0}, 0.0}}};
  // Self lookups 0, 1, 2, 0, 3, 1, 4, 2, 4, 3.
  const std::vector<IndexPair> pairs = {{0, 1}, {2, 0}, {3, 1}, {4, 2}, {4, 3}};
  std::vector<std::size_t> lookups;
  for (const auto& [a, b] : pairs) {
    lookups.push_back(a);
    lookups.push_back(b);
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  auto& inj = core::FaultInjector::instance();
  for (const bool armed : {false, true}) {
    for (const std::size_t lanes : {1u, 2u, 4u}) {
      core::ThreadPool::set_global_thread_count(lanes);
      if (armed) inj.configure(core::FaultSite::kCache, 1.0, 5);
      const CouplingExtractor seq;
      std::vector<Henry> want;
      std::vector<double> want_k;
      for (const auto& [a, b] : pairs) {
        const Henry la = seq.self_inductance(*models[a].model);
        const Henry lb = seq.self_inductance(*models[b].model);
        want.push_back(la);
        want.push_back(lb);
        want_k.push_back(coupling_ratio(seq.mutual(models[a], models[b]), la, lb));
      }
      const std::uint64_t fired_seq = inj.fired(core::FaultSite::kCache);
      if (armed) inj.configure(core::FaultSite::kCache, 1.0, 5);  // resets the count
      const CouplingExtractor batch;
      const std::vector<double> got = batch.coupling_batch(models, pairs);
      EXPECT_EQ(inj.fired(core::FaultSite::kCache), fired_seq);
      ASSERT_EQ(got.size(), want_k.size());
      for (std::size_t p = 0; p < got.size(); ++p) {
        EXPECT_EQ(bits(got[p]), bits(want_k[p]))
            << "pair " << p << " lanes " << lanes << " armed " << armed;
      }
      const ExtractionCacheStats cs = seq.cache_stats();
      const ExtractionCacheStats cb = batch.cache_stats();
      EXPECT_EQ(cb.self_hits, cs.self_hits);
      EXPECT_EQ(cb.self_misses, cs.self_misses);
      EXPECT_EQ(cb.mutual_hits, cs.mutual_hits);
      EXPECT_EQ(cb.mutual_misses, cs.mutual_misses);
      // Four distinct digests (the coil and its copy share one).
      EXPECT_EQ(cs.self_misses, armed ? lookups.size() : 4u);
      if (armed) {
        // One draw per self lookup and one per mutual key.
        EXPECT_EQ(fired_seq, lookups.size() + pairs.size());
        inj.disarm();
      }
      // A second batch on the warm extractor is all hits, and every self
      // term the first one stored carries the per-call bits.
      const std::vector<double> warm = batch.coupling_batch(models, pairs);
      EXPECT_EQ(batch.cache_stats().self_hits, cb.self_hits + lookups.size());
      for (std::size_t p = 0; p < warm.size(); ++p) EXPECT_EQ(bits(warm[p]), bits(want_k[p]));
      for (std::size_t t = 0; t < lookups.size(); ++t) {
        EXPECT_EQ(bits(batch.self_inductance(*models[lookups[t]].model).raw()),
                  bits(want[t].raw()))
            << "lookup " << t << " lanes " << lanes << " armed " << armed;
      }
    }
  }
  const CouplingExtractor ex;
  const std::vector<IndexPair> out_of_range = {{0, 5}};
  EXPECT_THROW((void)ex.coupling_batch(models, out_of_range), std::invalid_argument);
  const std::vector<PlacedModel> with_null = {{&coil, {}}, {nullptr, {}}};
  const std::vector<IndexPair> first = {{0, 1}};
  EXPECT_THROW((void)ex.coupling_batch(with_null, first), std::invalid_argument);
}

// A mutual batch stopped while its rows run returns 0 for every miss it did
// not finish and the cached value for a hit, never a torn partial sum, and
// stores nothing torn: a rerun on the same cache gives a cold extractor's
// bits. The token is raised from a watcher thread once the batch has run
// part of its rows (24 coil pairs of 3,600 segment pairs each), at 1 and 4
// lanes.
TEST(MutualBatchStop, UnfinishedMissesReturnTheZeroSentinel) {
  const ComponentFieldModel coil_a = bobbin_coil("L1");
  const ComponentFieldModel coil_b = bobbin_coil("L2");
  std::vector<PlacedModel> models = {{&coil_a, {}}};
  std::vector<IndexPair> pairs;
  for (std::size_t i = 0; i < 24; ++i) {
    const double x = 30.0 + 4.0 * static_cast<double>(i);
    models.push_back({&coil_b, {{x, 12.0, 0.0}, 15.0 * static_cast<double>(i)}});
    pairs.emplace_back(0, models.size() - 1);
  }
  const auto bits = [](Henry h) { return std::bit_cast<std::uint64_t>(h.raw()); };
  const std::vector<Henry> cold = CouplingExtractor().mutual_batch(models, pairs);
  const std::size_t lanes0 = core::ThreadPool::global_thread_count();
  for (const std::size_t lanes : {1u, 4u}) {
    core::ThreadPool::set_global_thread_count(lanes);
    const auto cache = std::make_shared<ExtractionCache>();
    const CouplingExtractor shared({}, {}, cache);
    (void)shared.mutual(models[0], models[1]);  // pair 0 becomes a hit

    core::CancelToken token;
    const std::uint64_t start = kernel_stats().exact_pairs;
    std::atomic<bool> done{false};
    std::thread watcher([&] {
      while (!done.load()) {
        if (kernel_stats().exact_pairs - start >= 1500) {
          token.request_cancel();
          return;
        }
        std::this_thread::yield();
      }
    });
    std::vector<Henry> got;
    bool stopped = false;
    {
      core::CancelScope scope(core::Deadline::unlimited(), &token);
      got = shared.mutual_batch(models, pairs);
      stopped = scope.should_stop();
    }
    done.store(true);
    watcher.join();
    ASSERT_TRUE(stopped) << "lanes " << lanes;
    ASSERT_EQ(got.size(), pairs.size());
    EXPECT_EQ(bits(got[0]), bits(cold[0])) << "the hit, lanes " << lanes;
    // The exact misses finish together or not at all.
    std::size_t zeros = 0;
    for (std::size_t p = 1; p < pairs.size(); ++p) {
      EXPECT_TRUE(got[p].raw() == 0.0 || bits(got[p]) == bits(cold[p]))
          << "pair " << p << " lanes " << lanes << ": neither the sentinel nor the value";
      if (got[p].raw() == 0.0) ++zeros;
    }
    EXPECT_TRUE(zeros == 0 || zeros == pairs.size() - 1) << "lanes " << lanes;

    const std::vector<Henry> rerun = shared.mutual_batch(models, pairs);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      EXPECT_EQ(bits(rerun[p]), bits(cold[p])) << "rerun pair " << p << " lanes " << lanes;
    }
  }
  core::ThreadPool::set_global_thread_count(lanes0);
}

// The clustered twin: one task per miss, so a stop in the middle of the
// region leaves each miss either finished (its value, stored) or the zero
// sentinel (not stored). The token raises itself at its 120th check, at 1
// and 4 lanes. Before the miss region the batch checks it 37 to 68 times
// (two polls, four canonicalization chunks, then each of the 31 first sides'
// chunk and, on the submitting lane, its task poll); the region checks it at
// least once per chunk of four misses (124 chunks), and twice more per miss
// run on the submitting lane. So the stop lands inside the region on any
// schedule, which the test asserts. A rerun on the same cache computes
// exactly the unfinished misses and gives a cold extractor's bits.
TEST(MutualBatchStop, ClusteredMissesStopPerPairOverSixteenStageBoard) {
  flow::LargeScenarioOptions opt;
  opt.n_stages = 16;
  const flow::LargeScenario s = flow::make_large_scenario(opt);
  KernelOptions kopt;
  kopt.cluster = true;
  std::vector<IndexPair> pairs;
  for (std::size_t i = 0; i < s.placed.size(); ++i) {
    for (std::size_t j = i + 1; j < s.placed.size(); ++j) pairs.emplace_back(i, j);
  }
  const auto bits = [](Henry h) { return std::bit_cast<std::uint64_t>(h.raw()); };
  const std::vector<Henry> cold = CouplingExtractor({}, kopt).mutual_batch(s.placed, pairs);
  const std::size_t lanes0 = core::ThreadPool::global_thread_count();
  for (const std::size_t lanes : {1u, 4u}) {
    core::ThreadPool::set_global_thread_count(lanes);
    const CouplingExtractor shared({}, kopt, std::make_shared<ExtractionCache>());
    (void)shared.mutual(s.placed[0], s.placed[1]);  // pair 0 becomes a hit

    core::CancelToken token;
    token.request_cancel_at_check(120);
    std::vector<Henry> got;
    bool stopped = false;
    {
      core::CancelScope scope(core::Deadline::unlimited(), &token);
      got = shared.mutual_batch(s.placed, pairs);
      stopped = scope.should_stop();
    }
    ASSERT_TRUE(stopped) << "lanes " << lanes;
    ASSERT_EQ(got.size(), pairs.size());
    EXPECT_EQ(bits(got[0]), bits(cold[0])) << "the hit, lanes " << lanes;
    // Far pairs whose roots are admitted against a closed loop's zero
    // moment are exactly 0 when finished too, so a 0 is unfinished for
    // certain only where the cold value is not.
    std::uint64_t zeros = 0;
    std::uint64_t unfinished = 0;
    for (std::size_t p = 1; p < pairs.size(); ++p) {
      EXPECT_TRUE(got[p].raw() == 0.0 || bits(got[p]) == bits(cold[p]))
          << "pair " << p << " lanes " << lanes << ": neither the sentinel nor the value";
      if (got[p].raw() != 0.0) continue;
      ++zeros;
      if (cold[p].raw() != 0.0) ++unfinished;
    }
    // The stop landed inside the region: some misses finished, some not.
    EXPECT_LT(zeros, pairs.size() - 1) << "lanes " << lanes;
    EXPECT_GT(unfinished, 0u) << "lanes " << lanes;

    // Every finished miss was stored whole and no unfinished one: the rerun
    // computes at least the certain sentinels and at most every 0.
    const ExtractionCacheStats before = shared.cache_stats();
    const std::vector<Henry> rerun = shared.mutual_batch(s.placed, pairs);
    const ExtractionCacheStats after = shared.cache_stats();
    const std::uint64_t recomputed = after.mutual_misses - before.mutual_misses;
    EXPECT_GE(recomputed, unfinished) << "lanes " << lanes;
    EXPECT_LE(recomputed, zeros) << "lanes " << lanes;
    EXPECT_EQ(after.mutual_hits - before.mutual_hits, pairs.size() - recomputed)
        << "lanes " << lanes;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      EXPECT_EQ(bits(rerun[p]), bits(cold[p])) << "rerun pair " << p << " lanes " << lanes;
    }
  }
  core::ThreadPool::set_global_thread_count(lanes0);
}

// The 16-stage board's clustered mutual_matrix at 1, 2 and 4 lanes, each on
// a cold session tier over its own shared tier, then again on a fresh
// session tier over that warm shared tier: every entry keeps the 1-lane
// bits, and the hit and miss counts are exact (every self term and pair
// computed once, then all served by the shared tier).
TEST(MutualBatchLanes, ClusteredMatrixOverSixteenStageBoardKeepsBitsAndCounts) {
  flow::LargeScenarioOptions opt;
  opt.n_stages = 16;
  const flow::LargeScenario s = flow::make_large_scenario(opt);
  const std::size_t n = s.placed.size();
  const std::uint64_t n_pairs = n * (n - 1) / 2;
  KernelOptions kopt;
  kopt.cluster = true;
  const auto bits = [](const std::vector<Henry>& m) {
    std::vector<std::uint64_t> b(m.size());
    for (std::size_t i = 0; i < m.size(); ++i) b[i] = std::bit_cast<std::uint64_t>(m[i].raw());
    return b;
  };
  const std::size_t lanes0 = core::ThreadPool::global_thread_count();
  std::vector<std::uint64_t> want;
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    core::ThreadPool::set_global_thread_count(lanes);
    const auto global = std::make_shared<ExtractionCache>();
    const CouplingExtractor cold({}, kopt, std::make_shared<ExtractionCache>(global));
    const std::vector<std::uint64_t> got = bits(cold.mutual_matrix(s.placed));
    if (want.empty()) want = got;
    EXPECT_EQ(got, want) << "cold, lanes " << lanes;
    const ExtractionCacheStats c = cold.cache_stats();
    EXPECT_EQ(c.self_misses, n) << "lanes " << lanes;
    EXPECT_EQ(c.self_hits, 0u) << "lanes " << lanes;
    EXPECT_EQ(c.mutual_misses, n_pairs) << "lanes " << lanes;
    EXPECT_EQ(c.mutual_hits, 0u) << "lanes " << lanes;

    const CouplingExtractor warm({}, kopt, std::make_shared<ExtractionCache>(global));
    EXPECT_EQ(bits(warm.mutual_matrix(s.placed)), want) << "warm, lanes " << lanes;
    const ExtractionCacheStats w = warm.cache_stats();
    EXPECT_EQ(w.self_misses, 0u) << "lanes " << lanes;
    EXPECT_EQ(w.self_hits, n) << "lanes " << lanes;
    EXPECT_EQ(w.mutual_misses, 0u) << "lanes " << lanes;
    EXPECT_EQ(w.mutual_hits, n_pairs) << "lanes " << lanes;
    const CacheTierStats g = global->stats();
    EXPECT_EQ(g.mutual_hits, n_pairs) << "lanes " << lanes;
    EXPECT_EQ(g.mutual_misses, n_pairs) << "lanes " << lanes;
  }
  core::ThreadPool::set_global_thread_count(lanes0);
}

// The cache fault site keys its draws on the byte-wise FNV-1a of a mutual
// key. Both values were recorded when that hash was also the maps' hash, so
// injected-miss patterns stay where they were. The maps' word-wise hash
// sees every field: flipping a field's top bit moves it.
TEST(MutualKeyHash, FaultKeyKeepsItsBitsAndMapHashSeesEveryField) {
  const MutualCacheKey a{1, 2, 3, 4, 5, 6, 7, 8, 9};
  const MutualCacheKey b{0x9e3779b97f4a7c15ull, 0xc2b2ae3d27d4eb4full, 0x4044000000000000ull,
                         0xc010000000000000ull, 0, 0x4039000000000000ull, (6ull << 32) | 2,
                         4, 0x165667b19e3779f9ull};
  EXPECT_EQ(mutual_key_fault_hash(a), 0x60b3e1fa9c9c0ca4ull);
  EXPECT_EQ(mutual_key_fault_hash(b), 0x7ef4fd9db50114beull);
  std::uint64_t MutualCacheKey::*const fields[] = {
      &MutualCacheKey::digest_lo, &MutualCacheKey::digest_hi, &MutualCacheKey::tx,
      &MutualCacheKey::ty,        &MutualCacheKey::tz,        &MutualCacheKey::rot,
      &MutualCacheKey::quad,      &MutualCacheKey::kern,      &MutualCacheKey::kern_cluster};
  for (const MutualCacheKey& key : {a, b}) {
    for (std::uint64_t MutualCacheKey::*f : fields) {
      MutualCacheKey moved = key;
      moved.*f ^= 1ull << 63;
      EXPECT_NE(MutualCacheKeyHash{}(moved), MutualCacheKeyHash{}(key));
      EXPECT_NE(mutual_key_fault_hash(moved), mutual_key_fault_hash(key));
    }
  }
}

}  // namespace
}  // namespace emi::peec
