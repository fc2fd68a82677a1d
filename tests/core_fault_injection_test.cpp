// The robustness layer's own tests: the Status/Result taxonomy, the
// deterministic fault injector, and the benign sites (pool, cache) whose
// injected faults must never change computed values - only scheduling and
// cache traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/fault_injection.hpp"
#include "src/core/parallel.hpp"
#include "src/core/status.hpp"
#include "src/core/thread_pool.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/peec/coupling.hpp"

namespace emi::core {
namespace {

// The injector is process-wide; disarm on scope exit so a failing assertion
// cannot leak injection into later tests.
struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::instance().disarm(); }
};

TEST(Status, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.to_string(), "ok");
  EXPECT_NO_THROW(s.throw_if_error());
}

TEST(Status, ToStringCarriesStageCodeAndMessage) {
  const Status s(ErrorCode::kSingular, "numeric.lu", "pivot 0 at column 1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.to_string(), "numeric.lu: singular: pivot 0 at column 1");
}

TEST(Status, RaiseMapsCallerMistakesToInvalidArgument) {
  EXPECT_THROW(Status(ErrorCode::kInvalidArgument, "s", "m").raise(),
               std::invalid_argument);
  EXPECT_THROW(Status(ErrorCode::kParseError, "s", "m").raise(), std::invalid_argument);
  EXPECT_THROW(Status(ErrorCode::kFailedPrecondition, "s", "m").raise(),
               std::invalid_argument);
}

TEST(Status, RaiseWrapsRuntimeFailuresAsStatusError) {
  const Status s(ErrorCode::kSingular, "numeric.lu", "m");
  try {
    s.raise();
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), s);  // structured Status recoverable from the catch
    EXPECT_NE(std::string(e.what()).find("singular"), std::string::npos);
  }
  // ...while staying catchable through the legacy vocabulary.
  EXPECT_THROW(s.raise(), std::runtime_error);
  EXPECT_THROW(Status(ErrorCode::kInjectedFault, "s", "m").raise(), std::runtime_error);
}

TEST(ResultT, HoldsValueOrStatus) {
  Result<int> v = 7;
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 7);
  EXPECT_EQ(v.value_or(3), 7);

  Result<int> e = Status(ErrorCode::kIoError, "io", "nope");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), ErrorCode::kIoError);
  EXPECT_EQ(e.value_or(3), 3);
  EXPECT_THROW(e.value(), StatusError);
}

TEST(FaultInjector, SpecParsingAllOrNothing) {
  DisarmGuard guard;
  FaultInjector& inj = FaultInjector::instance();

  EXPECT_TRUE(inj.configure_from_spec("lu:0.5:42"));
  EXPECT_NEAR(inj.rate(FaultSite::kLu), 0.5, 1e-12);
  EXPECT_TRUE(fault::armed());

  EXPECT_TRUE(inj.configure_from_spec("pool:1:1,io:0.25:7"));
  EXPECT_DOUBLE_EQ(inj.rate(FaultSite::kPool), 1.0);
  EXPECT_NEAR(inj.rate(FaultSite::kIo), 0.25, 1e-12);

  // The deadline and ckpt sites parse like any other, alone or combined.
  EXPECT_TRUE(inj.configure_from_spec("deadline:1:3"));
  EXPECT_DOUBLE_EQ(inj.rate(FaultSite::kDeadline), 1.0);
  EXPECT_TRUE(inj.configure_from_spec("ckpt:0.5:9,deadline:0.25:4"));
  EXPECT_NEAR(inj.rate(FaultSite::kCkpt), 0.5, 1e-12);
  EXPECT_NEAR(inj.rate(FaultSite::kDeadline), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(inj.rate(FaultSite::kPool), 0.0);  // reconfigure replaces all

  // Malformed specs arm nothing - including the valid entries before the
  // broken one.
  inj.disarm();
  EXPECT_FALSE(inj.configure_from_spec("bogus:0.5:1"));
  EXPECT_FALSE(inj.configure_from_spec("lu:notanumber:1"));
  EXPECT_FALSE(inj.configure_from_spec("lu:0.5"));
  EXPECT_FALSE(inj.configure_from_spec("lu:1.5:1"));
  EXPECT_FALSE(inj.configure_from_spec(""));
  EXPECT_FALSE(inj.configure_from_spec("lu:1:1,bogus:1:2"));
  EXPECT_FALSE(inj.configure_from_spec("deadline:1:1,"));
  EXPECT_FALSE(inj.configure_from_spec(",deadline:1:1"));
  // Numbers are read whole and strictly: no sign on the seed, no '+',
  // blank or hex float anywhere.
  EXPECT_FALSE(inj.configure_from_spec("lu:0.5:-1"));
  EXPECT_FALSE(inj.configure_from_spec("lu:0.5:+7"));
  EXPECT_FALSE(inj.configure_from_spec("lu:0.5: 7"));
  EXPECT_FALSE(inj.configure_from_spec("lu: 0.5:7"));
  EXPECT_FALSE(inj.configure_from_spec("lu:+0.5:7"));
  EXPECT_FALSE(inj.configure_from_spec("lu:0x1p-1:7"));
  EXPECT_DOUBLE_EQ(inj.rate(FaultSite::kLu), 0.0);
  EXPECT_DOUBLE_EQ(inj.rate(FaultSite::kDeadline), 0.0);
  EXPECT_FALSE(fault::armed());
}

// The sites are salted apart: the same (seed, key) makes independent
// decisions at deadline and ckpt, like at every other site pair.
TEST(FaultInjector, NewSitesAreSaltedApart) {
  DisarmGuard guard;
  FaultInjector& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.configure_from_spec("deadline:0.5:21,ckpt:0.5:21"));
  std::size_t differing = 0;
  for (std::uint64_t k = 0; k < 2000; ++k) {
    differing += inj.fire(FaultSite::kDeadline, k) != inj.fire(FaultSite::kCkpt, k);
  }
  EXPECT_GT(differing, 500u);
}

TEST(FaultInjector, DecisionsAreAPureFunctionOfSiteSeedKey) {
  DisarmGuard guard;
  FaultInjector& inj = FaultInjector::instance();
  inj.configure(FaultSite::kLu, 0.5, 42);

  std::vector<bool> first;
  for (std::uint64_t k = 0; k < 2000; ++k) first.push_back(inj.fire(FaultSite::kLu, k));
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint64_t k = 0; k < 2000; ++k) {
      EXPECT_EQ(inj.fire(FaultSite::kLu, k), first[k]) << "key " << k;
    }
  }
  // Rate is honored statistically over the key space.
  const auto fired =
      static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 2000u * 40 / 100);
  EXPECT_LT(fired, 2000u * 60 / 100);
  EXPECT_EQ(inj.fired(FaultSite::kLu), fired * 4);

  // A different seed makes different decisions; sites are salted apart.
  inj.configure(FaultSite::kLu, 0.5, 43);
  std::size_t differing = 0;
  for (std::uint64_t k = 0; k < 2000; ++k) {
    differing += inj.fire(FaultSite::kLu, k) != first[k];
  }
  EXPECT_GT(differing, 500u);
}

TEST(FaultInjector, RateExtremes) {
  DisarmGuard guard;
  FaultInjector& inj = FaultInjector::instance();
  inj.configure(FaultSite::kIo, 1.0, 9);
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(inj.fire(FaultSite::kIo, k));
  inj.configure(FaultSite::kIo, 0.0, 9);
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_FALSE(inj.fire(FaultSite::kIo, k));
  EXPECT_FALSE(fault::armed());  // rate 0 on the only configured site disarms
}

TEST(FaultInjector, DisarmedShouldFireIsFalse) {
  FaultInjector::instance().disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::should_fire(FaultSite::kPool, 1));
  EXPECT_FALSE(fault::should_fire(FaultSite::kLu, 2));
}

// Pool site: an injected lane loss degrades batches to serial execution.
// By the determinism contract the computed values are bit-identical; only
// the serial_fallbacks counter shows the fault fired.
TEST(FaultInjectorSites, PoolDegradationNeverChangesResults) {
  DisarmGuard guard;
  const auto run = [] {
    std::vector<double> out(512);
    parallel_for(0, out.size(), [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.25 + 1.0 / (1.0 + static_cast<double>(i));
    });
    return out;
  };
  const std::vector<double> clean = run();

  FaultInjector::instance().configure(FaultSite::kPool, 1.0, 5);
  const PoolStats before = ThreadPool::global().stats();
  const std::vector<double> injected = run();
  const PoolStats after = ThreadPool::global().stats();

  EXPECT_EQ(clean, injected);  // bit-identical
  EXPECT_GT(after.serial_fallbacks, before.serial_fallbacks);
  EXPECT_GT(FaultInjector::instance().fired(FaultSite::kPool), 0u);
}

TEST(FaultInjectorSites, ScopedSerialFallbackForcesInlineExecution) {
  ASSERT_FALSE(ThreadPool::serial_fallback_active());
  std::vector<double> serial(256), normal(256);
  {
    ScopedSerialFallback fallback;
    EXPECT_TRUE(ThreadPool::serial_fallback_active());
    parallel_for(0, serial.size(), [&](std::size_t i) {
      serial[i] = std::sqrt(static_cast<double>(i));
    });
  }
  EXPECT_FALSE(ThreadPool::serial_fallback_active());
  parallel_for(0, normal.size(), [&](std::size_t i) {
    normal[i] = std::sqrt(static_cast<double>(i));
  });
  EXPECT_EQ(serial, normal);
}

// Cache site: a forced miss recomputes the entry. Values are pure functions
// of the key, so coupling factors must come out bit-identical - with the
// misses visible in the cache counters.
TEST(FaultInjectorSites, ForcedCacheMissesKeepValuesBitIdentical) {
  DisarmGuard guard;
  const flow::BuckConverter bc = flow::make_buck_converter();
  const place::Layout l = flow::layout_unfavorable(bc);
  const auto pairs = bc.inductor_component_pairs();
  const auto couple_all = [&](const peec::CouplingExtractor& ex) {
    std::vector<double> ks;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      for (std::size_t j = i + 1; j < pairs.size(); ++j) {
        const std::string& ca = pairs[i].second;
        const std::string& cb = pairs[j].second;
        const peec::PlacedModel pa{bc.model_for_component(ca), flow::pose_of(bc, l, ca)};
        const peec::PlacedModel pb{bc.model_for_component(cb), flow::pose_of(bc, l, cb)};
        ks.push_back(ex.coupling_factor(pa, pb));
      }
    }
    return ks;
  };

  const peec::CouplingExtractor clean_ex;
  const std::vector<double> clean = couple_all(clean_ex);
  ASSERT_FALSE(clean.empty());

  FaultInjector::instance().configure(FaultSite::kCache, 1.0, 3);
  const peec::CouplingExtractor faulty_ex;
  // Twice: the second pass would normally be all hits; with the site armed
  // at rate 1 every lookup is a forced miss.
  const std::vector<double> faulty1 = couple_all(faulty_ex);
  const std::vector<double> faulty2 = couple_all(faulty_ex);
  EXPECT_EQ(clean, faulty1);
  EXPECT_EQ(clean, faulty2);
  const peec::ExtractionCacheStats stats = faulty_ex.cache_stats();
  EXPECT_EQ(stats.self_hits, 0u);
  EXPECT_EQ(stats.mutual_hits, 0u);
  EXPECT_GT(stats.mutual_misses, clean.size());  // second pass missed again
}

}  // namespace
}  // namespace emi::core
