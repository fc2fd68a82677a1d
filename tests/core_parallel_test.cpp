#include "src/core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/profile.hpp"
#include "src/core/thread_pool.hpp"

namespace emi::core {
namespace {

// Deterministic pseudo-random doubles (no seed dependence on the host).
std::vector<double> noise_vector(std::size_t n) {
  std::vector<double> v(n);
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    v[i] = static_cast<double>(s % 10000) / 7.0 - 500.0;
  }
  return v;
}

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() {
    ThreadPool::set_global_thread_count(ThreadPool::default_thread_count());
  }
};

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  ThreadPool::set_global_thread_count(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(0, kN, [&](std::size_t i) { visits[i].fetch_add(1); }, 7);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  std::atomic<int> calls{0};
  parallel_for(5, 5, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  parallel_for(5, 6, [&](std::size_t i) {
    EXPECT_EQ(i, 5u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelSum, BitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const std::vector<double> v = noise_vector(4097);
  const auto map = [&](std::size_t i) { return v[i]; };
  ThreadPool::set_global_thread_count(1);
  const double serial = parallel_sum(0, v.size(), map, 16);
  for (std::size_t lanes : {2u, 4u, 8u}) {
    ThreadPool::set_global_thread_count(lanes);
    const double parallel = parallel_sum(0, v.size(), map, 16);
    // Bit-identical, not just close: the ordered-reduction contract.
    EXPECT_EQ(serial, parallel) << lanes << " lanes";
  }
}

TEST(ParallelReduce, OrderedReductionMatchesExplicitChunkFold) {
  ThreadCountGuard guard;
  ThreadPool::set_global_thread_count(4);
  const std::vector<double> v = noise_vector(100);
  const std::size_t grain = 8;
  const double got = parallel_sum(0, v.size(), [&](std::size_t i) { return v[i]; },
                                  grain);
  double want = 0.0;
  for (std::size_t lo = 0; lo < v.size(); lo += grain) {
    double chunk = 0.0;
    for (std::size_t i = lo; i < std::min(lo + grain, v.size()); ++i) chunk += v[i];
    want += chunk;
  }
  EXPECT_EQ(got, want);
}

TEST(ParallelFor, NestedRegionsRunInlineWithoutDeadlock) {
  ThreadCountGuard guard;
  ThreadPool::set_global_thread_count(4);
  std::vector<std::atomic<int>> visits(64 * 64);
  parallel_for(0, 64, [&](std::size_t i) {
    parallel_for(0, 64, [&](std::size_t j) { visits[i * 64 + j].fetch_add(1); });
  });
  for (std::size_t i = 0; i < visits.size(); ++i) EXPECT_EQ(visits[i].load(), 1);
}

// A throwing chunk - on the submitting lane or a worker - surfaces as an
// exception from parallel_for only after every lane has left the batch
// (the caller's frame is then safe to unwind), and the exception is the
// lowest-index one, as a serial loop would raise.
TEST(ParallelFor, ExceptionSurfacesOnCallerAfterEveryLaneLeaves) {
  ThreadCountGuard guard;
  ThreadPool::set_global_thread_count(4);
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<int> inside{0};
    try {
      parallel_for(0, 64, [&](std::size_t i) {
        inside.fetch_add(1);
        volatile double sink = 0.0;
        for (int k = 0; k < 2000; ++k) sink = sink + static_cast<double>(k);
        inside.fetch_sub(1);
        if (i == 4 || i == 9 || i == 30) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "4");
      EXPECT_EQ(inside.load(), 0);
    }
  }
  // The pool is still usable afterwards.
  std::atomic<int> calls{0};
  parallel_for(0, 64, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPool, StatsCountBatchesAndChunks) {
  ThreadCountGuard guard;
  ThreadPool::set_global_thread_count(2);
  const PoolStats before = ThreadPool::global().stats();
  parallel_for(0, 100, [](std::size_t) {}, 10);
  const PoolStats after = ThreadPool::global().stats();
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.chunks - before.chunks, 10u);
}

TEST(ThreadPool, GlobalThreadCountFollowsSetting) {
  ThreadCountGuard guard;
  ThreadPool::set_global_thread_count(3);
  EXPECT_EQ(ThreadPool::global_thread_count(), 3u);
  ThreadPool::set_global_thread_count(1);
  EXPECT_EQ(ThreadPool::global_thread_count(), 1u);
}

// EMI_THREADS is read whole: a value that is not a decimal integer from 1
// to the cap falls back to the hardware default. Only the pure parse is
// exercised, so no pool is ever sized from these values.
TEST(ThreadPool, ThreadCountParseAcceptsOneToTheCapOnly) {
  constexpr std::size_t cap = ThreadPool::kMaxThreadCount;
  EXPECT_EQ(ThreadPool::parse_thread_count("1"), 1u);
  EXPECT_EQ(ThreadPool::parse_thread_count("4"), 4u);
  EXPECT_EQ(ThreadPool::parse_thread_count(std::to_string(cap)), cap);
  const std::vector<std::string> bad_values = {
      "", "0", "-2", "4x", "1e3", " 4", "+4", "18446744073709551616", std::to_string(cap + 1)};
  for (const std::string& bad : bad_values) {
    EXPECT_EQ(ThreadPool::parse_thread_count(bad), std::nullopt) << '"' << bad << '"';
  }
}

TEST(Profile, AccumulatesAndSortsEntries) {
  Profile p;
  p.add_count("b.count", 2);
  p.add_count("b.count", 3);
  p.add_seconds("a.time", 0.5);
  { ScopedTimer t(p, "a.time"); }
  EXPECT_EQ(p.count("b.count"), 5u);
  EXPECT_GE(p.seconds("a.time"), 0.5);
  const auto entries = p.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "a.time");
  EXPECT_EQ(entries[1].name, "b.count");

  Profile q;
  q.add_count("b.count", 1);
  q.merge(p);
  EXPECT_EQ(q.count("b.count"), 6u);
}

}  // namespace
}  // namespace emi::core
