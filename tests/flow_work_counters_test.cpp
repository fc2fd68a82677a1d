// Exact work-counter pins for whole design flows: buck and boost, each exact
// and as `emiplace flow --adaptive` runs it, at the CLI's 60 sweep points
// with a cold extractor (no shared extraction cache). Every pinned counter
// is a pure function of the flow inputs - never of the host, the thread
// count or the wall clock - so the values are exact. A change that moves
// one updates the table and says why; a change that only reorganizes the
// work must leave every entry alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/flow/buck_converter.hpp"
#include "src/flow/design_flow.hpp"

namespace emi::flow {
namespace {

struct FlowCounters {
  std::uint64_t sample_evals;
  std::uint64_t exact_pairs;
  std::uint64_t self_hits;
  std::uint64_t self_misses;
  std::uint64_t mutual_hits;
  std::uint64_t mutual_misses;
  std::uint64_t candidates;
  std::uint64_t full_solves;
  std::uint64_t interp_points;
  std::uint64_t surrogate_evals;
  std::uint64_t escalations;
  std::uint64_t resumed_solves;
};

FlowResult run_flow(bool boost, bool adaptive) {
  BuckConverter bc = boost ? make_boost_converter() : make_buck_converter();
  const place::Layout initial =
      boost ? boost_layout_unfavorable(bc) : layout_unfavorable(bc);
  FlowOptions opt;
  opt.sweep.n_points = 60;
  opt.sweep_accel.adaptive = adaptive;
  opt.sweep_accel.surrogate = adaptive;
  return run_design_flow(bc, initial, opt);
}

void expect_counters(const FlowResult& r, const FlowCounters& want) {
  ASSERT_TRUE(r.complete);
  const core::Profile& p = r.profile;
  EXPECT_EQ(p.count("peec.kernel_sample_evals"), want.sample_evals);
  EXPECT_EQ(p.count("peec.kernel_exact_pairs"), want.exact_pairs);
  EXPECT_EQ(p.count("peec.self_cache_hits"), want.self_hits);
  EXPECT_EQ(p.count("peec.self_cache_misses"), want.self_misses);
  EXPECT_EQ(p.count("peec.mutual_cache_hits"), want.mutual_hits);
  EXPECT_EQ(p.count("peec.mutual_cache_misses"), want.mutual_misses);
  EXPECT_EQ(p.count("place.candidates_evaluated"), want.candidates);
  EXPECT_EQ(p.count("sweep.full_solves"), want.full_solves);
  EXPECT_EQ(p.count("sweep.interp_points"), want.interp_points);
  EXPECT_EQ(p.count("sweep.surrogate_evals"), want.surrogate_evals);
  EXPECT_EQ(p.count("sweep.escalations"), want.escalations);
  EXPECT_EQ(p.count("sweep.resumed_solves"), want.resumed_solves);
}

// The exact flows solve every grid point of every sweep: buck runs 25
// sweeps (baseline + 21 candidate pairs, 2 initial predictions, 1
// verification) of 60 points, boost 19 (baseline + 15 pairs + 3). Each
// candidate pair's points resume the sensitivity baseline's factorization
// (buck 21 x 60, boost 15 x 60); the adaptive flows resume none.
TEST(FlowWorkCounters, BuckExact) {
  expect_counters(run_flow(false, false),
                  {8114976, 56354, 237, 5, 25, 96, 1040, 1500, 0, 0, 0, 1260});
}

TEST(FlowWorkCounters, BuckAdaptive) {
  expect_counters(run_flow(false, true),
                  {8114976, 56354, 237, 5, 25, 96, 1040, 276, 24, 0, 0, 0});
}

TEST(FlowWorkCounters, BoostExact) {
  expect_counters(run_flow(true, false),
                  {8616672, 59838, 299, 5, 37, 115, 1092, 1140, 0, 0, 0, 900});
}

TEST(FlowWorkCounters, BoostAdaptive) {
  expect_counters(run_flow(true, true),
                  {8616672, 59838, 299, 5, 37, 115, 1092, 263, 37, 0, 0, 0});
}

}  // namespace
}  // namespace emi::flow
