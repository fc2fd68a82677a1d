// Budgeted flow runs: injected deadline expiry drives the degradation ladder
// deterministically (the fire decision is a pure function of stage name and
// attempt index), real budgets surface as kDeadlineExceeded diagnostics
// instead of hangs, and cooperative cancellation aborts the pipeline with a
// partial result that a later resume completes bit-identically.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/deadline.hpp"
#include "src/core/fault_injection.hpp"
#include "src/core/thread_pool.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/flow/checkpoint.hpp"
#include "src/flow/design_flow.hpp"

namespace emi::flow {
namespace {

constexpr std::array<const char*, 5> kStages = {
    "flow.sensitivity", "flow.initial_prediction", "flow.rule_derivation",
    "flow.placement", "flow.verification"};

struct Guards {
  ~Guards() {
    core::FaultInjector::instance().disarm();
    core::ThreadPool::set_global_thread_count(core::ThreadPool::default_thread_count());
  }
};

FlowResult run_once(const FlowOptions& opt) {
  BuckConverter bc = make_buck_converter();
  return run_design_flow(bc, layout_unfavorable(bc), opt);
}

FlowOptions quick_options() {
  FlowOptions opt;
  opt.sweep.n_points = 30;
  return opt;
}

std::vector<std::string> diag_strings(const FlowResult& r) {
  std::vector<std::string> out;
  for (const StageDiagnostic& d : r.diagnostics) {
    out.push_back(d.stage + "|" + d.status.to_string() + "|" +
                  std::to_string(d.attempts) + "|" + (d.recovered ? "r" : "f"));
  }
  return out;
}

// Whether the injected expiry fires for (stage, attempt) - the same pure
// decision the StageDriver makes.
bool expiry_fires(const char* stage, int attempt) {
  return core::FaultInjector::instance().fire(
      core::FaultSite::kDeadline,
      core::fault::mix(core::fault::fnv64(stage),
                       static_cast<std::uint64_t>(attempt)));
}

// A first-attempt expiry must be recovered by a degraded retry; the
// diagnostics are predictable from the injector's pure decisions alone.
TEST(FlowDeadline, InjectedExpiryFollowsTheDegradationLadder) {
  Guards guards;
  core::FaultInjector& inj = core::FaultInjector::instance();

  // Find a seed where >= 2 stages expire on their first attempt and none on
  // the retry, so every stage recovers degraded and the flow completes.
  std::uint64_t seed = 0;
  std::array<bool, kStages.size()> first_fires{};
  bool found = false;
  for (std::uint64_t s = 0; s < 1000 && !found; ++s) {
    inj.configure(core::FaultSite::kDeadline, 0.5, s);
    int fired0 = 0;
    bool any_retry_fires = false;
    for (std::size_t i = 0; i < kStages.size(); ++i) {
      first_fires[i] = expiry_fires(kStages[i], 0);
      fired0 += first_fires[i] ? 1 : 0;
      any_retry_fires = any_retry_fires || expiry_fires(kStages[i], 1);
    }
    if (fired0 >= 2 && !any_retry_fires) {
      seed = s;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  inj.configure(core::FaultSite::kDeadline, 0.5, seed);
  const FlowResult first = run_once(quick_options());
  EXPECT_TRUE(first.complete);
  EXPECT_GT(first.peak_improvement_db, 0.0);
  // Exactly the predicted stages show a recovered kDeadlineExceeded diag.
  std::vector<std::string> expected_stages;
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    if (first_fires[i]) expected_stages.push_back(kStages[i]);
  }
  ASSERT_EQ(first.diagnostics.size(), expected_stages.size());
  for (std::size_t i = 0; i < expected_stages.size(); ++i) {
    const StageDiagnostic& d = first.diagnostics[i];
    EXPECT_EQ(d.stage, expected_stages[i]);
    EXPECT_EQ(d.status.code(), core::ErrorCode::kDeadlineExceeded);
    EXPECT_TRUE(d.recovered);
    EXPECT_EQ(d.attempts, 2);
  }

  // Same degradation path => bit-identical results, at any thread count.
  for (std::size_t lanes : {1u, 4u}) {
    core::ThreadPool::set_global_thread_count(lanes);
    inj.configure(core::FaultSite::kDeadline, 0.5, seed);
    const FlowResult again = run_once(quick_options());
    EXPECT_EQ(diag_strings(first), diag_strings(again)) << lanes << " lanes";
    EXPECT_EQ(first.initial_prediction.level_dbuv, again.initial_prediction.level_dbuv)
        << lanes << " lanes";
    EXPECT_EQ(first.improved_prediction.level_dbuv, again.improved_prediction.level_dbuv)
        << lanes << " lanes";
    EXPECT_EQ(first.peak_improvement_db, again.peak_improvement_db);
  }
}

// A degraded sensitivity retry sweeps fewer points than the exact attempt,
// down to 25 but never more: a 10-point flow whose first ranking expires
// decides its ranking on the same 10 points (the baseline and 21 probes).
TEST(FlowDeadline, DegradedSensitivityNeverSweepsMorePointsThanExact) {
  Guards guards;
  core::FaultInjector& inj = core::FaultInjector::instance();
  std::uint64_t seed = 0;
  for (; seed < 1000; ++seed) {
    inj.configure(core::FaultSite::kDeadline, 0.5, seed);
    if (expiry_fires(kStages[0], 0) && !expiry_fires(kStages[0], 1)) break;
  }
  ASSERT_LT(seed, 1000u);

  FlowOptions opt;
  opt.sweep.n_points = 10;
  opt.stop_after_stage = "sensitivity";
  const FlowResult r = run_once(opt);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].stage, kStages[0]);
  EXPECT_EQ(r.diagnostics[0].status.code(), core::ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(r.diagnostics[0].recovered);
  EXPECT_EQ(r.ranking.size(), 21u);
  EXPECT_EQ(r.profile.count("sweep.full_solves"), 22u * 10u);
}

// Rate 1: every attempt of every stage starts expired. The flow must come
// back partial - never hang, never throw - with the full set of
// kDeadlineExceeded diagnostics, and still fall back to all-pairs
// sensitivity like any other sensitivity failure.
TEST(FlowDeadline, TotalExpiryOutageDegradesToPartialResult) {
  Guards guards;
  core::FaultInjector::instance().configure(core::FaultSite::kDeadline, 1.0, 7);

  const FlowResult res = run_once(quick_options());
  EXPECT_FALSE(res.complete);
  ASSERT_FALSE(res.diagnostics.empty());
  bool saw_sensitivity = false, saw_placement = false;
  for (const StageDiagnostic& d : res.diagnostics) {
    EXPECT_EQ(d.status.code(), core::ErrorCode::kDeadlineExceeded) << d.stage;
    EXPECT_FALSE(d.recovered) << d.stage;
    saw_sensitivity = saw_sensitivity || d.stage == "flow.sensitivity";
    saw_placement = saw_placement || d.stage == "flow.placement";
  }
  EXPECT_TRUE(saw_sensitivity);
  EXPECT_TRUE(saw_placement);
  // Sensitivity pruning unavailable -> every pair scheduled for simulation.
  EXPECT_EQ(res.simulated_pairs.size(), 21u);

  core::FaultInjector::instance().configure(core::FaultSite::kDeadline, 1.0, 7);
  const FlowResult again = run_once(quick_options());
  EXPECT_EQ(diag_strings(res), diag_strings(again));
}

// A real (wall-clock) budget that cannot possibly fit the flow: the run
// returns a partial result promptly with structured kDeadlineExceeded
// diagnostics. Timing decides *where* it stops, so only the shape is
// asserted, not the exact stage list.
TEST(FlowDeadline, TinyRealBudgetNeverHangsOrThrows) {
  Guards guards;
  FlowOptions opt = quick_options();
  opt.total_budget_ms = 1;
  FlowResult res;
  ASSERT_NO_THROW(res = run_once(opt));
  EXPECT_FALSE(res.complete);
  ASSERT_FALSE(res.diagnostics.empty());
  bool saw_deadline = false;
  for (const StageDiagnostic& d : res.diagnostics) {
    saw_deadline =
        saw_deadline || d.status.code() == core::ErrorCode::kDeadlineExceeded;
  }
  EXPECT_TRUE(saw_deadline);
}

TEST(FlowDeadline, PreRaisedTokenCancelsThePipelineImmediately) {
  Guards guards;
  core::CancelToken token;
  token.request_cancel();
  FlowOptions opt = quick_options();
  opt.cancel = &token;

  const FlowResult res = run_once(opt);
  EXPECT_FALSE(res.complete);
  ASSERT_EQ(res.diagnostics.size(), 1u);  // pipeline stops at the first stage
  EXPECT_EQ(res.diagnostics[0].stage, "flow.sensitivity");
  EXPECT_EQ(res.diagnostics[0].status.code(), core::ErrorCode::kCancelled);
  EXPECT_FALSE(res.diagnostics[0].recovered);
  EXPECT_EQ(res.place_stats.placed, 0u);  // placement never ran
}

// Cancel mid-flow (deterministically: at the stage following a checkpointed
// prefix), then clear the token and resume. The final result must be
// bit-identical to an uninterrupted run - the cancelled attempt left no
// trace in the checkpoint.
TEST(FlowDeadline, CancelledThenResumedMatchesUninterrupted) {
  Guards guards;
  const std::string ckpt = std::string(::testing::TempDir()) + "flow_cancel.ckpt";
  std::remove(ckpt.c_str());

  const FlowResult reference = run_once(quick_options());
  ASSERT_TRUE(reference.complete);

  // Run a prefix: checkpoint through initial_prediction, then stop (the
  // deterministic SIGKILL stand-in).
  FlowOptions opt = quick_options();
  opt.checkpoint_path = ckpt;
  opt.stop_after_stage = "initial_prediction";
  const FlowResult prefix = run_once(opt);
  EXPECT_FALSE(prefix.complete);

  // Resume with a raised token: the next stage is cancelled, nothing new is
  // checkpointed.
  core::CancelToken token;
  token.request_cancel();
  FlowOptions cancel_opt = quick_options();
  cancel_opt.checkpoint_path = ckpt;
  cancel_opt.cancel = &token;
  BuckConverter bc1 = make_buck_converter();
  const FlowResult cancelled =
      resume_design_flow(bc1, layout_unfavorable(bc1), cancel_opt);
  EXPECT_FALSE(cancelled.complete);
  bool saw_cancel = false;
  for (const StageDiagnostic& d : cancelled.diagnostics) {
    saw_cancel = saw_cancel || d.status.code() == core::ErrorCode::kCancelled;
  }
  EXPECT_TRUE(saw_cancel);

  // Clear the token and resume again: completes, bit-identical to the
  // uninterrupted run.
  token.reset();
  BuckConverter bc2 = make_buck_converter();
  const FlowResult resumed =
      resume_design_flow(bc2, layout_unfavorable(bc2), cancel_opt);
  EXPECT_TRUE(resumed.complete);
  EXPECT_TRUE(resumed.diagnostics.empty());
  EXPECT_EQ(reference.initial_prediction.level_dbuv,
            resumed.initial_prediction.level_dbuv);
  EXPECT_EQ(reference.improved_prediction.level_dbuv,
            resumed.improved_prediction.level_dbuv);
  EXPECT_EQ(reference.peak_improvement_db, resumed.peak_improvement_db);
  EXPECT_EQ(reference.simulated_pairs, resumed.simulated_pairs);
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace emi::flow
