// The deadline/cancellation layer's own tests: monotonic budgets, sticky
// tokens, latched stop reasons, scope nesting, and the parallel_for contract
// that a stopped scope skips whole chunks (never leaves one half-run).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/deadline.hpp"
#include "src/core/parallel.hpp"
#include "src/core/status.hpp"

namespace emi::core {
namespace {

TEST(Deadline, DefaultIsUnlimited) {
  const Deadline d;
  EXPECT_TRUE(d.is_unlimited());
  EXPECT_FALSE(d.has_expired());
  EXPECT_GT(d.remaining_ms(), 1000000);
  EXPECT_TRUE(Deadline::unlimited().is_unlimited());
}

TEST(Deadline, ExpiredIsAlreadyExpired) {
  const Deadline d = Deadline::expired();
  EXPECT_FALSE(d.is_unlimited());
  EXPECT_TRUE(d.has_expired());
  EXPECT_EQ(d.remaining_ms(), 0);
}

TEST(Deadline, AfterMsNonPositiveExpiresImmediately) {
  EXPECT_TRUE(Deadline::after_ms(0).has_expired());
  EXPECT_TRUE(Deadline::after_ms(-5).has_expired());
  // A generous budget has not expired the instant it is created.
  const Deadline d = Deadline::after_ms(60000);
  EXPECT_FALSE(d.has_expired());
  EXPECT_GT(d.remaining_ms(), 0);
  EXPECT_LE(d.remaining_ms(), 60000);
}

TEST(Deadline, SoonerPicksTheTighterBudget) {
  const Deadline lim = Deadline::after_ms(60000);
  const Deadline unlim = Deadline::unlimited();
  EXPECT_FALSE(Deadline::sooner(unlim, unlim).has_expired());
  EXPECT_TRUE(Deadline::sooner(unlim, unlim).is_unlimited());
  EXPECT_FALSE(Deadline::sooner(lim, unlim).is_unlimited());
  EXPECT_FALSE(Deadline::sooner(unlim, lim).is_unlimited());
  EXPECT_TRUE(Deadline::sooner(lim, Deadline::expired()).has_expired());
  EXPECT_TRUE(Deadline::sooner(Deadline::expired(), unlim).has_expired());
}

TEST(CancelToken, StickyUntilReset) {
  CancelToken t;
  EXPECT_FALSE(t.cancel_requested());
  t.request_cancel();
  EXPECT_TRUE(t.cancel_requested());
  t.request_cancel();  // idempotent
  EXPECT_TRUE(t.cancel_requested());
  t.reset();
  EXPECT_FALSE(t.cancel_requested());
}

// A token set to raise itself at its third check reads clear twice, then
// raised for good; a scope bound to it stops at its third poll, and reset()
// disarms the count.
TEST(CancelToken, RaisesItselfAtTheNthCheck) {
  CancelToken t;
  t.request_cancel_at_check(3);
  EXPECT_FALSE(t.cancel_requested());
  EXPECT_FALSE(t.cancel_requested());
  EXPECT_TRUE(t.cancel_requested());
  EXPECT_TRUE(t.cancel_requested());
  t.reset();
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(t.cancel_requested());

  t.request_cancel_at_check(3);
  CancelScope scope(Deadline::unlimited(), &t);
  EXPECT_TRUE(CancelScope::poll());
  EXPECT_TRUE(CancelScope::poll());
  EXPECT_FALSE(CancelScope::poll());
  EXPECT_EQ(scope.stop_reason(), CancelScope::Stop::kCancel);
}

TEST(CancelScope, NoScopeMeansNoStops) {
  EXPECT_EQ(CancelScope::current(), nullptr);
  EXPECT_TRUE(CancelScope::poll());
  EXPECT_NO_THROW(CancelScope::check("test"));
}

TEST(CancelScope, UnlimitedScopeNeverStops) {
  CancelScope scope(Deadline::unlimited(), nullptr);
  EXPECT_EQ(CancelScope::current(), &scope);
  EXPECT_TRUE(CancelScope::poll());
  EXPECT_FALSE(scope.should_stop());
  EXPECT_EQ(scope.stop_reason(), CancelScope::Stop::kNone);
  EXPECT_TRUE(scope.stop_status("test").ok());
  EXPECT_NO_THROW(scope.throw_if_stopped("test"));
}

TEST(CancelScope, ExpiredDeadlineStopsWithDeadlineExceeded) {
  CancelScope scope(Deadline::expired(), nullptr);
  EXPECT_FALSE(CancelScope::poll());
  EXPECT_TRUE(scope.should_stop());
  EXPECT_EQ(scope.stop_reason(), CancelScope::Stop::kDeadline);
  const Status st = scope.stop_status("flow.test");
  EXPECT_EQ(st.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(st.stage(), "flow.test");
  try {
    scope.throw_if_stopped("flow.test");
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), ErrorCode::kDeadlineExceeded);
  }
}

TEST(CancelScope, RaisedTokenStopsWithCancelled) {
  CancelToken token;
  CancelScope scope(Deadline::unlimited(), &token);
  EXPECT_TRUE(CancelScope::poll());
  token.request_cancel();
  EXPECT_FALSE(CancelScope::poll());
  EXPECT_EQ(scope.stop_reason(), CancelScope::Stop::kCancel);
  EXPECT_EQ(scope.stop_status("s").code(), ErrorCode::kCancelled);
  EXPECT_THROW(scope.throw_if_stopped("s"), StatusError);
}

// The first observed reason wins and is never re-derived from the clock or
// the token - later polls see the same latched reason.
TEST(CancelScope, StopReasonIsLatched) {
  CancelToken token;
  CancelScope scope(Deadline::expired(), &token);
  EXPECT_FALSE(CancelScope::poll());  // latches kDeadline
  token.request_cancel();             // too late to change the reason
  EXPECT_FALSE(CancelScope::poll());
  EXPECT_EQ(scope.stop_reason(), CancelScope::Stop::kDeadline);
  EXPECT_EQ(scope.stop_status("s").code(), ErrorCode::kDeadlineExceeded);
}

// Diagnostic reproducibility: the stop Status must not embed clock readings,
// so two runs stopping in the same stage produce byte-identical diagnostics.
TEST(CancelScope, StopStatusIsDeterministic) {
  std::string first, second;
  {
    CancelScope scope(Deadline::expired(), nullptr);
    (void)scope.should_stop();
    first = scope.stop_status("flow.sensitivity").to_string();
  }
  {
    CancelScope scope(Deadline::expired(), nullptr);
    (void)scope.should_stop();
    second = scope.stop_status("flow.sensitivity").to_string();
  }
  EXPECT_EQ(first, second);
}

TEST(CancelScope, InnerScopeObservesOuterStop) {
  CancelScope outer(Deadline::expired(), nullptr);
  {
    CancelScope inner(Deadline::unlimited(), nullptr);
    EXPECT_EQ(CancelScope::current(), &inner);
    // The inner scope's own budget is unlimited, but the enclosing scope has
    // already expired - work inside must still stop.
    EXPECT_FALSE(CancelScope::poll());
  }
  EXPECT_EQ(CancelScope::current(), &outer);
}

TEST(CancelScope, ScopesUnwindInNestingOrder) {
  EXPECT_EQ(CancelScope::current(), nullptr);
  {
    CancelScope a(Deadline::unlimited(), nullptr);
    {
      CancelScope b(Deadline::unlimited(), nullptr);
      EXPECT_EQ(CancelScope::current(), &b);
    }
    EXPECT_EQ(CancelScope::current(), &a);
  }
  EXPECT_EQ(CancelScope::current(), nullptr);
}

TEST(CancelScope, CheckRaisesTheStopAsStatusError) {
  CancelScope scope(Deadline::expired(), nullptr);
  try {
    CancelScope::check("flow.placement");
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(e.status().stage(), "flow.placement");
  }
}

// A stopped scope makes parallel_for skip whole chunks: result slots keep
// their initial values, and no chunk is ever half-run.
TEST(CancelScope, StoppedScopeSkipsWholeChunksInParallelFor) {
  CancelScope scope(Deadline::expired(), nullptr);
  (void)scope.should_stop();  // latch before submission
  std::vector<int> out(64, -1);
  parallel_for(0, out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i); },
               8);
  for (int v : out) EXPECT_EQ(v, -1);
}

TEST(CancelScope, StoppedScopeLeavesReduceAtInit) {
  CancelScope scope(Deadline::expired(), nullptr);
  (void)scope.should_stop();
  const double total =
      parallel_sum(0, 1000, [](std::size_t i) { return static_cast<double>(i); }, 16);
  EXPECT_EQ(total, 0.0);
}

TEST(CancelScope, RunningScopeDoesNotPerturbParallelResults) {
  std::vector<double> plain(512), scoped(512);
  parallel_for(0, plain.size(),
               [&](std::size_t i) { plain[i] = 1.0 / (1.0 + static_cast<double>(i)); },
               16);
  {
    CancelScope scope(Deadline::after_ms(60000), nullptr);
    parallel_for(
        0, scoped.size(),
        [&](std::size_t i) { scoped[i] = 1.0 / (1.0 + static_cast<double>(i)); }, 16);
  }
  EXPECT_EQ(plain, scoped);  // bit-identical
}

}  // namespace
}  // namespace emi::core
