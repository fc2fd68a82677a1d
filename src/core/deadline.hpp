// Deadline propagation and cooperative cancellation - the execution core's
// time-bound layer.
//
// A Deadline is an immutable monotonic-clock budget (steady_clock, so wall
// clock adjustments never fire it). A CancelToken is a sticky thread-safe
// flag an operator (signal handler, another thread, a supervising service)
// can raise to stop a run. A CancelScope binds one (deadline, token) pair to
// the current thread for the duration of a pipeline stage; cooperative poll
// points - chunk boundaries inside core::parallel_for / parallel_reduce,
// per-pair probes in peec::CouplingExtractor, per-frequency-point probes in
// ckt::ac_solve_checked, per-candidate probes in place - observe the
// innermost scope and stop doing work once it reports a stop.
//
// Determinism contract. Cancellation/expiry never corrupts results: a poll
// point either completes its work item fully or skips it entirely, and the
// stage that owns the scope discards *all* of its output once the scope
// reports a stop (CancelScope::throw_if_stopped at the end of the stage
// body, surfaced as core::ErrorCode::kDeadlineExceeded / kCancelled). Budget
// decisions - retry coarser, fall back, give up - are therefore pure
// functions of per-stage outcomes, never of where inside a chunk the clock
// ran out, and a run that takes a given degradation path is bit-identical to
// any other run taking the same path, at any thread count.
//
// The stop reason is latched: the first poll that observes expiry or a
// raised token stores it, and every later poll (from any thread) sees the
// same reason without touching the clock again.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string_view>

#include "src/core/status.hpp"

namespace emi::core {

// Sticky cooperative cancellation flag. Thread-safe; reset() is meant for
// test reuse, not for un-cancelling a live run.
class CancelToken {
 public:
  void request_cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  // The token raises itself at its n-th cancel_requested() call from now
  // (n >= 1). Every poll of a scope bound to the token makes one such call
  // until the stop latches, so a test can land a stop at a chosen poll of a
  // run, on whichever lane reaches it.
  void request_cancel_at_check(std::int64_t n) {
    checks_left_.store(n, std::memory_order_relaxed);
  }
  bool cancel_requested() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (checks_left_.load(std::memory_order_relaxed) > 0 &&
        checks_left_.fetch_sub(1, std::memory_order_relaxed) == 1) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  void reset() {
    cancelled_.store(false, std::memory_order_relaxed);
    checks_left_.store(0, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<bool> cancelled_{false};
  mutable std::atomic<std::int64_t> checks_left_{0};
};

// Immutable monotonic-clock budget. Default-constructed = unlimited.
class Deadline {
 public:
  Deadline() = default;  // unlimited

  static Deadline unlimited() { return Deadline(); }
  // Expires `ms` milliseconds from now (ms <= 0: already expired).
  static Deadline after_ms(std::int64_t ms) {
    return Deadline(std::chrono::steady_clock::now() + std::chrono::milliseconds(ms));
  }
  // Already in the past; the first poll stops. Used by the `deadline` fault
  // injection site to exercise expiry paths deterministically. The epoch
  // (not time_point::min()) so duration arithmetic against now() can never
  // overflow.
  static Deadline expired() {
    return Deadline(std::chrono::steady_clock::time_point{});
  }
  // The tighter of two budgets (unlimited = no constraint).
  static Deadline sooner(const Deadline& a, const Deadline& b) {
    if (a.unlimited_) return b;
    if (b.unlimited_) return a;
    return Deadline(a.at_ < b.at_ ? a.at_ : b.at_);
  }

  bool is_unlimited() const { return unlimited_; }
  bool has_expired() const {
    return !unlimited_ && std::chrono::steady_clock::now() >= at_;
  }
  // Milliseconds left, clamped at 0; a large sentinel when unlimited.
  std::int64_t remaining_ms() const {
    if (unlimited_) return std::numeric_limits<std::int64_t>::max();
    const auto now = std::chrono::steady_clock::now();
    if (now >= at_) return 0;
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(at_ - now).count();
    return ms > 0 ? ms : 0;
  }

 private:
  explicit Deadline(std::chrono::steady_clock::time_point at)
      : unlimited_(false), at_(at) {}

  bool unlimited_ = true;
  std::chrono::steady_clock::time_point at_{};
};

// RAII binding of (deadline, token) to the constructing thread. Scopes nest:
// an inner scope also observes its enclosing scope's stop, so a stage scope
// inside an expired flow scope stops immediately. parallel_for captures the
// submitting thread's innermost scope and re-checks it from worker lanes at
// every chunk boundary, which is what propagates a stop across the pool.
class CancelScope {
 public:
  enum class Stop : std::uint8_t { kNone = 0, kDeadline, kCancel };

  CancelScope(Deadline deadline, CancelToken* token);
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

  // True once the deadline expired or the token was raised; latches the
  // first observed reason. Safe from any thread holding a scope pointer
  // while the scope is alive (the owning stage outlives its pool batches).
  bool should_stop() const;
  Stop stop_reason() const { return static_cast<Stop>(stop_.load(std::memory_order_relaxed)); }

  // kDeadlineExceeded / kCancelled Status for the latched reason; kOk
  // (default Status) when still running.
  [[nodiscard]] Status stop_status(std::string_view stage) const;

  // Stage epilogue: raises the stop as a StatusError so the stage's retry
  // driver can discard the (possibly sentinel-filled) results. No-op while
  // running. Must be called on the thread that owns the scope.
  void throw_if_stopped(std::string_view stage) const;

  // Innermost scope of the calling thread; nullptr outside any scope.
  static const CancelScope* current();
  // Cooperative poll against the calling thread's innermost scope: false
  // once work should stop. Always true outside any scope.
  static bool poll();
  // poll() + raise: the serial-loop form of the probe (placer component
  // loop, bisection drivers). No-op outside any scope.
  static void check(std::string_view stage);

 private:
  Deadline deadline_;
  CancelToken* token_;
  const CancelScope* parent_;
  // Latched Stop reason; CAS from kNone so the first observer wins.
  mutable std::atomic<std::uint8_t> stop_{0};
};

}  // namespace emi::core
