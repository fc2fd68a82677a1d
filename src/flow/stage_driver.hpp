// Retry driver for one pipeline stage, budget-aware. Internal to the flow
// layer (FlowEngine in flow_units.cpp is the only client); lives in its own
// header so the per-unit pipeline and the retry machinery stay separately
// readable.
//
// Every attempt runs under a CancelScope bound to the tighter of the flow
// deadline and a fresh per-attempt stage budget; the stage body's poll points
// stop cooperatively and the scope epilogue discards the attempt's output by
// raising.
//
// Degradation ladder: a deadline-expired attempt bumps `degrade`, and the
// body receives it so the retry can run a cheaper configuration (coarser
// quadrature, coarser placement grid, fewer sensitivity points) under a
// fresh stage budget. A raised CancelToken aborts the stage - and, via
// `cancelled`, the pipeline - immediately; an exhausted *flow* budget fails
// the stage without running it, so the remaining pipeline degrades to a
// partial result instead of burning time it no longer has.
//
// All of these decisions happen at attempt boundaries, as pure functions of
// per-attempt outcomes - never mid-chunk - so a run taking a given
// degradation path is bit-identical to any other run taking that path, at
// any thread count.
//
// Exceptions are normalized into Status: structured errors keep their code,
// caller mistakes map to kInvalidArgument, anything else to kInternal. Every
// stage gets kStageAttempts attempts, back to back. The retry runs on serial
// lanes - a scheduling change only - with a jittered AC pivot threshold
// (jittered() below), which re-keys injected lu faults.
#pragma once

#include <functional>
#include <vector>

#include "src/core/deadline.hpp"
#include "src/core/fault_injection.hpp"
#include "src/core/status.hpp"
#include "src/emi/measurement.hpp"
#include "src/flow/design_flow.hpp"

namespace emi::flow::detail {

// Attempts per stage: the first run and one retry.
inline constexpr int kStageAttempts = 2;

enum class StageOutcome { kOk, kFailed, kCancelled };

struct StageDriver {
  const FlowOptions* opt;
  core::Deadline flow_deadline;
  std::vector<StageDiagnostic>* diags;
  bool cancelled = false;     // a stage observed kCancelled: stop the pipeline
  bool flow_expired = false;  // total budget gone: fail remaining stages fast

  StageOutcome run(const char* stage, const std::function<void(int, int)>& body) {
    core::Status last;
    int degrade = 0;
    for (int attempt = 0; attempt < kStageAttempts; ++attempt) {
      // Attempt boundary: prove liveness to a supervising watchdog.
      if (opt->heartbeat) opt->heartbeat();
      if (flow_deadline.has_expired()) flow_expired = true;
      if (flow_expired) {
        last = core::Status(core::ErrorCode::kDeadlineExceeded, stage,
                            "flow budget exhausted");
        diags->push_back({stage, last, attempt, false});
        return StageOutcome::kFailed;
      }
      core::Deadline deadline = flow_deadline;
      if (opt->stage_budget_ms > 0) {
        deadline = core::Deadline::sooner(
            deadline, core::Deadline::after_ms(opt->stage_budget_ms));
      }
      // Injected expiry: the attempt starts already out of time, driving the
      // cooperative-stop and degradation paths deterministically (the key
      // depends only on stage name and attempt index).
      if (core::fault::should_fire(
              core::FaultSite::kDeadline,
              core::fault::mix(core::fault::fnv64(stage),
                               static_cast<std::uint64_t>(attempt)))) {
        deadline = core::Deadline::expired();
      }
      try {
        core::CancelScope scope(deadline, opt->cancel);
        if (attempt + 1 == kStageAttempts) {
          core::ScopedSerialFallback serial;
          body(attempt, degrade);
        } else {
          body(attempt, degrade);
        }
        scope.throw_if_stopped(stage);
        if (attempt > 0) diags->push_back({stage, last, attempt + 1, true});
        return StageOutcome::kOk;
      } catch (const core::StatusError& e) {
        last = e.status();
        if (last.code() == core::ErrorCode::kCancelled) {
          cancelled = true;
          diags->push_back({stage, last, attempt + 1, false});
          return StageOutcome::kCancelled;
        }
        if (last.code() == core::ErrorCode::kDeadlineExceeded) ++degrade;
      } catch (const std::invalid_argument& e) {
        last = core::Status(core::ErrorCode::kInvalidArgument, stage, e.what());
      } catch (const std::exception& e) {
        last = core::Status(core::ErrorCode::kInternal, stage, e.what());
      }
    }
    diags->push_back({stage, last, kStageAttempts, false});
    return StageOutcome::kFailed;
  }
};

// Retry jitter: perturb the AC pivot threshold so a retried sweep re-keys
// injected lu faults without changing the configuration digest.
inline emc::EmissionSweepOptions jittered(const emc::EmissionSweepOptions& sweep,
                                          int attempt) {
  emc::EmissionSweepOptions s = sweep;
  if (attempt > 0) {
    s.ac.pivot_threshold *= 1.0 + static_cast<double>(attempt) * 1e-3;
  }
  return s;
}

}  // namespace emi::flow::detail
