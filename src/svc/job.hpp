// Job model of the EMI service: what a client submits (JobSpec), the
// lifecycle a job moves through, and the durable record the service keeps
// per job. The record round-trips through io::kvfile ("EMIJOB 1" magic,
// checksummed, atomically rewritten on every transition), so a SIGKILL at
// any instant leaves every job either in its previous state or its next -
// never half-transitioned, never lost.
//
// Lifecycle:
//
//   queued -> running -> done | failed | cancelled      (terminal)
//   queued -> cancelled                                  (cancel before start)
//   running -> stalled -> queued                         (lease lapse, watchdog
//                                                         requeue while
//                                                         attempts remain)
//   running -> stalled -> failed                         (attempts exhausted)
//   queued | running | stalled -> quarantined            (startup recovery of a
//                                                         crash-loop job;
//                                                         terminal, never rerun)
//
// A restart re-queues `queued` jobs and resumes `running` ones from their
// per-job flow checkpoint (falling back to a fresh deterministic rerun when
// the checkpoint is missing or torn); terminal jobs stay queryable. By the
// flow's determinism contract the resumed result is bit-identical to an
// uninterrupted run's, checkable via the recorded result fingerprint.
//
// `attempts` counts queued->running transitions and is persisted *before*
// the flow starts, so a job that crashes the process on every attempt
// accumulates evidence across restarts; recovery quarantines any
// non-terminal job whose count already reached the service's max_attempts,
// killing the crash loop instead of faithfully replaying it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/status.hpp"
#include "src/io/kvfile.hpp"

namespace emi::svc {

// Magic + format version of the on-disk job record.
inline constexpr std::string_view kJobMagic = "EMIJOB 1";

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  // Lease expired without a heartbeat: the watchdog raised the job's
  // CancelToken and is waiting for the wedged executor to let go. Not
  // terminal - the job is requeued (attempts remaining) or failed.
  kStalled,
  // Startup recovery found a crash-loop job (attempts >= max). Terminal;
  // never rerun.
  kQuarantined,
};

const char* job_state_name(JobState s);
std::optional<JobState> job_state_from_name(std::string_view name);
inline bool job_state_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled || s == JobState::kQuarantined;
}

// What a client submits: which built-in converter to run the paper's flow
// on, with the budget/sweep knobs the CLI `flow` command exposes. `client`
// names the session whose private extraction-cache tier the job runs under
// (empty = the anonymous shared session).
struct JobSpec {
  std::string topology = "buck";  // "buck" | "boost"
  std::size_t sweep_points = 60;
  std::int64_t total_budget_ms = 0;
  std::int64_t stage_budget_ms = 0;
  std::string client;
  // Opt-in adaptive sweeps (flow::FlowOptions::sweep_accel.adaptive).
  // Serialized only when set, so pre-acceleration job records keep their
  // exact bytes.
  bool adaptive_sweep = false;
  // Deterministic crash stand-in (tests only): the executor halts right
  // after this stage's checkpoint WITHOUT writing a terminal job state -
  // disk is left exactly as a SIGKILL mid-job would leave it.
  std::string stop_after_stage;
  // Crash-loop stand-in (tests only): keep the stop_after hook armed on
  // recovered reruns too, so every attempt "crashes" again and recovery's
  // quarantine path can be exercised. Without this a recovered run executes
  // with the hook disarmed (one crash, then a clean resume).
  bool poison = false;
};

// Validate a spec at the submission boundary (unknown topology, zero sweep,
// bad stage name) so malformed jobs are rejected before they are durable.
[[nodiscard]] core::Status validate_job_spec(const JobSpec& spec);

struct JobRecord {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  // FNV-1a fingerprint of the canonical FlowResult serialization
  // (flow::result_fingerprint); recorded for done AND failed jobs so
  // bit-identity is checkable even for partial results. 0 = not yet run.
  std::uint64_t fingerprint = 0;
  bool complete = false;       // FlowResult::complete of the terminal result
  std::string detail;          // terminal status note ("cancelled", first diag)
  // queued->running transitions so far, persisted before each run starts;
  // recovery quarantines non-terminal jobs whose count reached max_attempts.
  std::uint32_t attempts = 0;
};

// kv round-trip; field order is fixed so identical records serialize to
// identical bytes.
std::vector<io::KvRecord> job_to_records(const JobRecord& job);
[[nodiscard]] core::Result<JobRecord> job_from_records(const std::vector<io::KvRecord>& records);

// Convenience: the record file inside a job's state directory.
[[nodiscard]] core::Status save_job_record(const std::string& path, const JobRecord& job);
[[nodiscard]] core::Result<JobRecord> load_job_record(const std::string& path);

}  // namespace emi::svc
