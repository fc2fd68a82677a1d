// The job service end to end: lifecycle persistence, bit-identical results
// across queue interleavings and sessions, cooperative cancel, crash-sim
// halt + restart recovery (resume from the job's flow checkpoint), corrupt
// checkpoint fallback, a fault-injection soak asserting no job is ever
// lost or left non-terminal, and the terminal_fd() wake-up after every
// transition wait() is notified of.
#include "src/svc/service.hpp"

#include <poll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/fault_injection.hpp"
#include "src/svc/job.hpp"

namespace emi::svc {
namespace {

namespace fs = std::filesystem;

struct Guards {
  ~Guards() { core::FaultInjector::instance().disarm(); }
};

std::string fresh_dir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + name;
  fs::remove_all(dir);
  return dir;
}

JobSpec quick_spec(const std::string& client = "t") {
  JobSpec spec;
  spec.topology = "buck";
  spec.sweep_points = 30;
  spec.client = client;
  return spec;
}

// Job-record numbers are what job_to_records writes - bare decimal digits
// and a 16-digit hex fingerprint - so a sign, a blank or a 0x prefix is a
// parse error, even where the number it spells is valid.
TEST(SvcJobRecord, SignedOrPrefixedNumbersAreParseErrors) {
  JobRecord job;
  job.id = 7;
  job.spec = quick_spec();
  job.state = JobState::kDone;
  job.attempts = 1;
  job.fingerprint = 0x6a34fcece0e8e0f7ull;
  const std::vector<io::KvRecord> good = job_to_records(job);
  ASSERT_TRUE(job_from_records(good).ok());

  const auto code_with = [&](const std::string& key, const std::string& value) {
    std::vector<io::KvRecord> records = good;
    for (auto& [k, v] : records) {
      if (k == key) v = value;
    }
    return job_from_records(records).status().code();
  };
  EXPECT_EQ(code_with("points", "+60"), core::ErrorCode::kParseError);
  EXPECT_EQ(code_with("points", " 60"), core::ErrorCode::kParseError);
  EXPECT_EQ(code_with("id", "+7"), core::ErrorCode::kParseError);
  EXPECT_EQ(code_with("attempts", "+1"), core::ErrorCode::kParseError);
  EXPECT_EQ(code_with("fingerprint", "0x6a34fcece0e8e0f7"), core::ErrorCode::kParseError);
  EXPECT_EQ(code_with("fingerprint", "0x34fcece0e8e0f7"), core::ErrorCode::kParseError);
  EXPECT_EQ(code_with("fingerprint", "+a34fcece0e8e0f7"), core::ErrorCode::kParseError);
}

TEST(SvcService, LifecyclePersistsTerminalRecord) {
  const std::string dir = fresh_dir("svc_lifecycle");
  Service svc({dir, 1, 8});
  const core::Result<std::uint64_t> id = svc.submit(quick_spec());
  ASSERT_TRUE(id.ok());
  const core::Result<JobRecord> rec = svc.wait(id.value());
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().state, JobState::kDone);
  EXPECT_TRUE(rec.value().complete);
  EXPECT_NE(rec.value().fingerprint, 0u);

  // The terminal record survived to disk in the documented location.
  const core::Result<JobRecord> on_disk =
      load_job_record(svc.job_dir(id.value()) + "/job.state");
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(on_disk.value().state, JobState::kDone);
  EXPECT_EQ(on_disk.value().fingerprint, rec.value().fingerprint);
  // And the per-job flow checkpoint exists next to it.
  EXPECT_TRUE(fs::exists(svc.job_dir(id.value()) + "/flow.ckpt"));
}

TEST(SvcService, RejectsInvalidSpecsAndUnknownIds) {
  const std::string dir = fresh_dir("svc_invalid");
  Service svc({dir, 1, 8});
  JobSpec bad = quick_spec();
  bad.topology = "teapot";
  EXPECT_EQ(svc.submit(bad).status().code(), core::ErrorCode::kInvalidArgument);
  bad = quick_spec();
  bad.sweep_points = 1;
  EXPECT_EQ(svc.submit(bad).status().code(), core::ErrorCode::kInvalidArgument);
  bad = quick_spec();
  bad.stop_after_stage = "frobnication";
  EXPECT_EQ(svc.submit(bad).status().code(), core::ErrorCode::kInvalidArgument);
  EXPECT_EQ(svc.status(99).status().code(), core::ErrorCode::kInvalidArgument);
  EXPECT_EQ(svc.cancel(99).code(), core::ErrorCode::kInvalidArgument);
  // Nothing invalid left a directory behind.
  EXPECT_EQ(svc.stats().submitted, 0u);
}

// The tentpole determinism contract: identical specs submitted to any mix of
// sessions, against any executor count, come back with identical
// fingerprints - queue interleaving and cache sharing never change bits.
TEST(SvcService, IdenticalJobsBitIdenticalAcrossInterleavings) {
  std::uint64_t serial_fp = 0;
  {
    Service svc({fresh_dir("svc_serial"), 1, 16});
    const auto id = svc.submit(quick_spec("solo"));
    ASSERT_TRUE(id.ok());
    const auto rec = svc.wait(id.value());
    ASSERT_TRUE(rec.ok());
    ASSERT_EQ(rec.value().state, JobState::kDone);
    serial_fp = rec.value().fingerprint;
  }

  Service svc({fresh_dir("svc_parallel"), 4, 16});
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const auto id = svc.submit(quick_spec("client-" + std::to_string(i % 2)));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (const std::uint64_t id : ids) {
    const auto rec = svc.wait(id);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec.value().state, JobState::kDone);
    EXPECT_EQ(rec.value().fingerprint, serial_fp);
  }
  EXPECT_GE(svc.stats().sessions, 2u);
}

TEST(SvcService, CancelQueuedJobNeverRuns) {
  const std::string dir = fresh_dir("svc_cancel");
  Service svc({dir, 1, 8});
  // Fill the single executor, then cancel a job stuck behind it.
  const auto running = svc.submit(quick_spec());
  const auto queued = svc.submit(quick_spec());
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE(svc.cancel(queued.value()).ok());
  const auto rec = svc.wait(queued.value());
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().state, JobState::kCancelled);
  EXPECT_FALSE(rec.value().complete);
  // Cancelling a terminal job is an ok no-op.
  EXPECT_TRUE(svc.cancel(queued.value()).ok());
  // The job ahead of it is unaffected.
  EXPECT_EQ(svc.wait(running.value()).value().state, JobState::kDone);
}

// Crash-sim halt, then restart recovery: the stop_after hook halts the
// executor with the disk still saying `running` (the exact file state of a
// SIGKILL); a new service over the same state dir re-queues the job, resumes
// from its flow checkpoint, and the final fingerprint is bit-identical to an
// uninterrupted run's.
TEST(SvcService, CrashSimThenRestartResumesBitIdentical) {
  std::uint64_t reference_fp = 0;
  {
    Service svc({fresh_dir("svc_ref"), 1, 8});
    const auto id = svc.submit(quick_spec("crash"));
    ASSERT_TRUE(id.ok());
    reference_fp = svc.wait(id.value()).value().fingerprint;
  }

  const std::string dir = fresh_dir("svc_crash");
  std::uint64_t job_id = 0;
  {
    Service svc({dir, 1, 8});
    JobSpec spec = quick_spec("crash");
    spec.stop_after_stage = "rule_derivation";
    const auto id = svc.submit(spec);
    ASSERT_TRUE(id.ok());
    job_id = id.value();
    const auto rec = svc.wait(job_id);  // unblocks on the crash-sim halt
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec.value().state, JobState::kRunning);  // disk agrees
  }
  const auto on_disk = load_job_record(dir + "/job-" + std::to_string(job_id) +
                                       "/job.state");
  ASSERT_TRUE(on_disk.ok());
  ASSERT_EQ(on_disk.value().state, JobState::kRunning);

  Service restarted({dir, 1, 8});
  EXPECT_EQ(restarted.stats().recovered, 1u);
  const auto rec = restarted.wait(job_id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().state, JobState::kDone);
  EXPECT_EQ(rec.value().fingerprint, reference_fp);
}

// A torn flow checkpoint must never poison recovery: the job falls back to a
// fresh deterministic rerun and still lands on the reference fingerprint.
TEST(SvcService, CorruptCheckpointFallsBackToFreshRerun) {
  std::uint64_t reference_fp = 0;
  {
    Service svc({fresh_dir("svc_ref2"), 1, 8});
    const auto id = svc.submit(quick_spec("torn"));
    ASSERT_TRUE(id.ok());
    reference_fp = svc.wait(id.value()).value().fingerprint;
  }

  const std::string dir = fresh_dir("svc_torn");
  std::uint64_t job_id = 0;
  {
    Service svc({dir, 1, 8});
    JobSpec spec = quick_spec("torn");
    spec.stop_after_stage = "sensitivity";
    const auto id = svc.submit(spec);
    ASSERT_TRUE(id.ok());
    job_id = id.value();
    (void)svc.wait(job_id);
  }
  // Tear the checkpoint the way a mid-write kill would.
  const std::string ckpt = dir + "/job-" + std::to_string(job_id) + "/flow.ckpt";
  std::ofstream out(ckpt, std::ios::trunc);
  out << "EMICKPT 1 0000000000000000\ngarbage\n";
  out.close();

  Service restarted({dir, 1, 8});
  const auto rec = restarted.wait(job_id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().state, JobState::kDone);
  EXPECT_EQ(rec.value().fingerprint, reference_fp);
}

// A job.state file damaged outside the atomic-write protocol is surfaced as
// a failed-but-visible job, never silently dropped and never re-run.
TEST(SvcService, CorruptJobStateSurfacesAsFailed) {
  const std::string dir = fresh_dir("svc_badstate");
  std::uint64_t job_id = 0;
  {
    Service svc({dir, 1, 8});
    const auto id = svc.submit(quick_spec());
    ASSERT_TRUE(id.ok());
    job_id = id.value();
    (void)svc.wait(job_id);
  }
  std::ofstream out(dir + "/job-" + std::to_string(job_id) + "/job.state",
                    std::ios::trunc);
  out << "EMIJOB 1\nkv state done\n";  // no checksum line
  out.close();

  Service restarted({dir, 1, 8});
  const auto rec = restarted.status(job_id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().state, JobState::kFailed);
  EXPECT_FALSE(rec.value().detail.empty());
  // New submissions keep allocating past the damaged id.
  const auto id2 = restarted.submit(quick_spec());
  ASSERT_TRUE(id2.ok());
  EXPECT_GT(id2.value(), job_id);
}

// Soak: every injection site the flow owns (pool/cache/lu/io/ckpt) firing at
// once. Jobs may fail - that is the taxonomy working - but every job must
// reach a terminal state, keep its record queryable, and none may vanish.
TEST(SvcService, FaultInjectionSoakLosesNoJobs) {
  Guards guards;
  ASSERT_TRUE(core::FaultInjector::instance().configure_from_spec(
      "pool:0.05:7,cache:0.05:9,lu:0.05:11,io:0.02:13,ckpt:0.1:17"));
  const std::string dir = fresh_dir("svc_soak");
  constexpr int kJobs = 6;
  std::vector<std::uint64_t> ids;
  {
    Service svc({dir, 2, 16});
    for (int i = 0; i < kJobs; ++i) {
      const auto id = svc.submit(quick_spec("soak-" + std::to_string(i % 3)));
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
    }
    for (const std::uint64_t id : ids) {
      const auto rec = svc.wait(id);
      ASSERT_TRUE(rec.ok());
      EXPECT_TRUE(job_state_terminal(rec.value().state))
          << "job " << id << " left non-terminal";
    }
    const ServiceStats s = svc.stats();
    EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(s.queued + s.running, 0u);
    EXPECT_EQ(s.done + s.failed + s.cancelled,
              static_cast<std::uint64_t>(kJobs));
  }
  core::FaultInjector::instance().disarm();

  // Restart with the injector disarmed: no terminal job reruns, nothing is
  // re-queued, every record is still queryable.
  Service restarted({dir, 1, 16});
  const ServiceStats s = restarted.stats();
  EXPECT_EQ(s.recovered, static_cast<std::uint64_t>(kJobs));
  // Every id is still queryable - no job vanished. Any job whose terminal
  // write was eaten by an io fault re-queues and finishes now.
  for (const std::uint64_t id : ids) {
    ASSERT_TRUE(restarted.status(id).ok()) << "job " << id << " lost";
  }
  for (const std::uint64_t id : ids) {
    const auto rec = restarted.wait(id);
    ASSERT_TRUE(rec.ok());
    EXPECT_TRUE(job_state_terminal(rec.value().state));
  }
}

// --- overload hardening -----------------------------------------------------

// Admission sheds a submission against a full queue with kResourceExhausted
// and a parseable retry_after_ms token in the message. Deterministic setup:
// one executor pinned on job 1, one job filling the capacity-1 queue.
TEST(SvcService, FullQueueSubmissionShedWithRetryAfterHint) {
  Service svc({fresh_dir("svc_shed"), 1, 1});
  const auto running = svc.submit(quick_spec());
  ASSERT_TRUE(running.ok());
  // Wait until the executor owns job 1, so the queue is deterministically
  // empty before the filler goes in.
  while (svc.status(running.value()).value().state == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto queued = svc.submit(quick_spec());
  ASSERT_TRUE(queued.ok());

  const auto shed = svc.submit(quick_spec());
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), core::ErrorCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("queue full"), std::string::npos)
      << shed.status().message();
  EXPECT_NE(shed.status().message().find(" retry_after_ms="), std::string::npos)
      << shed.status().message();
  EXPECT_EQ(svc.health().shed, 1u);
  // The shed submission left no job behind; the admitted ones finish.
  EXPECT_EQ(svc.stats().submitted, 2u);
  EXPECT_EQ(svc.wait(running.value()).value().state, JobState::kDone);
  EXPECT_EQ(svc.wait(queued.value()).value().state, JobState::kDone);
}

// With latency evidence in the EWMA, a budget the projection cannot meet is
// shed before any durable work happens.
TEST(SvcService, UnmeetableBudgetShedOnceEvidenceExists) {
  Service svc({fresh_dir("svc_deadline_shed"), 1, 8});
  // Budgetless warm-up job: feeds the admission EWMA (jobs take >> 1 ms).
  const auto warm = svc.submit(quick_spec());
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(svc.wait(warm.value()).value().state, JobState::kDone);
  ASSERT_GT(svc.health().ewma_job_ms, 1.0);

  JobSpec doomed = quick_spec();
  doomed.total_budget_ms = 1;
  const auto shed = svc.submit(doomed);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), core::ErrorCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("deadline unmeetable"), std::string::npos)
      << shed.status().message();
  EXPECT_NE(shed.status().message().find(" retry_after_ms="), std::string::npos);
  // A generous budget sails through.
  JobSpec fine = quick_spec();
  fine.total_budget_ms = 600000;
  const auto ok = svc.submit(fine);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(job_state_terminal(svc.wait(ok.value()).value().state));
}

// The hung-job watchdog end to end: an injected wedge (no heartbeats, no
// poll points) must be detected by lease expiry, durably marked `stalled`,
// unwedged via the CancelToken, requeued, and the retry - which re-rolls the
// wedge key - must land on the bit-identical reference fingerprint.
// wedge:0.5:3 wedges job id 1 on attempt 1 only (attempts 2+ run clean).
TEST(SvcService, WedgedJobStalledRequeuedAndBitIdentical) {
  std::uint64_t reference_fp = 0;
  {
    Service svc({fresh_dir("svc_wedge_ref"), 1, 8});
    const auto id = svc.submit(quick_spec("wedge"));
    ASSERT_TRUE(id.ok());
    reference_fp = svc.wait(id.value()).value().fingerprint;
  }

  Guards guards;
  ASSERT_TRUE(core::FaultInjector::instance().configure_from_spec("wedge:0.5:3"));
  // The lease must be generous enough that only the wedge (an *infinite*
  // hang) ever trips it: a clean attempt's longest stage runs well under a
  // second even on a loaded single-core sanitizer build, so 1500 ms keeps
  // legitimate work from stalling while detection stays ~lease + tick.
  Service svc(
      {fresh_dir("svc_wedge"), 1, 8, /*lease_ms=*/1500, /*max_attempts=*/3});
  const auto id = svc.submit(quick_spec("wedge"));
  ASSERT_TRUE(id.ok());
  const auto rec = svc.wait(id.value());
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().state, JobState::kDone);
  // Attempt 1 wedges; attempt 2 finishes - unless the machine is loaded
  // enough that a legitimately-running attempt also overruns the lease, in
  // which case the watchdog correctly stalls it too and a later attempt
  // completes. Any count in [2, max] is correct behavior; what must NEVER
  // vary is the result bits.
  EXPECT_GE(rec.value().attempts, 2u);
  EXPECT_LE(rec.value().attempts, 3u);
  EXPECT_EQ(rec.value().fingerprint, reference_fp);
  const ServiceHealth h = svc.health();
  EXPECT_GE(h.stall_events, 1u);
  EXPECT_EQ(h.stalled, 0u);  // nothing left stuck
}

// A job that wedges on every attempt burns max_attempts and fails terminally
// with the stall history in its detail. wedge:0.9:1 wedges job 1 on attempts
// 1, 2 and 3.
TEST(SvcService, PersistentWedgeFailsAfterMaxAttempts) {
  Guards guards;
  ASSERT_TRUE(core::FaultInjector::instance().configure_from_spec("wedge:0.9:1"));
  Service svc({fresh_dir("svc_wedge_burn"), 1, 8, /*lease_ms=*/60,
               /*max_attempts=*/2});
  const auto id = svc.submit(quick_spec("burn"));
  ASSERT_TRUE(id.ok());
  const auto rec = svc.wait(id.value());
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().state, JobState::kFailed);
  EXPECT_FALSE(rec.value().complete);
  EXPECT_EQ(rec.value().attempts, 2u);
  EXPECT_NE(rec.value().detail.find("stalled after 2 attempts"), std::string::npos)
      << rec.value().detail;
  // The failure is durable and recovery does NOT resurrect it.
  Service restarted({svc.state_dir(), 1, 8});
  EXPECT_EQ(restarted.status(id.value()).value().state, JobState::kFailed);
}

// Poison-job quarantine: a job that takes the process down on every attempt
// (poison keeps the crash-sim hook armed across recoveries) accumulates
// persisted attempts and is quarantined - terminal, queryable, never run
// again - once recovery sees max_attempts burned.
TEST(SvcService, PoisonJobQuarantinedAfterRepeatedCrashes) {
  const std::string dir = fresh_dir("svc_poison");
  JobSpec spec = quick_spec("poison");
  spec.stop_after_stage = "sensitivity";
  spec.poison = true;
  // Poison without a crash-sim stage is rejected up front.
  {
    JobSpec bad = quick_spec();
    bad.poison = true;
    Service svc({fresh_dir("svc_poison_bad"), 1, 8});
    EXPECT_EQ(svc.submit(bad).status().code(), core::ErrorCode::kInvalidArgument);
  }

  std::uint64_t job_id = 0;
  {  // Process 1: attempt 1 "crashes" (disk: running, attempts=1).
    Service svc({dir, 1, 8, /*lease_ms=*/0, /*max_attempts=*/2});
    const auto id = svc.submit(spec);
    ASSERT_TRUE(id.ok());
    job_id = id.value();
    (void)svc.wait(job_id);
  }
  {  // Process 2: recovery requeues (attempts=1 < 2); poison crashes again.
    Service svc({dir, 1, 8, /*lease_ms=*/0, /*max_attempts=*/2});
    (void)svc.wait(job_id);
    const auto on_disk = load_job_record(dir + "/job-" + std::to_string(job_id) +
                                         "/job.state");
    ASSERT_TRUE(on_disk.ok());
    EXPECT_EQ(on_disk.value().attempts, 2u);  // evidence persisted pre-crash
  }
  // Process 3: attempts=2 >= max_attempts=2 -> quarantined, not replayed.
  Service svc({dir, 1, 8, /*lease_ms=*/0, /*max_attempts=*/2});
  const auto rec = svc.status(job_id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().state, JobState::kQuarantined);
  EXPECT_TRUE(job_state_terminal(rec.value().state));
  EXPECT_NE(rec.value().detail.find("quarantined after 2 attempts"),
            std::string::npos)
      << rec.value().detail;
  EXPECT_EQ(svc.stats().quarantined, 1u);
  EXPECT_EQ(svc.health().quarantined, 1u);
  // wait() on a quarantined job returns immediately (it is terminal)...
  EXPECT_EQ(svc.wait(job_id).value().state, JobState::kQuarantined);
  // ...and the service still takes new work.
  const auto next = svc.submit(quick_spec());
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(svc.wait(next.value()).value().state, JobState::kDone);
}

// Graceful drain: admissions stop, in-flight jobs finish, the queued backlog
// stays durable in `queued` state, and a restart loses nothing - every job
// eventually lands done with identical fingerprints.
TEST(SvcService, DrainFinishesInFlightKeepsBacklogDurable) {
  const std::string dir = fresh_dir("svc_drain");
  std::vector<std::uint64_t> ids;
  {
    Service svc({dir, 1, 16});
    for (int i = 0; i < 4; ++i) {
      const auto id = svc.submit(quick_spec("drain"));
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
    }
    EXPECT_FALSE(svc.draining());
    // Drain with job 1 deterministically in flight, so at least one job
    // lands done in this process and the rest stay queued.
    while (svc.status(ids[0]).value().state == JobState::kQueued) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    svc.begin_drain();
    EXPECT_TRUE(svc.draining());
    EXPECT_TRUE(svc.health().draining);
    // Submissions are refused while draining - a state the operator chose,
    // not an overload, hence failed_precondition rather than shed.
    const auto refused = svc.submit(quick_spec());
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), core::ErrorCode::kFailedPrecondition);
    EXPECT_NE(refused.status().message().find("draining"), std::string::npos);

    while (!svc.drain_complete()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // The executor only had time for a prefix of the backlog; the rest is
    // still queued (jobs take tens of ms, the four submits took microseconds).
    const ServiceStats s = svc.stats();
    EXPECT_GE(s.done, 1u);
    EXPECT_GE(s.queued, 1u);
    EXPECT_EQ(s.running, 0u);
  }
  // Restart: the queued backlog recovers and everything reaches done with
  // one common fingerprint (identical specs -> identical bits).
  Service restarted({dir, 2, 16});
  EXPECT_EQ(restarted.stats().recovered, 4u);
  std::uint64_t fp = 0;
  for (const std::uint64_t id : ids) {
    const auto rec = restarted.wait(id);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec.value().state, JobState::kDone) << "job " << id;
    if (fp == 0) fp = rec.value().fingerprint;
    EXPECT_EQ(rec.value().fingerprint, fp);
  }
}

// --- terminal wake-ups -------------------------------------------------------
//
// Every transition wait() is notified of writes one byte to terminal_fd(),
// in the same critical section: once wait() (or a synchronous cancel)
// returns, the bytes are already there, so they can be counted at once.

bool readable(int fd) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, 0) == 1 && (p.revents & POLLIN) != 0;
}

// Empties the pipe; how many bytes it held.
std::size_t take_wakes(int fd) {
  std::size_t n = 0;
  char buf[64];
  for (ssize_t got; (got = ::read(fd, buf, sizeof buf)) > 0;) {
    n += static_cast<std::size_t>(got);
  }
  return n;
}

void wait_until_running(const Service& svc, std::uint64_t id) {
  while (svc.status(id).value().state == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(SvcTerminalWake, DoneFailedAndCancelledWhileRunningWakeTheFd) {
  Guards guards;
  Service svc({fresh_dir("svc_wake_done"), 1, 8});
  const int fd = svc.terminal_fd();
  EXPECT_FALSE(readable(fd));

  const auto done = svc.submit(quick_spec());
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(svc.wait(done.value()).value().state, JobState::kDone);
  EXPECT_EQ(take_wakes(fd), 1u);
  EXPECT_FALSE(readable(fd));

  // Every stage attempt overruns its injected deadline: a partial result.
  ASSERT_TRUE(core::FaultInjector::instance().configure_from_spec("deadline:1:7"));
  const auto failed = svc.submit(quick_spec());
  ASSERT_TRUE(failed.ok());
  ASSERT_EQ(svc.wait(failed.value()).value().state, JobState::kFailed);
  EXPECT_EQ(take_wakes(fd), 1u);

  // A wedged executor spins until its CancelToken is raised.
  ASSERT_TRUE(core::FaultInjector::instance().configure_from_spec("wedge:1:1"));
  const auto wedged = svc.submit(quick_spec());
  ASSERT_TRUE(wedged.ok());
  wait_until_running(svc, wedged.value());
  EXPECT_FALSE(readable(fd));
  ASSERT_TRUE(svc.cancel(wedged.value()).ok());
  ASSERT_EQ(svc.wait(wedged.value()).value().state, JobState::kCancelled);
  EXPECT_EQ(take_wakes(fd), 1u);
}

TEST(SvcTerminalWake, QueuedCancelAndCrashSimHaltWakeTheFd) {
  Guards guards;
  {
    ASSERT_TRUE(core::FaultInjector::instance().configure_from_spec("wedge:1:1"));
    Service svc({fresh_dir("svc_wake_queued"), 1, 8});
    const int fd = svc.terminal_fd();
    const auto running = svc.submit(quick_spec());
    const auto queued = svc.submit(quick_spec());
    ASSERT_TRUE(running.ok());
    ASSERT_TRUE(queued.ok());
    wait_until_running(svc, running.value());
    EXPECT_FALSE(readable(fd));
    ASSERT_TRUE(svc.cancel(queued.value()).ok());  // synchronous: never ran
    EXPECT_EQ(take_wakes(fd), 1u);
    EXPECT_EQ(svc.status(queued.value()).value().state, JobState::kCancelled);
    ASSERT_TRUE(svc.cancel(running.value()).ok());
    ASSERT_EQ(svc.wait(running.value()).value().state, JobState::kCancelled);
  }
  core::FaultInjector::instance().disarm();

  Service svc({fresh_dir("svc_wake_halt"), 1, 8});
  JobSpec spec = quick_spec();
  spec.stop_after_stage = "sensitivity";
  const auto id = svc.submit(spec);
  ASSERT_TRUE(id.ok());
  // wait() returns on the halt with the record still `running`.
  ASSERT_EQ(svc.wait(id.value()).value().state, JobState::kRunning);
  EXPECT_EQ(take_wakes(svc.terminal_fd()), 1u);
}

// A lapsed lease requeues the job while attempts remain and fails it once
// they are burned: two transitions, two bytes. wait() sleeps through the
// requeue, so both are in the pipe when it returns.
TEST(SvcTerminalWake, StallRequeueAndStallFailureWakeTheFd) {
  Guards guards;
  ASSERT_TRUE(core::FaultInjector::instance().configure_from_spec("wedge:1:1"));
  Service svc({fresh_dir("svc_wake_stall"), 1, 8, /*lease_ms=*/60, /*max_attempts=*/2});
  const auto id = svc.submit(quick_spec());
  ASSERT_TRUE(id.ok());
  const JobRecord rec = svc.wait(id.value()).value();
  ASSERT_EQ(rec.state, JobState::kFailed);
  EXPECT_EQ(rec.attempts, 2u);
  EXPECT_EQ(take_wakes(svc.terminal_fd()), 2u);
}

// HEALTH snapshot basics: cold values, then live values after one job.
TEST(SvcService, HealthSnapshotReflectsLoad) {
  Service svc({fresh_dir("svc_health"), 2, 8});
  ServiceHealth h = svc.health();
  EXPECT_EQ(h.queue_depth, 0u);
  EXPECT_EQ(h.queue_capacity, 8u);
  EXPECT_EQ(h.executors, 2u);
  EXPECT_EQ(h.ewma_job_ms, 0.0);
  EXPECT_GE(h.retry_after_ms, 1);  // cold hint still tells clients to pace
  EXPECT_FALSE(h.draining);

  const auto id = svc.submit(quick_spec());
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(svc.wait(id.value()).value().state, JobState::kDone);
  h = svc.health();
  EXPECT_GT(h.ewma_job_ms, 0.0);
  EXPECT_EQ(h.running, 0u);
  EXPECT_EQ(h.shed, 0u);
}

}  // namespace
}  // namespace emi::svc
