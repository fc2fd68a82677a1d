// The EMI design flow as a service: a bounded FIFO of flow jobs executed by
// a small pool of executor threads, with per-job crash-safe state under one
// state directory and per-client shared extraction caches.
//
// Layout of the state directory:
//
//   <state_dir>/job-<id>/job.state    checksummed kv record (svc/job.hpp)
//   <state_dir>/job-<id>/flow.ckpt    the job's flow checkpoint (EMICKPT 1)
//
// Crash safety. job.state is rewritten atomically at every transition, and
// the flow checkpoint is rewritten after every decided stage - so a SIGKILL
// at any instant loses at most the stage in flight. On construction the
// service scans the directory in job-id order: `queued` jobs re-enter the
// queue, `running` jobs are re-queued and resume from their checkpoint
// (falling back to a fresh deterministic rerun when the checkpoint is
// missing, torn, or from a different configuration), terminal jobs stay
// queryable. By the flow determinism contract a resumed job's result is
// bit-identical to an uninterrupted run's - the recorded fingerprint makes
// that checkable.
//
// Determinism. Executors only decide *when* a job runs, never what it
// computes: job results are pure functions of the JobSpec (shared caches
// return bit-identical values by key purity; the pool is deterministic at
// any thread count), so identical specs submitted to any mix of sessions
// yield identical fingerprints regardless of queue interleaving.
//
// Overload and resilience. SUBMIT passes through an AdmissionController
// (svc/admission.hpp): a full queue or an unmeetable deadline is shed with
// kResourceExhausted and a retry_after_ms hint instead of being enqueued.
// When `lease_ms` is set, a watchdog thread supervises running jobs via
// heartbeats beaten from the flow's stage-attempt boundaries: a lapsed
// lease marks the job `stalled`, raises its CancelToken (the only thing
// that can unwedge a stuck executor), and the freed executor requeues it -
// until `max_attempts` queued->running transitions, after which it fails.
// Attempt counts are persisted before each run, so startup recovery
// quarantines (terminal `quarantined`) any non-terminal job that already
// burned max_attempts - a job that crashes the process on every attempt is
// retired instead of replayed forever.
//
// A graceful shutdown (destructor) closes the queue, finishes the jobs
// already running, and leaves still-queued jobs on disk in `queued` state
// for the next start - shutdown never cancels or loses work. begin_drain()
// is the protocol-visible variant (SHUTDOWN DRAIN): admissions stop,
// executors finish only the jobs already started, and drain_complete()
// reports when the last in-flight job landed.
//
// Wake-ups. Every transition wait() is notified of - a terminal state, a
// crash-sim halt, a stall requeue - also writes one byte to a self-pipe
// whose read end is terminal_fd(), so a poll() loop (svc/server.hpp) learns
// of a finished job the moment it lands instead of on a timer.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/deadline.hpp"
#include "src/core/thread_annotations.hpp"
#include "src/core/status.hpp"
#include "src/svc/admission.hpp"
#include "src/svc/job.hpp"
#include "src/svc/job_queue.hpp"
#include "src/svc/session.hpp"

namespace emi::svc {

// A POSIX self-pipe, both ends non-blocking and close-on-exec, used as a
// wake-up signal for a poll() loop. signal() writes one byte: write(2) is
// async-signal-safe, and a full pipe (EAGAIN) is already readable, so it
// never blocks and never loses a wake. The loop polls read_fd() and empties
// it before it looks at the state the bytes announce; a signal() after
// that leaves a byte behind and wakes the next poll.
class SelfPipe {
 public:
  SelfPipe();  // throws std::runtime_error when pipe(2) fails
  ~SelfPipe();

  SelfPipe(const SelfPipe&) = delete;
  SelfPipe& operator=(const SelfPipe&) = delete;

  int read_fd() const { return fds_[0]; }
  void signal() const;

 private:
  int fds_[2] = {-1, -1};
};

struct ServiceOptions {
  std::string state_dir;           // required; created if absent
  std::size_t executors = 1;       // worker threads taking jobs off the queue
  std::size_t queue_capacity = 64; // SUBMIT is shed deterministically when full
  // Hung-job watchdog: a running job whose last heartbeat is older than this
  // is declared stalled, its CancelToken raised, and it is requeued (or
  // failed once max_attempts is burned). 0 = watchdog off. Heartbeats beat
  // at flow stage-attempt boundaries, so the lease must comfortably exceed
  // the longest single stage attempt of the workload.
  std::int64_t lease_ms = 0;
  // Upper bound on queued->running transitions per job, enforced by the
  // watchdog requeue path and by startup recovery (quarantine).
  std::uint32_t max_attempts = 3;
};

struct ServiceStats {
  std::uint64_t submitted = 0;  // accepted by this process (excludes recovered)
  std::uint64_t recovered = 0;  // re-queued or restored by the startup scan
  std::uint64_t queued = 0;     // current state counts over all known jobs
  std::uint64_t running = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t stalled = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t sessions = 0;
  peec::CacheTierStats global_cache;  // shared-tier hit/miss counters
  // Sweep economics accumulated over every terminal job's flow profile
  // (`sweep.*` counters). full_solves counts every job's solved points;
  // the other three stay zero while no job opted into acceleration.
  std::uint64_t sweep_full_solves = 0;
  std::uint64_t sweep_interp_points = 0;
  std::uint64_t sweep_surrogate_evals = 0;
  std::uint64_t sweep_escalations = 0;
  double sweep_max_residual_db = 0.0;  // worst residual over all jobs
};

// Snapshot for the HEALTH protocol verb: the numbers an operator (or a
// load balancer) needs to reason about shed/stall/drain behavior.
struct ServiceHealth {
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t executors = 0;
  std::uint64_t running = 0;       // live leases (jobs currently executing)
  std::uint64_t stalled = 0;       // jobs currently in the stalled state
  std::uint64_t stall_events = 0;  // lease expiries observed (cumulative)
  std::uint64_t shed = 0;          // submissions rejected by admission control
  std::uint64_t quarantined = 0;   // jobs quarantined by startup recovery
  double ewma_job_ms = 0.0;        // admission EWMA of per-job service time
  std::int64_t retry_after_ms = 0; // current backlog-drain hint
  bool draining = false;
};

class Service {
 public:
  // Scans `opt.state_dir` and recovers jobs before any executor starts, so
  // recovered jobs run before newly submitted ones. Throws std::runtime_error
  // only if the state directory or the wake-up pipe cannot be created.
  explicit Service(ServiceOptions opt);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Validate, persist as queued, enqueue. Returns the job id, or the
  // validation / queue-full / persistence error (nothing enqueued unless
  // durable first).
  [[nodiscard]] core::Result<std::uint64_t> submit(const JobSpec& spec);

  // Snapshot of the job's current record; kInvalidArgument for unknown ids.
  [[nodiscard]] core::Result<JobRecord> status(std::uint64_t id) const;

  // Cooperative cancel: a queued job is marked cancelled and skipped at
  // dequeue; a running job's CancelToken is raised and the flow stops at
  // its next poll point. Cancelling a terminal job is a no-op (ok).
  [[nodiscard]] core::Status cancel(std::uint64_t id);

  // Block until the job reaches a terminal state (or its executor halted
  // via the crash-sim hook) and return the final record.
  [[nodiscard]] core::Result<JobRecord> wait(std::uint64_t id);

  ServiceStats stats() const;
  ServiceHealth health() const;

  // Graceful drain: stop admitting, freeze the queue (executors finish only
  // what they already started; queued jobs stay durable on disk for the
  // next start) and let drain_complete() report when in-flight work landed.
  // Irreversible for this process.
  void begin_drain();
  bool drain_complete() const;
  bool draining() const;

  // Read end of the wake-up pipe: readable after every transition wait()
  // is notified of. One poll loop owns it and empties it before it reads
  // job state. With no reader the pipe fills up and stays readable;
  // nothing blocks.
  int terminal_fd() const { return terminal_pipe_.read_fd(); }

  const std::string& state_dir() const { return opt_.state_dir; }
  std::string job_dir(std::uint64_t id) const;

 private:
  struct Job {
    JobRecord rec;
    core::CancelToken cancel;
    // Crash-sim halt: the executor stopped without writing a terminal
    // state (in-memory only; disk still says `running`).
    bool crash_simmed = false;
    // Re-queued by the startup scan: the spec's crash-sim hook already
    // fired in the previous process, so this run executes it disarmed -
    // recovery models the restart *after* the crash, not another crash.
    // (A poison spec keeps the hook armed; see JobSpec::poison.)
    bool recovered_run = false;
    // A CANCEL verb reached this job while it was running or stalled; the
    // terminal transition honors it over a watchdog requeue.
    bool user_cancelled = false;
    // Last heartbeat, steady-clock ms. Written lock-free from flow
    // stage-attempt boundaries; read by the watchdog.
    std::atomic<std::int64_t> last_beat_ms{0};
  };

  void executor_loop();
  void watchdog_loop() EMI_EXCLUDES(mu_);
  // Runs the flow for `job` without mu_ held. The executor owns a running
  // job's record between the queued->running and terminal transitions
  // (both under mu_) - with one exception: the watchdog may flip
  // state/detail to `stalled` under mu_, which the terminal transition
  // re-reads under mu_ before deciding requeue vs terminal.
  void run_job(Job& job) EMI_EXCLUDES(mu_);
  // Persist the record to the job's state file; failures become the job's
  // detail but never tear the file (atomic writer).
  void persist(Job& job) EMI_REQUIRES(mu_);
  // Wakes wait()ers and terminal_fd()'s reader after a terminal transition,
  // a crash-sim halt or a stall requeue.
  void notify_terminal() EMI_REQUIRES(mu_);
  void recover() EMI_REQUIRES(mu_);  // ctor-only, before any executor starts
  Job* find(std::uint64_t id) EMI_REQUIRES(mu_);
  const Job* find(std::uint64_t id) const EMI_REQUIRES(mu_);

  ServiceOptions opt_;
  JobQueue queue_;
  SessionManager sessions_;
  AdmissionController admission_;  // own lock, always acquired after mu_

  mutable core::Mutex mu_;                // guards jobs_, next_id_, counters
  std::condition_variable terminal_cv_;   // see notify_terminal()
  SelfPipe terminal_pipe_;                // see notify_terminal()
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_ EMI_GUARDED_BY(mu_);
  std::uint64_t next_id_ EMI_GUARDED_BY(mu_) = 1;
  std::uint64_t submitted_ EMI_GUARDED_BY(mu_) = 0;
  std::uint64_t recovered_ EMI_GUARDED_BY(mu_) = 0;
  std::uint64_t stall_events_ EMI_GUARDED_BY(mu_) = 0;
  std::uint64_t quarantined_ EMI_GUARDED_BY(mu_) = 0;
  // Accumulated `sweep.*` profile counters of terminal jobs (STATS verb).
  std::uint64_t sweep_full_solves_ EMI_GUARDED_BY(mu_) = 0;
  std::uint64_t sweep_interp_points_ EMI_GUARDED_BY(mu_) = 0;
  std::uint64_t sweep_surrogate_evals_ EMI_GUARDED_BY(mu_) = 0;
  std::uint64_t sweep_escalations_ EMI_GUARDED_BY(mu_) = 0;
  double sweep_max_residual_db_ EMI_GUARDED_BY(mu_) = 0.0;
  bool draining_ EMI_GUARDED_BY(mu_) = false;

  std::vector<std::thread> executors_;
  std::thread watchdog_;                  // running only when lease_ms > 0
  std::atomic<bool> watchdog_stop_{false};
};

}  // namespace emi::svc
