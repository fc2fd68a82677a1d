#include "src/svc/service.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "src/core/fault_injection.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/flow/checkpoint.hpp"
#include "src/flow/design_flow.hpp"
#include "src/flow/flow_units.hpp"

namespace emi::svc {

namespace fs = std::filesystem;

namespace {

// Ids of state directories that look like job dirs, ascending. Shared by
// recovery and nothing else; malformed names are ignored.
std::vector<std::uint64_t> scan_job_ids(const std::string& state_dir) {
  std::vector<std::uint64_t> ids;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(state_dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("job-", 0) != 0) continue;
    std::uint64_t id = 0;
    bool ok = name.size() > 4;
    for (std::size_t i = 4; ok && i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') {
        ok = false;
      } else {
        id = id * 10 + static_cast<std::uint64_t>(name[i] - '0');
      }
    }
    if (ok) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// First failure note worth surfacing: the last diagnostic of an incomplete
// result (the stage that sealed its fate), flattened for the kv record.
std::string terminal_detail(const flow::FlowResult& res) {
  if (res.complete || res.diagnostics.empty()) return std::string();
  return res.diagnostics.back().status.to_string();
}

// Monotonic ms for heartbeat/lease arithmetic (never wall clock; steady so
// clock adjustments cannot expire a lease).
std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SelfPipe::SelfPipe() {
  if (::pipe(fds_) != 0) {
    throw std::runtime_error(std::string("svc: cannot create a self-pipe: ") +
                             std::strerror(errno));
  }
  // A fresh pipe has no other status flags to keep.
  for (const int fd : fds_) {
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
}

SelfPipe::~SelfPipe() {
  for (const int fd : fds_) ::close(fd);
}

void SelfPipe::signal() const {
  const char byte = 1;
  // EAGAIN means the pipe is full, hence already readable: no wake is lost.
  [[maybe_unused]] const ssize_t n = ::write(fds_[1], &byte, 1);
}

Service::Service(ServiceOptions opt)
    : opt_(std::move(opt)), queue_(std::max<std::size_t>(opt_.queue_capacity, 1)) {
  if (opt_.state_dir.empty()) {
    throw std::runtime_error("svc.service: state_dir is required");
  }
  std::error_code ec;
  fs::create_directories(opt_.state_dir, ec);
  if (ec) {
    throw std::runtime_error("svc.service: cannot create state dir " +
                             opt_.state_dir + ": " + ec.message());
  }
  recover();
  const std::size_t n = std::max<std::size_t>(opt_.executors, 1);
  executors_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
  if (opt_.lease_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

Service::~Service() {
  queue_.close();
  // Executors first: a wedged executor only exits after the watchdog
  // expires its lease, so the watchdog must outlive the executor joins.
  for (std::thread& t : executors_) t.join();
  watchdog_stop_.store(true, std::memory_order_relaxed);
  if (watchdog_.joinable()) watchdog_.join();
}

std::string Service::job_dir(std::uint64_t id) const {
  return opt_.state_dir + "/job-" + std::to_string(id);
}

Service::Job* Service::find(std::uint64_t id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

const Service::Job* Service::find(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

void Service::persist(Job& job) {
  const core::Status st =
      save_job_record(job_dir(job.rec.id) + "/job.state", job.rec);
  if (!st.ok()) job.rec.detail = st.to_string();
}

void Service::notify_terminal() {
  terminal_cv_.notify_all();
  terminal_pipe_.signal();
}

void Service::recover() {
  // Re-queue in id order (= original submission order), before any executor
  // starts, so recovered work runs ahead of new submissions and in a
  // deterministic order.
  const std::vector<std::uint64_t> ids = scan_job_ids(opt_.state_dir);
  std::vector<std::uint64_t> requeue;
  for (const std::uint64_t id : ids) {
    auto job = std::make_unique<Job>();
    core::Result<JobRecord> loaded = load_job_record(job_dir(id) + "/job.state");
    if (loaded.ok()) {
      job->rec = std::move(loaded).value();
      job->rec.id = id;  // directory name is authoritative
      if (!job_state_terminal(job->rec.state)) {
        if (opt_.max_attempts > 0 && job->rec.attempts >= opt_.max_attempts) {
          // Crash loop: this job already burned its attempts in previous
          // processes (each one persisted before the run started) without
          // ever reaching a terminal state. Re-queueing it would crash us
          // too - quarantine it instead, durably and terminally.
          job->rec.state = JobState::kQuarantined;
          job->rec.detail = "quarantined after " +
                            std::to_string(job->rec.attempts) +
                            " attempts without a terminal state";
          persist(*job);
          ++quarantined_;
        } else {
          // queued: never started. running: interrupted mid-flight - its
          // flow checkpoint (if intact) makes the rerun a resume.
          job->rec.state = JobState::kQueued;
          job->recovered_run = true;
          requeue.push_back(id);
        }
      }
    } else {
      // job.state damaged outside the atomic-write protocol (the writer
      // itself cannot tear). Keep the job visible as failed instead of
      // silently dropping it; the file is left untouched as evidence.
      job->rec.id = id;
      job->rec.state = JobState::kFailed;
      job->rec.detail = loaded.status().to_string();
    }
    ++recovered_;
    jobs_.emplace(id, std::move(job));
    next_id_ = std::max(next_id_, id + 1);
  }
  // Shutdown must never lose work: grow the bound if a restart brings back
  // more jobs than the configured capacity.
  queue_.raise_capacity(requeue.size());
  // (void): push cannot fail here - the queue is empty, not closed (no
  // executor started yet), and capacity was just raised to >= requeue.size().
  for (const std::uint64_t id : requeue) (void)queue_.push(id);
}

core::Result<std::uint64_t> Service::submit(const JobSpec& spec) {
  if (core::Status st = validate_job_spec(spec); !st.ok()) return st;
  core::MutexLock lock(mu_);
  if (draining_) {
    return core::Status(core::ErrorCode::kFailedPrecondition, "svc.service",
                        "draining: not accepting new jobs");
  }
  // Admission control before anything becomes durable: a shed submission
  // must leave zero trace. The retry_after_ms token rides in the message so
  // the wire ERR line carries it verbatim for retrying clients.
  const AdmissionDecision adm = admission_.admit(
      queue_.size(), queue_.capacity(), executors_.size(), spec.total_budget_ms);
  if (!adm.admit) {
    return core::Status(core::ErrorCode::kResourceExhausted, "svc.admission",
                        adm.reason + " retry_after_ms=" +
                            std::to_string(adm.retry_after_ms));
  }
  const std::uint64_t id = next_id_;
  std::error_code ec;
  fs::create_directories(job_dir(id), ec);
  if (ec) {
    return core::Status(core::ErrorCode::kIoError, "svc.service",
                        "cannot create job dir: " + ec.message());
  }
  auto job = std::make_unique<Job>();
  job->rec.id = id;
  job->rec.spec = spec;
  job->rec.state = JobState::kQueued;
  // Durable before queued: a job id handed to a client survives any crash
  // from this point on.
  if (core::Status st = save_job_record(job_dir(id) + "/job.state", job->rec);
      !st.ok()) {
    fs::remove_all(job_dir(id), ec);
    return st;
  }
  if (core::Status st = queue_.push(id); !st.ok()) {
    // Full queue: undo the durable record so a restart cannot resurrect a
    // job whose submission the client saw rejected.
    fs::remove_all(job_dir(id), ec);
    return st;
  }
  next_id_ = id + 1;
  ++submitted_;
  jobs_.emplace(id, std::move(job));
  return id;
}

core::Result<JobRecord> Service::status(std::uint64_t id) const {
  core::MutexLock lock(mu_);
  const Job* job = find(id);
  if (job == nullptr) {
    return core::Status(core::ErrorCode::kInvalidArgument, "svc.service",
                        "unknown job id: " + std::to_string(id));
  }
  return job->rec;
}

core::Status Service::cancel(std::uint64_t id) {
  core::MutexLock lock(mu_);
  Job* job = find(id);
  if (job == nullptr) {
    return core::Status(core::ErrorCode::kInvalidArgument, "svc.service",
                        "unknown job id: " + std::to_string(id));
  }
  if (job_state_terminal(job->rec.state) || job->crash_simmed) return core::Status();
  if (job->rec.state == JobState::kQueued) {
    job->rec.state = JobState::kCancelled;
    job->rec.detail = "cancelled before start";
    persist(*job);
    notify_terminal();
    return core::Status();
  }
  // Running (or stalled): raise the token; the executor finalizes the
  // record at the flow's next poll point. user_cancelled makes the terminal
  // transition prefer `cancelled` over a watchdog requeue.
  job->user_cancelled = true;
  job->cancel.request_cancel();
  return core::Status();
}

core::Result<JobRecord> Service::wait(std::uint64_t id) {
  // Manual wait loop so the thread-safety analysis sees the predicate's
  // record reads run with mu_ held. Job objects are stable once inserted
  // (map of unique_ptr), so the pointer survives the waits.
  core::MutexLock lock(mu_);
  const Job* job = find(id);
  if (job == nullptr) {
    return core::Status(core::ErrorCode::kInvalidArgument, "svc.service",
                        "unknown job id: " + std::to_string(id));
  }
  while (!job_state_terminal(job->rec.state) && !job->crash_simmed) {
    terminal_cv_.wait(lock.native());
  }
  return job->rec;
}

ServiceStats Service::stats() const {
  core::MutexLock lock(mu_);
  ServiceStats s;
  s.submitted = submitted_;
  s.recovered = recovered_;
  for (const auto& [id, job] : jobs_) {
    switch (job->rec.state) {
      case JobState::kQueued: ++s.queued; break;
      case JobState::kRunning: ++s.running; break;
      case JobState::kDone: ++s.done; break;
      case JobState::kFailed: ++s.failed; break;
      case JobState::kCancelled: ++s.cancelled; break;
      case JobState::kStalled: ++s.stalled; break;
      case JobState::kQuarantined: ++s.quarantined; break;
    }
  }
  s.sessions = sessions_.session_count();
  s.global_cache = sessions_.global_cache()->stats();
  s.sweep_full_solves = sweep_full_solves_;
  s.sweep_interp_points = sweep_interp_points_;
  s.sweep_surrogate_evals = sweep_surrogate_evals_;
  s.sweep_escalations = sweep_escalations_;
  s.sweep_max_residual_db = sweep_max_residual_db_;
  return s;
}

ServiceHealth Service::health() const {
  core::MutexLock lock(mu_);
  ServiceHealth h;
  h.queue_depth = queue_.size();
  h.queue_capacity = queue_.capacity();
  h.executors = executors_.size();
  for (const auto& [id, job] : jobs_) {
    if (job->crash_simmed) continue;
    if (job->rec.state == JobState::kRunning) ++h.running;
    if (job->rec.state == JobState::kStalled) ++h.stalled;
  }
  h.stall_events = stall_events_;
  h.shed = admission_.shed_total();
  h.quarantined = quarantined_;
  h.ewma_job_ms = admission_.ewma_job_ms();
  h.retry_after_ms = admission_.retry_after_hint(h.queue_depth, h.executors);
  h.draining = draining_;
  return h;
}

void Service::begin_drain() {
  {
    core::MutexLock lock(mu_);
    draining_ = true;
  }
  // Freeze, not close: pop() stops handing out queued work immediately, so
  // executors finish only what they already started; the queued backlog is
  // already durable as `queued` and belongs to the next start.
  queue_.freeze();
}

bool Service::drain_complete() const {
  core::MutexLock lock(mu_);
  for (const auto& [id, job] : jobs_) {
    if (job->crash_simmed) continue;
    if (job->rec.state == JobState::kRunning || job->rec.state == JobState::kStalled) {
      return false;
    }
  }
  return true;
}

bool Service::draining() const {
  core::MutexLock lock(mu_);
  return draining_;
}

void Service::executor_loop() {
  while (const std::optional<std::uint64_t> id = queue_.pop()) {
    Job* job = nullptr;
    {
      core::MutexLock lock(mu_);
      job = find(*id);
      if (job == nullptr || job->rec.state != JobState::kQueued) {
        continue;  // cancelled while queued, or stale entry
      }
      job->rec.state = JobState::kRunning;
      // Attempt counted and persisted BEFORE any flow work: if this attempt
      // takes the process down, the next recovery sees the evidence.
      ++job->rec.attempts;
      job->cancel.reset();  // a requeued job carries the watchdog's raise
      job->user_cancelled = false;
      job->last_beat_ms.store(now_ms(), std::memory_order_relaxed);
      persist(*job);
    }
    run_job(*job);
  }
}

void Service::watchdog_loop() {
  const std::int64_t lease = opt_.lease_ms;
  const auto tick = std::chrono::milliseconds(std::clamp<std::int64_t>(lease / 4, 5, 100));
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(tick);
    core::MutexLock lock(mu_);
    const std::int64_t now = now_ms();
    for (auto& [id, job] : jobs_) {
      if (job->rec.state != JobState::kRunning || job->crash_simmed) continue;
      if (now - job->last_beat_ms.load(std::memory_order_relaxed) <= lease) continue;
      // Lease lapsed: declare the stall durably, then raise the token - the
      // only signal that can free a wedged executor. The freed executor's
      // terminal transition decides requeue vs failed.
      job->rec.state = JobState::kStalled;
      job->rec.detail =
          "lease expired (no heartbeat for " + std::to_string(lease) + " ms)";
      ++stall_events_;
      persist(*job);
      job->cancel.request_cancel();
    }
  }
}

void Service::run_job(Job& job) {
  const JobSpec spec = job.rec.spec;
  const std::string ckpt_path = job_dir(job.rec.id) + "/flow.ckpt";
  const std::int64_t t0 = now_ms();

  flow::FlowResult res;
  bool crash_simmed = false;
  // Injected stuck executor: spin without heartbeats or poll points until
  // the watchdog's lease expiry raises the job's CancelToken - the exact
  // shape of a real wedge (deadlocked solver, hung filesystem). The key
  // mixes the attempt index so a requeued attempt re-rolls its fate.
  if (core::fault::should_fire(
          core::FaultSite::kWedge,
          core::fault::mix(core::fault::mix(core::fault::fnv64("svc.job"),
                                            job.rec.id),
                           static_cast<std::uint64_t>(job.rec.attempts)))) {
    while (!job.cancel.cancel_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    res.complete = false;
    res.diagnostics.push_back(
        {"svc.job",
         core::Status(core::ErrorCode::kInjectedFault, "svc.job",
                      "executor wedged (injected)"),
         1, false});
  } else {
  try {
    flow::BuckConverter bc = spec.topology == "buck" ? flow::make_buck_converter()
                                                     : flow::make_boost_converter();
    const place::Layout initial = spec.topology == "buck"
                                      ? flow::layout_unfavorable(bc)
                                      : flow::boost_layout_unfavorable(bc);
    flow::FlowOptions fopt;
    fopt.sweep.n_points = spec.sweep_points;
    // The switch joins the flow's checkpoint context digest, so a job
    // toggled between submissions never resumes across the change.
    fopt.sweep_accel.adaptive = spec.adaptive_sweep;
    fopt.total_budget_ms = spec.total_budget_ms;
    fopt.stage_budget_ms = spec.stage_budget_ms;
    fopt.cancel = &job.cancel;
    fopt.checkpoint_path = ckpt_path;
    // Lease heartbeat: beaten at stage-attempt boundaries and unit steps
    // (flow/stage_driver.hpp), proving the executor is making progress.
    fopt.heartbeat = [&job] {
      job.last_beat_ms.store(now_ms(), std::memory_order_relaxed);
    };
    // The crash-sim hook models exactly one crash: a recovered job runs with
    // it disarmed, the way a real restart runs after a real SIGKILL. A
    // poison spec (tests only) keeps it armed to model a crash *loop*.
    fopt.stop_after_stage = (job.recovered_run && !spec.poison)
                                ? std::string()
                                : spec.stop_after_stage;
    fopt.extraction_cache = sessions_.session_cache(spec.client);

    // Resume when the job left an intact checkpoint for this exact
    // configuration; anything else (first run, torn file, changed digest)
    // is a fresh deterministic rerun. A poison spec never resumes: resuming
    // would skip the already-decided crash stage and break the crash *loop*
    // the spec exists to model - a poison input takes the process down at
    // the same point on every attempt.
    flow::FlowCheckpoint ck;
    core::Result<flow::FlowCheckpoint> loaded = flow::load_checkpoint_file(ckpt_path);
    if (loaded.ok() && !spec.poison &&
        loaded.value().context_digest == flow::flow_context_digest(bc, initial, fopt)) {
      ck = std::move(loaded).value();
    } else if (!loaded.ok()) {
      std::error_code ec;
      std::filesystem::remove(ckpt_path, ec);  // drop torn/stale bytes, if any
    }

    flow::FlowEngine engine(bc, initial, fopt, std::move(ck));
    res = engine.run();
    crash_simmed = engine.halted() && !fopt.stop_after_stage.empty() &&
                   !job.cancel.cancel_requested();
  } catch (const std::exception& e) {
    res.complete = false;
    res.diagnostics.push_back(
        {"svc.job",
         core::Status(core::ErrorCode::kInternal, "svc.job", e.what()), 1, false});
  }
  }
  // A pure function of `res`, so it is taken before the lock: SUBMIT acks
  // and the server's waiter scan do not queue behind it.
  const std::uint64_t fingerprint = flow::result_fingerprint(res);

  core::MutexLock lock(mu_);
  if (crash_simmed) {
    // Deterministic SIGKILL stand-in: stop here with the disk still saying
    // `running` - exactly the state a real kill would leave - but unblock
    // wait()ers in this process.
    job.crash_simmed = true;
    notify_terminal();
    return;
  }
  if (job.rec.state == JobState::kStalled && !job.user_cancelled) {
    // The watchdog expired this job's lease while we were stuck. The
    // attempt's output is untrustworthy either way; requeue while attempts
    // remain, fail terminally once they're burned.
    if (opt_.max_attempts == 0 || job.rec.attempts < opt_.max_attempts) {
      job.rec.state = JobState::kQueued;
      job.rec.detail = "stalled (lease expired); requeued for attempt " +
                       std::to_string(job.rec.attempts + 1);
      persist(job);
      // Forced: a stalled job is old admitted work, exempt from the
      // capacity bound. Fails only when the queue is closed or frozen -
      // then the job stays durably `queued` for the next start.
      (void)queue_.push_forced(job.rec.id);
    } else {
      job.rec.state = JobState::kFailed;
      job.rec.complete = false;
      job.rec.detail = "stalled after " + std::to_string(job.rec.attempts) +
                       " attempts (lease expired each time)";
      persist(job);
    }
    notify_terminal();
    return;
  }
  // Sweep economics of this terminal run, folded into the service-wide
  // STATS counters. The entries are always present in a finished flow's
  // profile (all but full_solves zero when the job did not opt into
  // acceleration).
  sweep_full_solves_ += res.profile.count("sweep.full_solves");
  sweep_interp_points_ += res.profile.count("sweep.interp_points");
  sweep_surrogate_evals_ += res.profile.count("sweep.surrogate_evals");
  sweep_escalations_ += res.profile.count("sweep.escalations");
  sweep_max_residual_db_ =
      std::max(sweep_max_residual_db_, res.profile.gauge("sweep.max_residual_db"));
  job.rec.fingerprint = fingerprint;
  job.rec.complete = res.complete;
  if (job.cancel.cancel_requested()) {
    job.rec.state = JobState::kCancelled;
    job.rec.detail = "cancelled while running";
  } else if (res.complete) {
    job.rec.state = JobState::kDone;
  } else {
    job.rec.state = JobState::kFailed;
    job.rec.detail = terminal_detail(res);
  }
  persist(job);
  // Feed admission's latency model from jobs that consumed a full executor
  // slot; cancelled runs are truncated and would bias the EWMA down.
  if (job.rec.state != JobState::kCancelled) {
    admission_.record_job_ms(static_cast<double>(now_ms() - t0));
  }
  notify_terminal();
}

}  // namespace emi::svc
