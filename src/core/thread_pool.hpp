// Chunked work-stealing thread pool - the repo's core execution layer.
//
// The unit of scheduling is a *chunk* (a contiguous index sub-range produced
// by core::parallel_for / parallel_reduce). Chunks of one batch are dealt
// round-robin onto per-worker deques; each worker drains its own deque from
// the front and steals from the back of a victim's deque when it runs dry.
// The submitting thread participates in the batch instead of blocking, so a
// pool of N threads gives N+1 lanes of execution and a 0-thread pool
// degenerates to plain serial execution.
//
// Determinism contract: the pool never influences *what* is computed, only
// *when*. Callers write results into pre-sized slots addressed by chunk or
// item index, so any interleaving yields bit-identical output. Nested
// batches (a parallel_for issued from inside a worker) run inline on the
// issuing worker - this keeps the pool deadlock-free and bounds
// oversubscription without any extra tuning.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/thread_annotations.hpp"

namespace emi::core {

// Execution counters, cumulative since pool construction. Cheap enough to
// keep always-on; surfaced through core::Profile in flow reports.
struct PoolStats {
  std::uint64_t batches = 0;        // run_chunks invocations served
  std::uint64_t chunks = 0;         // chunks executed in total
  std::uint64_t steals = 0;         // chunks taken from another lane's deque
  std::uint64_t inline_batches = 0; // nested batches run inline on a worker
  std::uint64_t serial_fallbacks = 0; // batches degraded to serial execution
                                      // (ScopedSerialFallback or fault site
                                      // "pool"); results are unaffected by
                                      // the determinism contract
};

class ThreadPool {
 public:
  // `n_threads` counts *extra* workers; the submitting thread always helps.
  explicit ThreadPool(std::size_t n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  // Run fn(chunk) for every chunk in [0, n_chunks), blocking until all
  // complete. Safe to call from a worker thread (runs inline, serially).
  // If fn throws, the exception is rethrown here once no lane still runs a
  // chunk of the batch (so nothing outlives the caller's frame). Chunks
  // past the lowest-index chunk that threw are skipped, and that chunk's
  // exception is the one rethrown - the one a serial loop would raise.
  void run_chunks(std::size_t n_chunks, const std::function<void(std::size_t)>& fn);

  PoolStats stats() const;

  // True when the calling thread is one of this process's pool workers (any
  // pool); used to serialize nested parallel regions.
  static bool on_worker_thread();

  // --- global pool -------------------------------------------------------
  // The process-wide pool used by parallel_for/parallel_reduce. Sized to
  // default_thread_count() on first use; set_global_thread_count(n) rebuilds
  // it with n-1 extra workers (n = total lanes, n >= 1). Not safe to call
  // concurrently with running parallel regions.
  static ThreadPool& global();
  static void set_global_thread_count(std::size_t n_lanes);
  static std::size_t global_thread_count();  // total lanes incl. caller

  // EMI_THREADS if it parses (parse_thread_count), else
  // std::thread::hardware_concurrency.
  static std::size_t default_thread_count();
  // The lane count an EMI_THREADS value asks for: the whole string a
  // decimal integer from 1 to kMaxThreadCount. Anything else ("", "0",
  // "-2", "4x", "1e3", an overflowing value, more than the cap) is nullopt.
  static constexpr std::size_t kMaxThreadCount = 256;
  static std::optional<std::size_t> parse_thread_count(std::string_view text);

  // True while a ScopedSerialFallback is alive on the calling thread.
  static bool serial_fallback_active();

 private:
  static constexpr std::size_t kNoFailure = static_cast<std::size_t>(-1);
  struct Batch {
    Mutex mu;
    std::condition_variable done;
    std::size_t remaining EMI_GUARDED_BY(mu) = 0;
    // Lowest chunk index that threw so far (kNoFailure: none) and its
    // exception. Written only under `mu`; first_failed is also read
    // lock-free to skip later chunks.
    std::atomic<std::size_t> first_failed{kNoFailure};
    std::exception_ptr error EMI_GUARDED_BY(mu);
  };
  struct Chunk {
    const std::function<void(std::size_t)>* fn;
    std::size_t index;
    Batch* batch;
  };
  struct Lane {
    std::deque<Chunk> queue;  // guarded by the pool mutex (coarse but simple)
  };

  void worker_main(std::size_t lane);
  bool try_pop(std::size_t lane, Chunk& out, bool& stolen) EMI_REQUIRES(mu_);
  void execute(const Chunk& c);

  mutable Mutex mu_;
  std::condition_variable work_cv_;
  // Lane deques and the stop flag share the one coarse pool lock.
  std::vector<Lane> lanes_ EMI_GUARDED_BY(mu_);  // lane 0 = submitter
  std::vector<std::thread> workers_;
  bool stop_ EMI_GUARDED_BY(mu_) = false;
};

// Degradation lever for the robustness layer: while alive, every batch this
// thread submits runs inline (serially). By the determinism contract this
// never changes results - it removes the pool from the failure surface, so
// flow-stage retries use it as their last-attempt fallback.
class ScopedSerialFallback {
 public:
  ScopedSerialFallback();
  ~ScopedSerialFallback();
  ScopedSerialFallback(const ScopedSerialFallback&) = delete;
  ScopedSerialFallback& operator=(const ScopedSerialFallback&) = delete;
};

}  // namespace emi::core
