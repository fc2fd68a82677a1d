// Clang Thread Safety Analysis shim: lock contracts the compiler checks.
//
// Every mutex-bearing class in the repo declares *which* mutex guards *which*
// state with the EMI_* macros below, and clang's -Wthread-safety turns a
// forgotten lock, a call into a REQUIRES function without the capability, or
// a double acquire into a compile error (`cmake -DEMI_THREAD_SAFETY=ON` with
// a clang toolchain; see `tools/check.sh analysis`). On compilers without the
// attribute family (gcc) the macros expand to nothing and the wrapper types
// below inline straight down to the std primitives - zero overhead, zero
// behavior change, so the annotated tree is the only tree.
//
// Vocabulary (mirrors the clang documentation names, EMI_-prefixed):
//   EMI_GUARDED_BY(mu)      field may only be touched with mu held
//   EMI_REQUIRES(mu)        caller must hold mu exclusively (private helpers
//                           that run "inside" the lock)
//   EMI_REQUIRES_SHARED(mu) caller must hold mu at least shared
//   EMI_ACQUIRE/RELEASE     function takes / drops the capability itself
//   EMI_EXCLUDES(mu)        caller must NOT hold mu (deadlock guard)
//
// Condition variables: std::condition_variable needs the real
// std::unique_lock, so MutexLock exposes native() for wait loops. Write the
// predicate as a manual while-loop around wait(lock.native()) instead of the
// lambda-predicate overload - the analysis cannot see that a lambda body
// runs with the lock held, a manual loop it checks completely.
#pragma once

#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define EMI_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef EMI_THREAD_ANNOTATION
#define EMI_THREAD_ANNOTATION(x)  // non-clang: annotations compile away
#endif

#define EMI_CAPABILITY(x) EMI_THREAD_ANNOTATION(capability(x))
#define EMI_SCOPED_CAPABILITY EMI_THREAD_ANNOTATION(scoped_lockable)
#define EMI_GUARDED_BY(x) EMI_THREAD_ANNOTATION(guarded_by(x))
#define EMI_PT_GUARDED_BY(x) EMI_THREAD_ANNOTATION(pt_guarded_by(x))
#define EMI_REQUIRES(...) EMI_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define EMI_REQUIRES_SHARED(...) \
  EMI_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define EMI_ACQUIRE(...) EMI_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define EMI_ACQUIRE_SHARED(...) \
  EMI_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define EMI_RELEASE(...) EMI_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define EMI_RELEASE_SHARED(...) \
  EMI_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define EMI_TRY_ACQUIRE(...) \
  EMI_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EMI_EXCLUDES(...) EMI_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define EMI_ASSERT_CAPABILITY(x) EMI_THREAD_ANNOTATION(assert_capability(x))
#define EMI_RETURN_CAPABILITY(x) EMI_THREAD_ANNOTATION(lock_returned(x))
#define EMI_NO_THREAD_SAFETY_ANALYSIS \
  EMI_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace emi::core {

// std::mutex carrying a capability the analysis can track. native_handle()
// exists solely for condition_variable wait loops (via MutexLock::native());
// locking through it bypasses the analysis - don't.
class EMI_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() EMI_ACQUIRE() { mu_.lock(); }
  void unlock() EMI_RELEASE() { mu_.unlock(); }
  bool try_lock() EMI_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  std::mutex& native_handle() { return mu_; }

 private:
  std::mutex mu_;
};

// lock_guard/unique_lock stand-in over core::Mutex. Holds a real
// std::unique_lock so condition variables can wait on native().
class EMI_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) EMI_ACQUIRE(mu) : lock_(mu.native_handle()) {}
  ~MutexLock() EMI_RELEASE() {}  // unique_lock member unlocks

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // For manual condition-variable wait loops only:
  //   while (!ready_) cv.wait(lock.native());
  // The capability is treated as held across the wait, which is exactly the
  // caller-visible contract (wait reacquires before returning).
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

// std::shared_mutex carrying a capability: exclusive writers, shared readers.
class EMI_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() EMI_ACQUIRE() { mu_.lock(); }
  void unlock() EMI_RELEASE() { mu_.unlock(); }
  void lock_shared() EMI_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() EMI_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

// Exclusive (writer) RAII lock over SharedMutex.
class EMI_SCOPED_CAPABILITY SharedMutexLock {
 public:
  explicit SharedMutexLock(SharedMutex& mu) EMI_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
  }
  ~SharedMutexLock() EMI_RELEASE() { mu_->unlock(); }

  SharedMutexLock(const SharedMutexLock&) = delete;
  SharedMutexLock& operator=(const SharedMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

// Shared (reader) RAII lock over SharedMutex.
class EMI_SCOPED_CAPABILITY SharedReaderLock {
 public:
  explicit SharedReaderLock(SharedMutex& mu) EMI_ACQUIRE_SHARED(mu) : mu_(&mu) {
    mu_->lock_shared();
  }
  ~SharedReaderLock() EMI_RELEASE() { mu_->unlock_shared(); }

  SharedReaderLock(const SharedReaderLock&) = delete;
  SharedReaderLock& operator=(const SharedReaderLock&) = delete;

 private:
  SharedMutex* mu_;
};

}  // namespace emi::core
