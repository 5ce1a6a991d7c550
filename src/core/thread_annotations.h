// Clang thread-safety (capability) annotations + annotated lock primitives.
//
// The PR-8 sharding refactor partitions peers across cores and exchanges
// cross-shard messages at tick barriers; everything that is *not* per-shard
// state must then be provably lock-protected.  This header is the substrate
// for proving it at compile time:
//
//   * the capability macros (GUARDED_BY, REQUIRES, ACQUIRE/RELEASE, ...)
//     wrap Clang's -Wthread-safety attributes and expand to nothing on
//     compilers without the analysis (GCC builds stay clean);
//   * sync::Mutex / sync::MutexLock / sync::CondVar are the repo's only
//     sanctioned lock types.  libstdc++'s std::mutex carries no capability
//     attributes, so the analysis cannot see std::lock_guard acquisitions;
//     these thin wrappers restore visibility with zero overhead.
//
// Like core/units.h, this header is the bottom layer: every module
// (including src/sim/) may include it, and the include-layering lint rule
// treats it as part of the `units` pseudo-module.
//
// Conventions (DESIGN.md §13):
//   * every mutex-protected member is GUARDED_BY its mutex;
//   * public functions that take the lock internally are EXCLUDES(mu_);
//   * private helpers called under the lock are REQUIRES(mu_);
//   * a std::mutex member outside this header is a lint error
//     (unguarded-mutex-member) — use sync::Mutex.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define COOLSTREAM_TSA(x) __attribute__((x))
#else
#define COOLSTREAM_TSA(x)  // not supported by this compiler
#endif

#define CAPABILITY(x) COOLSTREAM_TSA(capability(x))
#define SCOPED_CAPABILITY COOLSTREAM_TSA(scoped_lockable)
#define GUARDED_BY(x) COOLSTREAM_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) COOLSTREAM_TSA(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) COOLSTREAM_TSA(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) COOLSTREAM_TSA(acquired_after(__VA_ARGS__))
#define REQUIRES(...) COOLSTREAM_TSA(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  COOLSTREAM_TSA(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) COOLSTREAM_TSA(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) COOLSTREAM_TSA(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) COOLSTREAM_TSA(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) COOLSTREAM_TSA(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) COOLSTREAM_TSA(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) COOLSTREAM_TSA(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) COOLSTREAM_TSA(assert_capability(x))
#define RETURN_CAPABILITY(x) COOLSTREAM_TSA(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS COOLSTREAM_TSA(no_thread_safety_analysis)

namespace coolstream::sync {

/// std::mutex with a visible capability.  The analysis tracks acquisition
/// through lock()/unlock()/MutexLock; GUARDED_BY(mu) members then get
/// unlocked accesses rejected at compile time (clang -Wthread-safety).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  // The one sanctioned raw std::mutex: it IS the capability this header
  // wraps (every sync::Mutex in the tree is an instance of this class), so
  // the unguarded-mutex-member rule does not apply to it.
  std::mutex mu_;  // lint:allow(unguarded-mutex-member)
};

/// RAII lock over a sync::Mutex (the annotated std::lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable under sync::Mutex.  wait() REQUIRES the mutex:
/// callers hold it before and after, which is exactly what the capability
/// analysis can verify (the release/reacquire inside is invisible to it and
/// nets out to "still held").
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires before returning.
  /// Spurious wakeups are possible: always wait in a predicate loop.
  void wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace coolstream::sync
