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
//   * sync::Mutex / sync::MutexLock are the repo's only sanctioned lock
//     types.  libstdc++'s std::mutex carries no capability
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

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define COOLSTREAM_TSA(x) __attribute__((x))
#else
#define COOLSTREAM_TSA(x)  // not supported by this compiler
#endif

#define CAPABILITY(x) COOLSTREAM_TSA(capability(x))
#define SCOPED_CAPABILITY COOLSTREAM_TSA(scoped_lockable)
#define GUARDED_BY(x) COOLSTREAM_TSA(guarded_by(x))
#define REQUIRES(...) COOLSTREAM_TSA(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) COOLSTREAM_TSA(acquire_capability(__VA_ARGS__))
#define RELEASE(...) COOLSTREAM_TSA(release_capability(__VA_ARGS__))
#define EXCLUDES(...) COOLSTREAM_TSA(locks_excluded(__VA_ARGS__))

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

}  // namespace coolstream::sync
