// Minimal work-stealing-free thread pool.
//
// It is the only place in the library that creates threads, and the
// library has one user of it: a System configured with more than one shard
// (SystemConfig::shards / COOLSTREAM_SHARDS) creates a pool in start() and
// fans each tick phase out over it with parallel_for, one job per shard,
// barriering on wait() between phases (DESIGN.md §15).  Everything between
// ticks, and the whole run at one shard, stays on the calling thread.
// Output is bit-identical at every shard count.
//
// All cross-thread state is guarded by mu_ and annotated for Clang's
// -Wthread-safety analysis (core/thread_annotations.h; enabled by the
// COOLSTREAM_THREAD_SAFETY build option): an unlocked access to the queue,
// the in-flight count or the captured exception no longer compiles.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace coolstream::sim {

/// Fixed-size thread pool executing void() jobs FIFO.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job.  Safe to call from any thread; in the library only
  /// parallel_for calls it, from the System's own thread.  Must not be
  /// called after wait() has returned and the pool is being destroyed
  /// concurrently.
  void submit(std::function<void()> job) EXCLUDES(mu_);

  /// Blocks until every submitted job has finished.  If any job threw, the
  /// first exception (in completion order) is rethrown here; the remaining
  /// jobs still run to completion first.  Subsequent waits start clean.
  void wait() EXCLUDES(mu_);

  std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void worker_loop() EXCLUDES(mu_);

  /// Guards every member below it: the job queue and the bookkeeping the
  /// submitting thread shares with the workers.  workers_ is written only
  /// while single-threaded (constructor spawn / destructor join).
  sync::Mutex mu_;
  sync::CondVar work_cv_;
  sync::CondVar idle_cv_;
  std::queue<std::function<void()>> jobs_ GUARDED_BY(mu_);
  std::exception_ptr first_error_ GUARDED_BY(mu_);
  std::size_t in_flight_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// Runs `fn(i)` for every i in [0, n), distributing across `pool`.
/// Blocks until all iterations complete.  `fn` must be safe to call
/// concurrently for distinct i.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace coolstream::sim
