// Fixed shard workers for the sharded tick.
//
// It is the only place in the library that creates threads.  A System with
// N shards (SystemConfig::shards / COOLSTREAM_SHARDS) owns one ShardWorkers
// of N and runs each tick phase through run(): shard 0 on the calling
// thread, shards 1..N-1 on N-1 threads that live as long as the System and
// wait on a std::barrier between phases (DESIGN.md §15).  At one shard no
// thread exists and run() is a plain call.  Everything between ticks stays
// on the calling thread, and output is bit-identical at every shard count.
//
// Memory ordering: every write made before a barrier arrival happens-before
// every read made after that barrier's wait returns, on any participant.
// run() therefore publishes the caller's tick-start state to the workers,
// and the workers' phase writes (the ShardMailbox lanes, the shard scratch)
// to the caller — no other synchronisation is needed, and none is used.
#pragma once

#include <barrier>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace coolstream::sim {

/// N - 1 persistent threads plus the caller, released together per phase.
class ShardWorkers {
 public:
  using Phase = std::function<void(std::size_t)>;

  /// Starts `shards` - 1 threads.  Throws std::invalid_argument for 0.
  explicit ShardWorkers(std::size_t shards);

  /// Releases the threads one last time, with the stop flag set, and joins
  /// them.
  ~ShardWorkers();

  ShardWorkers(const ShardWorkers&) = delete;
  ShardWorkers& operator=(const ShardWorkers&) = delete;

  std::size_t shard_count() const noexcept { return errors_.size(); }

  /// Runs `phase(s)` for every shard s, shard 0 on the calling thread, and
  /// returns when all have finished.  `phase` must be safe to call
  /// concurrently for distinct s.  If any shard threw, the exception of
  /// the lowest-numbered such shard is rethrown after every shard is done;
  /// the others are dropped and the next run() starts clean.
  void run(const Phase& phase);

 private:
  void worker_loop(std::size_t shard);
  /// Runs shard `s` of the current phase, capturing what it throws.
  void run_shard(std::size_t s) noexcept;
  /// Sets the stop flag and releases the `threads_` started so far.
  void stop() noexcept;

  // Written by the caller before start_ is released, read by the workers
  // after it: the barrier orders every access.
  const Phase* phase_ = nullptr;
  bool stopping_ = false;
  /// One slot per shard, written only by that shard's thread during a
  /// phase and read by the caller after done_.
  std::vector<std::exception_ptr> errors_;
  std::barrier<> start_;
  std::barrier<> done_;
  /// Declared last: destroyed (joined) before everything they use.
  std::vector<std::jthread> threads_;
};

}  // namespace coolstream::sim
