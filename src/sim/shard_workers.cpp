#include "sim/shard_workers.h"

#include <stdexcept>

namespace coolstream::sim {
namespace {

std::size_t checked_shard_count(std::size_t shards) {
  if (shards == 0) {
    throw std::invalid_argument("ShardWorkers: shard count must be >= 1");
  }
  return shards;
}

}  // namespace

ShardWorkers::ShardWorkers(std::size_t shards)
    : errors_(checked_shard_count(shards)),
      start_(static_cast<std::ptrdiff_t>(shards)),
      done_(static_cast<std::ptrdiff_t>(shards)) {
  threads_.reserve(shards - 1);
  try {
    for (std::size_t s = 1; s < shards; ++s) {
      threads_.emplace_back([this, s] { worker_loop(s); });
    }
  } catch (...) {
    stop();  // the threads already started would otherwise never return
    throw;
  }
}

ShardWorkers::~ShardWorkers() { stop(); }

void ShardWorkers::stop() noexcept {
  stopping_ = true;
  // Arrive for the caller and for every thread that was never started.
  start_.wait(start_.arrive(
      static_cast<std::ptrdiff_t>(shard_count() - threads_.size())));
}

void ShardWorkers::run(const Phase& phase) {
  if (threads_.empty()) {
    phase(0);
    return;
  }
  phase_ = &phase;
  start_.arrive_and_wait();
  run_shard(0);
  done_.arrive_and_wait();
  std::exception_ptr first;
  for (std::exception_ptr& e : errors_) {
    if (first == nullptr) first = e;
    e = nullptr;
  }
  if (first != nullptr) std::rethrow_exception(first);
}

void ShardWorkers::worker_loop(std::size_t shard) {
  for (;;) {
    start_.arrive_and_wait();
    if (stopping_) return;
    run_shard(shard);
    done_.arrive_and_wait();
  }
}

void ShardWorkers::run_shard(std::size_t s) noexcept {
  try {
    (*phase_)(s);
  } catch (...) {
    // Every shard must still reach done_, or the others would wait forever.
    errors_[s] = std::current_exception();
  }
}

}  // namespace coolstream::sim
