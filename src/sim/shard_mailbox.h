// Deterministic cross-shard mailbox.
//
// The sharded tick runs each shard's peers on a worker thread; anything a
// peer wants to say to a peer on another shard is deposited here instead of
// delivered directly.  After the barrier the main thread drains the mailbox
// and applies every message serially, in the *canonical sender order*:
//
//   messages sort by (sender position in the tick order, emission order
//   within that sender)
//
// which is a pure function of the tick's frozen peer order — independent of
// the shard count and of how the OS interleaves the workers.  This is the
// property the tests/property shard-mailbox suite checks under hundreds of
// randomized interleavings.
//
// Concurrency contract (why there is no lock here): each shard writes only
// its own lane, exactly one worker runs per shard, and drain() happens
// strictly after the barrier that joins the workers — so no two threads
// ever touch the same lane concurrently.  The std::barrier that ends each
// phase (sim::ShardWorkers::run) provides the happens-before edge that
// publishes the lanes to the drainer.
//
// Per-lane ordering contract: a worker visits its peers in ascending tick
// position, so each lane is pushed in non-decreasing `pos` order.  drain()
// exploits this with a cursor walk — O(positions + messages), no sort.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace coolstream::sim {

/// Per-shard lanes of (sender position, payload), drained in canonical
/// sender order.  T is the message payload (a variant in the System).
template <typename T>
class ShardMailbox {
 public:
  struct Entry {
    std::uint32_t pos = 0;  ///< sender's position in the tick order
    T payload;
  };
  using Lane = std::vector<Entry>;

  /// Prepares `shards` empty lanes, keeping their capacity across ticks.
  void reset(std::size_t shards) {
    if (lanes_.size() != shards) lanes_.resize(shards);
    for (Lane& lane : lanes_) lane.clear();
  }

  std::size_t shard_count() const noexcept { return lanes_.size(); }

  /// Appends a message to `shard`'s lane.  Callers must push each lane in
  /// non-decreasing `pos` order (workers walk their peers in tick order);
  /// only the worker owning `shard` may call this between barriers.
  void push(std::size_t shard, std::uint32_t pos, T payload) {
    assert(shard < lanes_.size());
    Lane& lane = lanes_[shard];
    assert(lane.empty() || lane.back().pos <= pos);
    lane.push_back(Entry{pos, std::move(payload)});
  }

  /// Total queued messages across all lanes.
  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const Lane& lane : lanes_) n += lane.size();
    return n;
  }

  /// Applies every message in canonical sender order and clears the lanes.
  /// `shard_of(pos)` maps a tick position to the shard that owned the
  /// sender; `apply(pos, payload&&)` consumes one message.  Runs on one
  /// thread, after the barrier.
  template <typename ShardOf, typename Apply>
  void drain(std::size_t positions, ShardOf&& shard_of, Apply&& apply) {
    cursors_.assign(lanes_.size(), 0);
    for (std::uint32_t pos = 0; pos < positions; ++pos) {
      const std::size_t shard = shard_of(pos);
      assert(shard < lanes_.size());
      Lane& lane = lanes_[shard];
      std::size_t& cur = cursors_[shard];
      while (cur < lane.size() && lane[cur].pos == pos) {
        apply(pos, std::move(lane[cur].payload));
        ++cur;
      }
    }
#ifndef NDEBUG
    for (std::size_t s = 0; s < lanes_.size(); ++s) {
      assert(cursors_[s] == lanes_[s].size() && "unclaimed mailbox entries");
    }
#endif
    for (Lane& lane : lanes_) lane.clear();
  }

 private:
  std::vector<Lane> lanes_;
  std::vector<std::size_t> cursors_;  ///< drain scratch, reused across ticks
};

}  // namespace coolstream::sim
