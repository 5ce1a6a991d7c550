// Synchronization buffer (Fig. 2a/2b).
//
// "A received block is firstly put into the synchronization buffer for each
// corresponding sub-stream.  They will be combined into one stream when
// blocks with continuous sequence numbers have been received from each
// sub-stream."
//
// The fluid data plane pushes each sub-stream's blocks in order, so a
// sub-stream is fully described by its contiguous head: a block arrives by
// advancing the head one step, and a jump (join, skip, resync) moves it
// forward past blocks that will never arrive.  The buffer exposes the
// combined prefix of the interleaved global order.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>

#include "core/stream_types.h"

namespace coolstream::core {

/// Per-node synchronization buffer for K sub-streams.  The heads sit
/// inline (kMaxSubstreams lanes, K in use), so a peer's lanes live in its
/// own object rather than on the heap.
class SyncBuffer {
 public:
  explicit SyncBuffer(int k);

  int substream_count() const noexcept { return k_; }

  /// Receives the next block of sub-stream `i`: moves its head one block,
  /// counts the block and extends the combined prefix.
  void advance(SubstreamId i);

  /// Latest *contiguous* sequence number of sub-stream `i` (-1: none).
  /// This is what the node advertises in its Buffer Map.
  SeqNum head(SubstreamId i) const {
    assert(i.index() < static_cast<std::size_t>(k_));
    return heads_[i.index()];
  }

  /// Jump-starts a sub-stream at `seq - 1`, declaring every earlier block
  /// irrelevant.  Used at join time: the node starts pulling from the
  /// initial sequence number chosen per §IV-A and never looks back.
  void start_at(SubstreamId i, SeqNum seq);

  /// Declares the global prefix [0, g] irrelevant (already played or
  /// skipped at join).  Call once after start_at() initialized every
  /// sub-stream, with g = first wanted global block - 1; keeps combined()
  /// incremental instead of scanning from stream start.
  void set_combined_floor(GlobalSeq g) noexcept;

  /// Last global block such that the whole interleaved prefix is
  /// combinable (Fig. 2b); -1 when nothing combinable yet.  Cached;
  /// O(new blocks) amortized.
  GlobalSeq combined() const noexcept { return combined_; }

  /// max head - min head across sub-streams: the Ineq.-(1) spread.
  BlockCount spread() const noexcept;

  /// The K heads, indexable by sub-stream: the first K components of the
  /// node's buffer map, advertised to every partner as they are.
  std::span<const SeqNum> heads() const noexcept {
    return {heads_.data(), static_cast<std::size_t>(k_)};
  }

  /// Total blocks received through advance().
  std::uint64_t blocks_received() const noexcept { return received_; }

 private:
  friend struct InvariantTestAccess;  // seeded-corruption hooks (tests only)

  void recompute_combined() noexcept;

  std::array<SeqNum, kMaxSubstreams> heads_;
  GlobalSeq combined_ = kNoSeq;
  std::uint64_t received_ = 0;
  int k_;
};

}  // namespace coolstream::core
