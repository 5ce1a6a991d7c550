// Synchronization buffer (Fig. 2a/2b).
//
// "A received block is firstly put into the synchronization buffer for each
// corresponding sub-stream.  They will be combined into one stream when
// blocks with continuous sequence numbers have been received from each
// sub-stream."
//
// Blocks may arrive out of order within a sub-stream (e.g. right after a
// parent switch); the buffer tracks, per sub-stream, the contiguous head
// plus a bounded set of blocks received ahead of it, and exposes the
// combined prefix of the interleaved global order.
//
// The ahead blocks of all sub-streams share one vector sorted by
// (sub-stream, seq).  Out-of-order arrival is rare and short-lived, so the
// vector is empty in steady state and costs no allocation, where a set per
// sub-stream would cost one allocation per queued block.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/stream_types.h"

namespace coolstream::core {

/// Per-node synchronization buffer for K sub-streams.
class SyncBuffer {
 public:
  explicit SyncBuffer(int k);

  int substream_count() const noexcept {
    return static_cast<int>(heads_.size());
  }

  /// Inserts block `seq` of sub-stream `i`.  Returns true when the block
  /// was new (false: duplicate or already below the contiguous head).
  bool insert(SubstreamId i, SeqNum seq);

  /// Latest *contiguous* sequence number of sub-stream `i` (-1: none).
  /// This is what the node advertises in its Buffer Map.
  SeqNum head(SubstreamId i) const {
    assert(i.index() < heads_.size());
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

  /// Number of blocks of sub-stream `i` received ahead of the contiguous
  /// head (out-of-order backlog).
  std::size_t pending(SubstreamId i) const;

  /// Last global block such that the whole interleaved prefix is
  /// combinable (Fig. 2b); -1 when nothing combinable yet.  Cached;
  /// O(new blocks) amortized.
  GlobalSeq combined() const noexcept { return combined_; }

  /// max head - min head across sub-streams: the Ineq.-(1) spread.
  BlockCount spread() const noexcept;

  /// All heads, indexable by sub-stream: the first K components of the
  /// node's buffer map, advertised to every partner as they are.
  const std::vector<SeqNum>& heads() const noexcept { return heads_; }

  /// Total blocks accepted by insert().
  std::uint64_t blocks_received() const noexcept { return received_; }

 private:
  friend struct InvariantTestAccess;  // seeded-corruption hooks (tests only)

  /// One out-of-order block of sub-stream `lane`.
  struct AheadBlock {
    SubstreamId lane;
    SeqNum seq;
  };

  void recompute_combined() noexcept;

  std::vector<SeqNum> heads_;
  /// Out-of-order blocks (strictly above their sub-stream's head),
  /// sorted by (lane, seq): each lane's blocks are one ascending run.
  std::vector<AheadBlock> ahead_;
  GlobalSeq combined_ = kNoSeq;
  std::uint64_t received_ = 0;
};

}  // namespace coolstream::core
