// Cache buffer (Fig. 2a): the sliding window of combined stream data a node
// retains after synchronization, from which (a) the media player is fed and
// (b) children are served.
//
// A block leaves the cache when it is pushed out by playout: the window
// spans the most recent B seconds (`Params::buffer_seconds`).  A parent can
// therefore only serve sub-stream blocks within `window_blocks` of its
// per-sub-stream head — the reason §IV-A warns that requesting from the
// *lowest* available sequence number risks blocks being "pushed out of the
// partners' buffer due to the playout".
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/stream_types.h"

namespace coolstream::core {

/// Sliding availability window over per-sub-stream sequence numbers.
class CacheBuffer {
 public:
  /// `window_blocks`: how many consecutive blocks per sub-stream stay
  /// resident (B converted to sub-stream blocks).  Must be >= 1.
  explicit CacheBuffer(BlockCount window_blocks);

  /// Oldest retained sequence number given the current head (inclusive).
  SeqNum oldest(SeqNum head) const noexcept {
    return std::max(SeqNum(0), head - window_ + BlockCount(1));
  }

  /// True when block `seq` of a sub-stream whose contiguous head is `head`
  /// is still resident and already received.
  bool available(SeqNum head, SeqNum seq) const noexcept;

  /// Clamps a child's requested start sequence into the serveable window
  /// [oldest(head), head + 1].  head + 1 means "next block the parent will
  /// receive" (a caught-up child waits for it).
  SeqNum clamp_start(SeqNum head, SeqNum requested) const noexcept;

  BlockCount window_blocks() const noexcept { return window_; }

 private:
  BlockCount window_;
};

}  // namespace coolstream::core
