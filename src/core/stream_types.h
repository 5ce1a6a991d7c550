// Sequence-number arithmetic for sub-streams and the interleaved global
// playback order (§III-C), on top of the strong domain types of
// core/units.h.
//
// Global block g (g = 0,1,2,...) belongs to sub-stream g mod K and carries
// sub-stream sequence number g / K.  Conversely sub-stream i's block n is
// global block n*K + i.  The "combination process" of the synchronization
// buffer (Fig. 2b) produces the longest prefix of the global order present
// in the per-sub-stream buffers.
//
// This header (like core/units.h) is layer-0 vocabulary shared by every
// layer, and is one of the whitelisted boundary files allowed to use the
// raw-value escape hatch: the mod/div interleaving arithmetic below is
// exactly the place where sequence numbers are legitimately numbers.
#pragma once

#include <cstdint>
#include <span>

#include "core/units.h"

namespace coolstream::core {

/// Absolute simulation time and spans of it, re-exported so protocol code
/// can speak about timers without pulling in the event engine.  sim::Time
/// aliases the same units::Tick, so the two layers interoperate directly.
using Tick = units::Tick;
using OptionalTick = units::OptionalTick;
using Duration = units::Duration;

/// Sub-stream index in [0, K).
using SubstreamId = units::SubStreamId;

/// Per-sub-stream block sequence number.  SeqNum::none() (-1) means
/// "nothing received yet".
using SeqNum = units::BlockIndex;

/// Position in the interleaved global playback order.
using GlobalSeq = units::BlockIndex;

/// Span in either sequence space.
using BlockCount = units::BlockCount;

/// The "nothing yet" sentinel shared by both sequence spaces.
inline constexpr SeqNum kNoSeq = SeqNum::none();

/// Lane capacity of a buffer map: Params::validate() enforces
/// substream_count <= kMaxSubstreams (the paper uses K = 4; the ablations
/// sweep to 8).
inline constexpr int kMaxSubstreams = 8;

/// Highest sequence number across buffer-map lanes (a sync buffer's heads
/// or a partner's advertised lanes); kNoSeq when nothing was received.
constexpr SeqNum max_latest(std::span<const SeqNum> lanes) noexcept {
  SeqNum best = kNoSeq;
  for (const SeqNum s : lanes) {
    if (s > best) best = s;
  }
  return best;
}

/// Cache buffer (Fig. 2a): a node retains the most recent `window` blocks
/// of each sub-stream (B = Params::buffer_seconds, converted by
/// Params::buffer_block_count()); older blocks were pushed out by playout.
/// Returns the oldest block still held when the contiguous head is `head`,
/// so a parent serves only [cache_window_start(head, window), head] — the
/// reason §IV-A warns that starting from the *lowest* available sequence
/// number risks blocks being "pushed out of the partners' buffer".
constexpr SeqNum cache_window_start(SeqNum head, BlockCount window) noexcept {
  const SeqNum start = head - window + BlockCount(1);
  return start > SeqNum(0) ? start : SeqNum(0);
}

/// Iterable range over the K sub-stream ids: `for (SubstreamId j :
/// substreams(k))`.  Keeps protocol loops free of raw-int index juggling.
class SubstreamRange {
 public:
  class iterator {
   public:
    explicit constexpr iterator(int i) noexcept : id_(i) {}
    constexpr SubstreamId operator*() const noexcept { return id_; }
    constexpr iterator& operator++() noexcept {
      ++id_;
      return *this;
    }
    friend constexpr bool operator==(iterator, iterator) noexcept = default;

   private:
    SubstreamId id_;
  };

  explicit constexpr SubstreamRange(int k) noexcept : k_(k) {}
  constexpr iterator begin() const noexcept { return iterator(0); }
  constexpr iterator end() const noexcept { return iterator(k_); }

 private:
  int k_;
};

constexpr SubstreamRange substreams(int k) noexcept {
  return SubstreamRange(k);
}

/// Sub-stream that carries global block `g` in a K-sub-stream split.
constexpr SubstreamId substream_of(GlobalSeq g, int k) noexcept {
  return SubstreamId(static_cast<int>(g.value() % k));
}

/// Sub-stream sequence number of global block `g`.
constexpr SeqNum substream_seq_of(GlobalSeq g, int k) noexcept {
  return SeqNum(g.value() / k);
}

/// Global position of sub-stream `i`'s block `n`.
constexpr GlobalSeq global_of(SubstreamId i, SeqNum n, int k) noexcept {
  return GlobalSeq(n.value() * k + i.value());
}

/// Latest sequence number of sub-stream `i` whose global position is at or
/// below `g`; none when sub-stream i has no block at or below g.  (The
/// playout uses this to derive per-sub-stream deadline floors from the
/// global playhead.)
constexpr SeqNum last_seq_at_or_below(GlobalSeq g, SubstreamId i,
                                      int k) noexcept {
  if (g.value() < i.value()) return SeqNum::none();
  return SeqNum((g.value() - i.value()) / k);
}

/// Given the latest *contiguous* sequence number per sub-stream
/// (heads[i] = none if nothing), the last global block such that the whole
/// global prefix [0, result] is available.  Returns none when even global
/// block 0 is missing.  This is the Fig.-2b combination rule.
///
/// heads must point at k values.
/// `from` is a lower-bound hint (a previously computed prefix); the scan
/// resumes there, making repeated incremental calls O(new blocks) total.
constexpr GlobalSeq combined_prefix(const SeqNum* heads, int k,
                                    GlobalSeq from = GlobalSeq::none()) noexcept {
  GlobalSeq best = from;
  for (;;) {
    GlobalSeq g = best;
    ++g;
    const SubstreamId i = substream_of(g, k);
    const SeqNum need = substream_seq_of(g, k);
    if (heads[i.index()] >= need) {
      best = g;
    } else {
      break;
    }
  }
  return best;
}

}  // namespace coolstream::core
