// The Buffer Map (BM), §III-C.
//
// "BM is represented by a 2K-tuple, where K is the number of sub-streams.
// The first K components of the tuple records the sequence number of the
// latest received block from each sub-stream.  The second K components of
// the tuple represents the subscription of sub-streams from the partner."
//
// BMs are exchanged periodically between partners; partner selection and
// the adaptation inequalities (§IV-B) evaluate against the latest BM
// received from each partner.
//
// Representation.  This is the hottest protocol object in the system: every
// peer builds one per exchange period and receives one per partner (a
// PartnerTable keeps only the K latest lanes and the subscription word of
// each partner's copy, core/partner_table.h).  The 2K-tuple is word-packed: a
// fixed-width in-place array of latest sequence numbers plus one bit-word
// of subscription flags, in a single trivially-copyable block (no heap, no
// pointer chase).  Lane predicates (the Ineq. 1/2 lag terms of §IV-B and
// the "blocks I need that you have" need set) are exposed as bit masks over
// the K lanes so a partner scan is a handful of word ops instead of a
// branchy per-sub-stream loop.  encode()/decode() remain the debug/golden
// wire format; wire_size() is computed arithmetically without formatting.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>

#include "core/stream_types.h"

namespace coolstream::core {

/// A 2K-tuple buffer map, word-packed.
class BufferMap {
 public:
  /// Lane capacity of the packed representation.  Params::validate()
  /// enforces substream_count <= kMaxSubstreams (the paper uses K=4; the
  /// ablations sweep to 8).
  // A lane capacity, not a protocol sequence/index value.
  static constexpr int kMaxSubstreams = 8;  // lint:allow(raw-protocol-int)

  BufferMap() = default;

  /// Creates an empty BM for `k` sub-streams (latest = -1, no
  /// subscriptions).
  explicit BufferMap(int k);

  int substream_count() const noexcept { return k_; }

  /// Latest received sequence number of sub-stream `i` (-1: none yet).
  SeqNum latest(SubstreamId i) const {
    assert(i.index() < static_cast<std::size_t>(k_));
    return latest_[i.index()];
  }
  void set_latest(SubstreamId i, SeqNum seq) {
    assert(i.index() < static_cast<std::size_t>(k_));
    latest_[i.index()] = seq;
  }

  /// Whether the sender requests (subscribes to) sub-stream `i` from the
  /// partner this BM is sent to.
  bool subscribed(SubstreamId i) const {
    assert(i.index() < static_cast<std::size_t>(k_));
    return (sub_bits_ >> i.index()) & 1u;
  }
  void set_subscribed(SubstreamId i, bool on) {
    assert(i.index() < static_cast<std::size_t>(k_));
    const std::uint32_t bit = 1u << i.index();
    sub_bits_ = on ? (sub_bits_ | bit) : (sub_bits_ & ~bit);
  }
  /// Replaces every subscription flag at once (bit i -> sub-stream i).
  void set_subscription_bits(std::uint32_t bits) noexcept {
    assert((bits & ~lane_mask()) == 0);
    sub_bits_ = bits;
  }

  /// Highest latest() across sub-streams; -1 when nothing received.
  /// Inline so partner scans reduce over the lanes without a call.
  SeqNum max_latest() const noexcept {
    SeqNum best = kNoSeq;
    for (int i = 0; i < k_; ++i) {
      if (latest_[i] > best) best = latest_[i];
    }
    return best;
  }
  /// Lowest latest() across sub-streams.
  SeqNum min_latest() const noexcept {
    if (k_ == 0) return kNoSeq;
    SeqNum worst = latest_[0];
    for (int i = 1; i < k_; ++i) {
      if (latest_[i] < worst) worst = latest_[i];
    }
    return worst;
  }
  /// max_latest() - min_latest(): the within-node sub-stream spread that
  /// Ineq. (1) bounds by T_s.
  BlockCount spread() const noexcept {
    return k_ == 0 ? BlockCount::zero() : max_latest() - min_latest();
  }

  /// The dense latest-seq lanes; lanes [0, substream_count()) are valid.
  const SeqNum* latest_data() const noexcept { return latest_; }
  /// Subscription flags as one bit per lane (lane i -> bit i).
  std::uint32_t subscription_bits() const noexcept { return sub_bits_; }
  /// All-lanes-set mask for this BM's sub-stream count.
  std::uint32_t lane_mask() const noexcept {
    return k_ == 0 ? 0u : (~0u >> (32 - k_));
  }

  // --- lane predicates as bit masks (bit i == sub-stream i) ---------------
  // Branchless per-lane comparisons over the dense in-place lanes, inline
  // so a partner scan is straight-line word ops with no calls and no
  // pointer chase.
  /// "Blocks I need that you have": lanes where this BM (a partner's) is
  /// strictly ahead of `own`.  Both BMs must have the same lane count.
  std::uint32_t need_mask(const BufferMap& own) const noexcept {
    assert(k_ == own.k_);
    std::uint32_t m = 0;
    for (int i = 0; i < k_; ++i) {
      m |= static_cast<std::uint32_t>(latest_[i] > own.latest_[i]) << i;
    }
    return m;
  }
  /// Lanes lagging a reference position: ref - latest >= threshold.  With
  /// ref = max_latest() and threshold = T_s this is the Ineq. (1) spread
  /// term; with ref = partner-wide max and threshold = T_p it is Ineq. (2).
  std::uint32_t lag_mask(SeqNum ref, BlockCount threshold) const noexcept {
    std::uint32_t m = 0;
    for (int i = 0; i < k_; ++i) {
      m |= static_cast<std::uint32_t>(ref - latest_[i] >= threshold) << i;
    }
    return m;
  }
  /// Lanes where this BM leads `behind` by at least `threshold`
  /// (Ineq. (1)'s parent-lag term: parent_bm.gap_mask(own_bm, T_s)).
  std::uint32_t gap_mask(const BufferMap& behind,
                         BlockCount threshold) const noexcept {
    assert(k_ == behind.k_);
    std::uint32_t m = 0;
    for (int i = 0; i < k_; ++i) {
      m |= static_cast<std::uint32_t>(latest_[i] - behind.latest_[i] >=
                                      threshold)
           << i;
    }
    return m;
  }

  /// Compact wire encoding: "l0,l1,...|s0s1..." where si is '0'/'1'.
  /// Debug/golden format only — not on the hot path.
  std::string encode() const;
  /// Parses encode() output.  Returns nullopt on malformed input, when the
  /// sub-stream count disagrees between the two halves, or when it exceeds
  /// kMaxSubstreams.
  static std::optional<BufferMap> decode(const std::string& text);

  /// Wire size in bytes (for control-overhead accounting).  Computed
  /// arithmetically; pinned equal to encode().size() by test.
  std::size_t wire_size() const noexcept;

  friend bool operator==(const BufferMap& a, const BufferMap& b) noexcept {
    if (a.k_ != b.k_ || a.sub_bits_ != b.sub_bits_) return false;
    for (int i = 0; i < a.k_; ++i) {
      if (a.latest_[i] != b.latest_[i]) return false;
    }
    return true;
  }

 private:
  std::int32_t k_ = 0;
  std::uint32_t sub_bits_ = 0;
  SeqNum latest_[kMaxSubstreams]{};
};

}  // namespace coolstream::core
