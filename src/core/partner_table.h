// A peer's partner list with each partner's latest buffer map (§III-B/C).
//
// A buffer map carries the sender's K latest sequence numbers, which
// parent selection, the adaptation inequalities and the start offset read
// back.  The table keeps one small record per partner and, next to the
// records, one flat array of exactly K lanes per partner, in record
// order.  Only the table adds, erases and finds partners, so the
// records and the lanes cannot drift apart.  Readers see a partner through
// a PartnerView, which is valid until the table next changes.
#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/stream_types.h"
#include "net/types.h"

namespace coolstream::core {

/// What a peer knows about one partner, apart from its lanes.  Ordered
/// ticks-first so the only padding is the tail.
struct PartnerRecord {
  Tick established{};
  OptionalTick bm_time;          ///< when its map was received (empty: never)
  net::NodeId id = net::kInvalidNode;
  bool incoming = false;         ///< the partner initiated the connection
};

/// Read-only view of one partner: its record plus its K lanes.
class PartnerView {
 public:
  PartnerView(const PartnerRecord& record, const SeqNum* lanes, int k) noexcept
      : record_(&record), lanes_(lanes), k_(k) {}

  net::NodeId id() const noexcept { return record_->id; }
  bool incoming() const noexcept { return record_->incoming; }
  Tick established() const noexcept { return record_->established; }
  OptionalTick bm_time() const noexcept { return record_->bm_time; }

  /// Latest sequence number the partner advertised on sub-stream `j`
  /// (-1: none, or no map received yet).
  SeqNum latest(SubstreamId j) const {
    assert(j.index() < static_cast<std::size_t>(k_));
    return lanes_[j.index()];
  }
  /// Highest latest() across the K lanes.
  SeqNum max_latest() const noexcept {
    return core::max_latest(
        std::span<const SeqNum>(lanes_, static_cast<std::size_t>(k_)));
  }

 private:
  const PartnerRecord* record_;
  const SeqNum* lanes_;
  int k_;
};

/// The partner list, in establishment order.
class PartnerTable {
 public:
  /// An empty table whose partners carry `k` lanes each.
  explicit PartnerTable(int k) : k_(k) {
    assert(k >= 1 && k <= kMaxSubstreams);
  }

  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }
  /// Record slots allocated (session-memory accounting).
  std::size_t capacity() const noexcept { return records_.capacity(); }

  PartnerView operator[](std::size_t i) const {
    assert(i < records_.size());
    return PartnerView(records_[i], lanes_.data() + i * lane_stride(), k_);
  }

  /// Iterates the partners as views, in table order.
  class Iterator {
   public:
    Iterator(const PartnerTable& table, std::size_t i) noexcept
        : table_(&table), i_(i) {}
    PartnerView operator*() const { return (*table_)[i_]; }
    Iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    bool operator==(const Iterator&) const noexcept = default;

   private:
    const PartnerTable* table_;
    std::size_t i_;
  };
  Iterator begin() const noexcept { return Iterator(*this, 0); }
  Iterator end() const noexcept { return Iterator(*this, records_.size()); }

  /// Highest latest() across the partners whose map has arrived (kNoSeq
  /// when none has): the freshest block any partner has advertised.  A
  /// partner without a map holds kNoSeq lanes, so one scan of every lane
  /// gives the same answer.
  SeqNum max_advertised() const noexcept { return core::max_latest(lanes_); }

  /// The partner `id`, if listed.
  std::optional<PartnerView> find(net::NodeId id) const;
  bool contains(net::NodeId id) const noexcept { return index_of(id) != kNone; }

  /// Appends partner `id` (not yet listed) with no buffer map received.
  void add(net::NodeId id, bool incoming, Tick established);
  /// Removes partner `id`, keeping the others in order; no-op if absent.
  void erase(net::NodeId id);
  /// Stores `lanes` (exactly K) as partner `id`'s latest map, received at
  /// `at`.  Returns false when `id` is not listed.
  bool receive(net::NodeId id, std::span<const SeqNum> lanes, Tick at);
  /// Empties the table and frees its storage.
  void release() noexcept;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t lane_stride() const noexcept {
    return static_cast<std::size_t>(k_);
  }
  std::size_t index_of(net::NodeId id) const noexcept;

  std::vector<PartnerRecord> records_;
  std::vector<SeqNum> lanes_;  ///< K lanes per record, in record order
  int k_;
};

}  // namespace coolstream::core
