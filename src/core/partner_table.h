// A peer's partner list (§III-B) and its read of each partner's buffer map
// (§III-C).
//
// A buffer map carries the sender's K latest sequence numbers, which
// parent selection, the adaptation inequalities and the start offset read
// back.  Every node exchanges its map with all partners at once, so the
// System keeps one Advertisement per node id (the K heads of its last
// periodic exchange) and a partner's map is a read of that one copy.  The
// table keeps one small record per partner, in establishment order; only
// it adds, erases and finds partners.  A record's mutual stamp is the tick
// in which both sides came to list each other, and the partner's
// advertisement shows through the record only when it was published in a
// later tick: the first exchange whose push the partner would have kept.
// Readers see a partner through a PartnerView, which is valid until the
// table or the advertisement array next changes (a join can reallocate
// the array).
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/stream_types.h"
#include "net/types.h"

namespace coolstream::core {

/// A node's buffer map as of its last periodic exchange.
struct Advertisement {
  static_assert(kMaxSubstreams == 8, "one kNoSeq per lane below");
  /// The first K are in use.
  std::array<SeqNum, kMaxSubstreams> lanes{kNoSeq, kNoSeq, kNoSeq, kNoSeq,
                                           kNoSeq, kNoSeq, kNoSeq, kNoSeq};
  OptionalTick time;        ///< when the exchange was flushed (empty: never)
  std::uint32_t stamp = 0;  ///< the exchange's tick
};

/// What a partner shows before its first visible exchange: no map.
inline constexpr Advertisement kNoMap{};

/// Mutual stamp of a partnership the other side does not list yet.
inline constexpr std::uint32_t kNotMutual = ~std::uint32_t{0};

/// What a peer knows about one partner.  Ordered ticks-first so the only
/// padding is the tail.
struct PartnerRecord {
  Tick established{};
  net::NodeId id = net::kInvalidNode;
  /// The tick in which both sides came to list each other.
  std::uint32_t mutual_since = kNotMutual;
  bool incoming = false;  ///< the partner initiated the connection
};

/// Read-only view of one partner: its record plus the map it shows.
class PartnerView {
 public:
  /// `ad` is the partner's advertisement when visible, else kNoMap.
  PartnerView(const PartnerRecord& rec, const Advertisement& ad, int k) noexcept
      : record_(&rec), map_(&ad), k_(k) {}

  net::NodeId id() const noexcept { return record_->id; }
  bool incoming() const noexcept { return record_->incoming; }
  Tick established() const noexcept { return record_->established; }
  /// When the visible map was exchanged (empty: none visible yet).
  OptionalTick bm_time() const noexcept { return map_->time; }

  /// Latest sequence number the partner advertised on sub-stream `j`
  /// (-1: none, or no map visible yet).
  SeqNum latest(SubstreamId j) const {
    assert(j.index() < static_cast<std::size_t>(k_));
    return map_->lanes[j.index()];
  }
  /// Highest latest() across the K lanes.
  SeqNum max_latest() const noexcept {
    return core::max_latest(std::span<const SeqNum>(
        map_->lanes.data(), static_cast<std::size_t>(k_)));
  }

 private:
  const PartnerRecord* record_;
  const Advertisement* map_;
  int k_;
};

/// The partner list, in establishment order.
class PartnerTable {
 public:
  /// An empty table whose partners show K = `k` lanes of their entry in
  /// `board` (indexed by node id, covering every id the table will list;
  /// it must outlive the table).
  PartnerTable(const std::vector<Advertisement>& board, int k)
      : board_(&board), k_(k) {
    assert(k >= 1 && k <= kMaxSubstreams);
  }

  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }
  /// Record slots allocated (session-memory accounting).
  std::size_t capacity() const noexcept { return records_.capacity(); }

  PartnerView operator[](std::size_t i) const {
    assert(i < records_.size());
    const PartnerRecord& r = records_[i];
    const Advertisement& ad = (*board_)[r.id];  // kNotMutual hides every
    return PartnerView(r, ad.stamp > r.mutual_since ? ad : kNoMap, k_);
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

  /// Highest latest() across the partners whose map is visible (kNoSeq
  /// when none is): the freshest block any partner has advertised.
  SeqNum max_advertised() const noexcept;

  /// The partner `id`, if listed.
  std::optional<PartnerView> find(net::NodeId id) const;
  bool contains(net::NodeId id) const noexcept { return index_of(id) != kNone; }

  /// Appends partner `id` (not yet listed), not yet mutual.
  void add(net::NodeId id, bool incoming, Tick established);
  /// Removes partner `id`, keeping the others in order; no-op if absent.
  void erase(net::NodeId id);
  /// Records that partner `id` lists us back since tick `stamp`; a record
  /// already mutual keeps its stamp.  Returns false when `id` is not
  /// listed.
  bool mark_mutual(net::NodeId id, std::uint32_t stamp) noexcept;
  /// Empties the table and frees its storage.
  void release() noexcept;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t index_of(net::NodeId id) const noexcept;

  const std::vector<Advertisement>* board_;
  std::vector<PartnerRecord> records_;
  int k_;
};

}  // namespace coolstream::core
