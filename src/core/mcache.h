// Membership cache (mCache), §III-B and §V-C.
//
// "Each node ... maintains a membership cache (mCache) containing a partial
// list of the currently active nodes in the system."  Entries are refreshed
// by gossip and by the boot-strap list; when the cache is full, "the update
// of the mCache entries is achieved by randomly replacing entries when new
// partnership is established" (§V-C) — the very policy the paper blames for
// flash-crowd pollution (the cache fills with newly joined peers that
// cannot provide stable streams, lengthening media-ready times, Fig. 7).
//
// The alternative replacement policy (evict the *youngest* entry, keeping
// long-lived peers) implements the improvement the paper suggests and is
// exercised by the ablation bench.
//
// With 32 entries the cache is a peer's largest container, so it is one
// fixed block allocated with the peer rather than a vector that grows as
// the cache fills (DESIGN.md §14).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/stream_types.h"
#include "net/types.h"
#include "sim/rng.h"

namespace coolstream::core {

/// Partial-view capacity of every node's mCache, entries.
inline constexpr std::size_t kMcacheSize = 32;

/// mCache replacement policy.
enum class McachePolicy : unsigned char {
  kRandomReplace = 0,  ///< the deployed Coolstreaming policy
  kPreferOld = 1,      ///< suggested improvement: keep older (stabler) peers
};

/// One known-peer entry, the record gossip messages, boot-strap lists and
/// partnership candidates carry.  Entries carry the peer's address class:
/// a node can tell from the advertised IP whether the peer is publicly
/// reachable (public address or UPnP mapping), so it never wastes a
/// connection attempt on a plain-NAT peer.
/// Ordered tick-first so the 4-byte id and the flag share one word and
/// the struct packs to 16 bytes.
struct McacheEntry {
  Tick first_seen{};     ///< when this node (reportedly) joined
  net::NodeId id = net::kInvalidNode;
  bool reachable = true; ///< accepts inbound connections
};

/// Bounded partial view of the overlay membership.
///
/// Storage is one fixed block per cache, allocated when the cache is built
/// and freed by release(): the first_seen times and the ids as parallel
/// arrays of kMcacheSize slots (384 B), so the id scans of upsert, contains
/// and remove read 128 B.  The reachable flags are a bit mask beside the
/// size, in the object.  New entries append; an eviction overwrites its
/// slot in place, and remove shifts the later slots down.
class Mcache {
 public:
  /// Throws std::invalid_argument unless 1 <= capacity <= kMcacheSize.
  Mcache(std::size_t capacity, McachePolicy policy);

  /// Inserts or refreshes an entry.  When full, evicts per policy:
  /// kRandomReplace evicts a uniformly random entry; kPreferOld evicts the
  /// entry with the largest first_seen (the youngest peer).
  void upsert(const McacheEntry& entry, sim::Rng& rng);

  /// Removes `id` if present (e.g. learned that the peer left).
  void remove(net::NodeId id);

  /// Empties the cache and frees its block (the owner left for good); the
  /// capacity reads 0 and the cache takes no further entries.
  void release() noexcept {
    slots_.reset();
    reachable_ = 0;
    size_ = 0;
    capacity_ = 0;
  }

  /// True when `id` is in the cache.
  bool contains(net::NodeId id) const noexcept;

  /// Scratch buffers for sample_into; owned by the caller (the System
  /// keeps one) so steady-state sampling never allocates.
  struct SampleScratch {
    std::vector<std::size_t> eligible;
    std::vector<std::size_t> picks;
  };

  /// Up to `k` distinct entries chosen uniformly at random, excluding
  /// entries for which `excluded` returns true, delivered to `sink` in
  /// draw order.  The predicate may take either the entry or just its
  /// node id.  Allocation-free once `scratch` capacities are warm; the
  /// RNG draw sequence is identical to sample().
  template <typename ExcludeFn, typename Sink>
  void sample_into(std::size_t k, sim::Rng& rng, ExcludeFn&& excluded,
                   SampleScratch& scratch, Sink&& sink) const {
    scratch.eligible.clear();
    scratch.eligible.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) {
      if constexpr (std::is_invocable_v<ExcludeFn, const McacheEntry&>) {
        if (!excluded(entry(i))) scratch.eligible.push_back(i);
      } else {
        if (!excluded(slots_->ids[i])) scratch.eligible.push_back(i);
      }
    }
    const std::size_t take = std::min(k, scratch.eligible.size());
    rng.sample_indices_into(scratch.eligible.size(), take, scratch.picks);
    for (std::size_t pick : scratch.picks) {
      sink(entry(scratch.eligible[pick]));
    }
  }

  /// Allocating convenience wrapper over sample_into (tests, cold paths).
  template <typename ExcludeFn>
  std::vector<McacheEntry> sample(std::size_t k, sim::Rng& rng,
                                  ExcludeFn&& excluded) const {
    SampleScratch scratch;
    std::vector<McacheEntry> out;
    out.reserve(k);
    sample_into(k, rng, std::forward<ExcludeFn>(excluded), scratch,
                [&out](const McacheEntry& e) { out.push_back(e); });
    return out;
  }

  /// The entry in slot `i` < size().
  McacheEntry entry(std::size_t i) const noexcept {
    return McacheEntry{slots_->first_seen[i], slots_->ids[i],
                       ((reachable_ >> i) & 1u) != 0};
  }
  /// The ids of slots [0, size()).
  std::span<const net::NodeId> ids() const noexcept {
    return {slots_ ? slots_->ids : nullptr, size_};
  }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  McachePolicy policy() const noexcept { return policy_; }

 private:
  struct Slots {
    Tick first_seen[kMcacheSize];
    net::NodeId ids[kMcacheSize];
  };

  /// Writes `e` into slot `i` < size().
  void put(std::size_t i, const McacheEntry& e) noexcept;

  std::unique_ptr<Slots> slots_;
  /// Bit i: slot i accepts inbound connections; bits from size_ up are 0.
  std::uint32_t reachable_ = 0;
  std::uint8_t size_ = 0;
  std::uint8_t capacity_;
  McachePolicy policy_;
};

}  // namespace coolstream::core
