#include "core/mcache.h"

#include <algorithm>
#include <stdexcept>

namespace coolstream::core {

static_assert(kMcacheSize <= 32, "the reachable flags are a 32-bit mask");

Mcache::Mcache(std::size_t capacity, McachePolicy policy)
    : capacity_(static_cast<std::uint8_t>(capacity)), policy_(policy) {
  if (capacity == 0 || capacity > kMcacheSize) {
    throw std::invalid_argument("Mcache capacity must be in [1, kMcacheSize]");
  }
  slots_ = std::make_unique_for_overwrite<Slots>();
}

void Mcache::put(std::size_t i, const McacheEntry& e) noexcept {
  slots_->first_seen[i] = e.first_seen;
  slots_->ids[i] = e.id;
  reachable_ = (reachable_ & ~(1u << i)) |
               (static_cast<std::uint32_t>(e.reachable) << i);
}

void Mcache::upsert(const McacheEntry& entry, sim::Rng& rng) {
  Slots& s = *slots_;
  for (std::size_t i = 0; i < size_; ++i) {
    if (s.ids[i] == entry.id) {
      put(i, McacheEntry{std::min(s.first_seen[i], entry.first_seen),
                         entry.id, entry.reachable});
      return;
    }
  }
  if (size_ < capacity_) {
    put(size_++, entry);
    return;
  }
  switch (policy_) {
    case McachePolicy::kRandomReplace: {
      put(rng.below(size_), entry);
      break;
    }
    case McachePolicy::kPreferOld: {
      // Evict the youngest entry (the first, on a tie), but only if the
      // candidate is older; otherwise drop the candidate (the cache keeps
      // its elders).
      const Tick* youngest =
          std::max_element(s.first_seen, s.first_seen + size_);
      if (entry.first_seen < *youngest) {
        put(static_cast<std::size_t>(youngest - s.first_seen), entry);
      }
      break;
    }
  }
}

void Mcache::remove(net::NodeId id) {
  const std::span<const net::NodeId> known = ids();
  const auto hit = std::find(known.begin(), known.end(), id);
  if (hit == known.end()) return;
  const auto i = static_cast<std::size_t>(hit - known.begin());
  Slots& s = *slots_;
  std::copy(s.ids + i + 1, s.ids + size_, s.ids + i);
  std::copy(s.first_seen + i + 1, s.first_seen + size_, s.first_seen + i);
  const std::uint32_t below = (1u << i) - 1;
  reachable_ = (reachable_ & below) | ((reachable_ >> 1) & ~below);
  --size_;
}

bool Mcache::contains(net::NodeId id) const noexcept {
  const std::span<const net::NodeId> known = ids();
  return std::find(known.begin(), known.end(), id) != known.end();
}

}  // namespace coolstream::core
