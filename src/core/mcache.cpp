#include "core/mcache.h"

#include <algorithm>

namespace coolstream::core {

void Mcache::upsert(const McacheEntry& entry, sim::Rng& rng) {
  for (auto& e : entries_) {
    if (e.id == entry.id) {
      e.first_seen = std::min(e.first_seen, entry.first_seen);
      e.reachable = entry.reachable;
      return;
    }
  }
  if (entries_.size() < capacity_) {
    entries_.push_back(entry);
    return;
  }
  switch (policy_) {
    case McachePolicy::kRandomReplace: {
      entries_[rng.below(entries_.size())] = entry;
      break;
    }
    case McachePolicy::kPreferOld: {
      // Evict the youngest entry, but only if the candidate is older;
      // otherwise drop the candidate (the cache keeps its elders).
      auto youngest = std::max_element(
          entries_.begin(), entries_.end(),
          [](const McacheEntry& a, const McacheEntry& b) {
            return a.first_seen < b.first_seen;
          });
      if (entry.first_seen < youngest->first_seen) *youngest = entry;
      break;
    }
  }
}

void Mcache::remove(net::NodeId id) {
  std::erase_if(entries_, [id](const McacheEntry& e) { return e.id == id; });
}

bool Mcache::contains(net::NodeId id) const noexcept {
  return std::any_of(entries_.begin(), entries_.end(),
                     [id](const McacheEntry& e) { return e.id == id; });
}

}  // namespace coolstream::core
