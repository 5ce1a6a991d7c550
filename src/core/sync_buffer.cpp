#include "core/sync_buffer.h"

#include <algorithm>
#include <cassert>

namespace coolstream::core {

SyncBuffer::SyncBuffer(int k)
    : heads_(static_cast<std::size_t>(k), kNoSeq),
      ahead_(static_cast<std::size_t>(k)) {
  assert(k >= 1);
}

bool SyncBuffer::insert(SubstreamId i, SeqNum seq) {
  assert(i.index() < heads_.size());
  SeqNum& head = heads_[i.index()];
  if (seq <= head) return false;  // old or duplicate
  auto& ahead = ahead_[i.index()];
  if (seq == head + BlockCount(1)) {
    ++head;
    // Absorb any queued successors.
    auto it = ahead.begin();
    while (it != ahead.end() && *it == head + BlockCount(1)) {
      ++head;
      it = ahead.erase(it);
    }
  } else {
    if (!ahead.insert(seq).second) return false;  // duplicate ahead block
  }
  ++received_;
  ++version_;
  recompute_combined();
  return true;
}

void SyncBuffer::start_at(SubstreamId i, SeqNum seq) {
  assert(i.index() < heads_.size());
  SeqNum& head = heads_[i.index()];
  head = std::max(head, seq - BlockCount(1));
  ++version_;
  // Drop queued blocks now below the head.
  auto& ahead = ahead_[i.index()];
  ahead.erase(ahead.begin(), ahead.lower_bound(head + BlockCount(1)));
}

void SyncBuffer::set_combined_floor(GlobalSeq g) noexcept {
  if (g > combined_) combined_ = g;
  recompute_combined();
}

std::size_t SyncBuffer::pending(SubstreamId i) const {
  assert(i.index() < ahead_.size());
  return ahead_[i.index()].size();
}

BlockCount SyncBuffer::spread() const noexcept {
  const auto [lo, hi] = std::minmax_element(heads_.begin(), heads_.end());
  return *hi - *lo;
}

void SyncBuffer::recompute_combined() noexcept {
  combined_ = combined_prefix(heads_.data(), substream_count(), combined_);
}

}  // namespace coolstream::core
