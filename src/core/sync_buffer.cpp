#include "core/sync_buffer.h"

#include <algorithm>
#include <cassert>

namespace coolstream::core {

SyncBuffer::SyncBuffer(int k) : heads_(static_cast<std::size_t>(k), kNoSeq) {
  assert(k >= 1);
}

bool SyncBuffer::insert(SubstreamId i, SeqNum seq) {
  assert(i.index() < heads_.size());
  SeqNum& head = heads_[i.index()];
  if (seq <= head) return false;  // old or duplicate
  const auto lane = std::ranges::equal_range(ahead_, i, {}, &AheadBlock::lane);
  if (seq == head + BlockCount(1)) {
    ++head;
    // Absorb any queued successors.
    auto it = lane.begin();
    while (it != lane.end() && it->seq == head + BlockCount(1)) {
      ++head;
      ++it;
    }
    ahead_.erase(lane.begin(), it);
  } else {
    const auto pos = std::ranges::lower_bound(lane, seq, {}, &AheadBlock::seq);
    if (pos != lane.end() && pos->seq == seq) {
      return false;  // duplicate ahead block
    }
    ahead_.insert(pos, AheadBlock{i, seq});
  }
  ++received_;
  recompute_combined();
  return true;
}

void SyncBuffer::start_at(SubstreamId i, SeqNum seq) {
  assert(i.index() < heads_.size());
  SeqNum& head = heads_[i.index()];
  head = std::max(head, seq - BlockCount(1));
  // Drop queued blocks now below the head.
  const auto lane = std::ranges::equal_range(ahead_, i, {}, &AheadBlock::lane);
  ahead_.erase(lane.begin(), std::ranges::lower_bound(lane, head + BlockCount(1),
                                                      {}, &AheadBlock::seq));
}

void SyncBuffer::set_combined_floor(GlobalSeq g) noexcept {
  if (g > combined_) combined_ = g;
  recompute_combined();
}

std::size_t SyncBuffer::pending(SubstreamId i) const {
  assert(i.index() < heads_.size());
  return std::ranges::equal_range(ahead_, i, {}, &AheadBlock::lane).size();
}

BlockCount SyncBuffer::spread() const noexcept {
  const auto [lo, hi] = std::minmax_element(heads_.begin(), heads_.end());
  return *hi - *lo;
}

void SyncBuffer::recompute_combined() noexcept {
  combined_ = combined_prefix(heads_.data(), substream_count(), combined_);
}

}  // namespace coolstream::core
