#include "core/sync_buffer.h"

#include <algorithm>
#include <cassert>

namespace coolstream::core {

SyncBuffer::SyncBuffer(int k) : k_(k) {
  assert(k >= 1 && k <= kMaxSubstreams);
  heads_.fill(kNoSeq);
}

void SyncBuffer::advance(SubstreamId i) {
  assert(i.index() < static_cast<std::size_t>(k_));
  ++heads_[i.index()];
  ++received_;
  recompute_combined();
}

void SyncBuffer::start_at(SubstreamId i, SeqNum seq) {
  assert(i.index() < static_cast<std::size_t>(k_));
  SeqNum& head = heads_[i.index()];
  head = std::max(head, seq - BlockCount(1));
}

void SyncBuffer::set_combined_floor(GlobalSeq g) noexcept {
  if (g > combined_) combined_ = g;
  recompute_combined();
}

BlockCount SyncBuffer::spread() const noexcept {
  const std::span<const SeqNum> lanes = heads();
  const auto [lo, hi] = std::minmax_element(lanes.begin(), lanes.end());
  return *hi - *lo;
}

void SyncBuffer::recompute_combined() noexcept {
  combined_ = combined_prefix(heads_.data(), k_, combined_);
}

}  // namespace coolstream::core
