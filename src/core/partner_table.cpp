#include "core/partner_table.h"

#include <algorithm>

namespace coolstream::core {

std::size_t PartnerTable::index_of(net::NodeId id) const noexcept {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].id == id) return i;
  }
  return kNone;
}

std::optional<PartnerView> PartnerTable::find(net::NodeId id) const {
  const std::size_t i = index_of(id);
  if (i == kNone) return std::nullopt;
  return (*this)[i];
}

void PartnerTable::add(net::NodeId id, bool incoming, Tick established) {
  assert(!contains(id));
  PartnerRecord record;
  record.established = established;
  record.id = id;
  record.incoming = incoming;
  records_.push_back(record);
  lanes_.insert(lanes_.end(), lane_stride(), kNoSeq);
}

void PartnerTable::erase(net::NodeId id) {
  const std::size_t i = index_of(id);
  if (i == kNone) return;
  records_.erase(records_.begin() + static_cast<std::ptrdiff_t>(i));
  const auto first =
      lanes_.begin() + static_cast<std::ptrdiff_t>(i * lane_stride());
  lanes_.erase(first, first + static_cast<std::ptrdiff_t>(lane_stride()));
}

bool PartnerTable::receive(net::NodeId id, std::span<const SeqNum> lanes,
                           Tick at) {
  assert(lanes.size() == lane_stride());
  const std::size_t i = index_of(id);
  if (i == kNone) return false;
  std::copy_n(lanes.begin(), lane_stride(),
              lanes_.begin() + static_cast<std::ptrdiff_t>(i * lane_stride()));
  records_[i].bm_time = at;
  return true;
}

void PartnerTable::release() noexcept {
  std::vector<PartnerRecord>().swap(records_);
  std::vector<SeqNum>().swap(lanes_);
}

}  // namespace coolstream::core
