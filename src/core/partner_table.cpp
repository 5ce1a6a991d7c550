#include "core/partner_table.h"

#include <algorithm>

namespace coolstream::core {

std::size_t PartnerTable::index_of(net::NodeId id) const noexcept {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].id == id) return i;
  }
  return kNone;
}

SeqNum PartnerTable::max_advertised() const noexcept {
  SeqNum best = kNoSeq;
  for (const PartnerView ps : *this) best = std::max(best, ps.max_latest());
  return best;
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
}

void PartnerTable::erase(net::NodeId id) {
  const std::size_t i = index_of(id);
  if (i == kNone) return;
  records_.erase(records_.begin() + static_cast<std::ptrdiff_t>(i));
}

bool PartnerTable::mark_mutual(net::NodeId id, std::uint32_t stamp) noexcept {
  const std::size_t i = index_of(id);
  if (i == kNone) return false;
  if (records_[i].mutual_since == kNotMutual) records_[i].mutual_since = stamp;
  return true;
}

void PartnerTable::release() noexcept {
  std::vector<PartnerRecord>().swap(records_);
}

}  // namespace coolstream::core
