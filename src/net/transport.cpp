#include "net/transport.h"

#include <numeric>

namespace coolstream::net {

std::string_view to_string(MessageKind kind) noexcept {
  switch (kind) {
    case MessageKind::kGossip:
      return "gossip";
    case MessageKind::kBufferMap:
      return "buffermap";
    case MessageKind::kSubscribe:
      return "subscribe";
    case MessageKind::kPartnership:
      return "partnership";
    case MessageKind::kReport:
      return "report";
  }
  return "unknown";
}

Arrivals Transport::route(NodeId from, NodeId to, MessageKind kind) {
  ++counts_[static_cast<std::size_t>(kind)];
  const units::Duration base = latency_.delay(from, to);
  Arrivals out;
  if (faults_ == nullptr) {
    out.delays[out.count++] = base;
    return out;
  }
  const sim::MessageDecision d = faults_->on_message(sim_.now(), from, to);
  if (d.drop) return out;
  if (d.duplicate) {
    out.delays[out.count++] = base + d.extra_delay + d.duplicate_delay;
  }
  out.delays[out.count++] = base + d.extra_delay;
  return out;
}

std::uint64_t Transport::total_sent() const noexcept {
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

}  // namespace coolstream::net
