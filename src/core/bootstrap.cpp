#include "core/bootstrap.h"

namespace coolstream::core {

void BootstrapServer::add(net::NodeId id, Tick joined_at) {
  if (index_.size() <= id) index_.resize(id + 1, 0);
  if (index_[id] != 0) return;  // already active
  order_.push_back(ActiveNode{id, joined_at});
  index_[id] = order_.size();
}

void BootstrapServer::remove(net::NodeId id) {
  if (index_.size() <= id || index_[id] == 0) return;
  const std::size_t pos = index_[id] - 1;
  index_[id] = 0;
  if (pos + 1 != order_.size()) {
    order_[pos] = order_.back();
    index_[order_[pos].id] = pos + 1;
  }
  order_.pop_back();
}

bool BootstrapServer::contains(net::NodeId id) const noexcept {
  return id < index_.size() && index_[id] != 0;
}

Tick BootstrapServer::joined_at(net::NodeId id) const noexcept {
  if (id >= index_.size() || index_[id] == 0) return Tick(-1.0);
  return order_[index_[id] - 1].joined_at;
}

std::vector<McacheEntry> BootstrapServer::random_list(
    std::size_t k, net::NodeId requester, sim::Rng& rng) const {
  std::vector<std::size_t> idx_scratch;
  std::vector<McacheEntry> out;
  random_list_into(k, requester, rng, idx_scratch, out);
  return out;
}

void BootstrapServer::random_list_into(std::size_t k, net::NodeId requester,
                                       sim::Rng& rng,
                                       std::vector<std::size_t>& idx_scratch,
                                       std::vector<McacheEntry>& out) const {
  out.clear();
  if (order_.empty()) return;
  // Sample k+1 to be able to drop the requester without bias.
  const std::size_t want = std::min(k + 1, order_.size());
  rng.sample_indices_into(order_.size(), want, idx_scratch);
  for (std::size_t idx : idx_scratch) {
    const ActiveNode& node = order_[idx];
    if (node.id == requester) continue;
    if (out.size() == k) break;
    out.push_back(McacheEntry{node.joined_at, node.id, true});
  }
}

}  // namespace coolstream::core
