#include "core/bootstrap.h"

#include <algorithm>

namespace coolstream::core {

void sample_bootstrap_list(std::span<const net::NodeId> active, std::size_t k,
                           net::NodeId requester, sim::Rng& rng,
                           std::vector<std::size_t>& idx_scratch,
                           std::vector<net::NodeId>& out_ids) {
  out_ids.clear();
  if (active.empty()) return;
  const std::size_t want = std::min(k + 1, active.size());
  rng.sample_indices_into(active.size(), want, idx_scratch);
  for (const std::size_t idx : idx_scratch) {
    const net::NodeId id = active[idx];
    if (id == requester) continue;
    if (out_ids.size() == k) break;
    out_ids.push_back(id);
  }
}

}  // namespace coolstream::core
