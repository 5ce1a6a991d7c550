#include "net/bandwidth.h"

#include <algorithm>
#include <cassert>

namespace coolstream::net {

void max_min_fair(BlockRate capacity, std::span<const BlockRate> demands,
                  std::span<BlockRate> rates, std::span<std::size_t> active) {
  assert(capacity >= BlockRate::zero());
  const std::size_t n = demands.size();
  assert(rates.size() == n && active.size() >= n);
  std::fill(rates.begin(), rates.end(), BlockRate::zero());

  // Progressive filling: repeatedly grant unsatisfied connections an equal
  // share of the remaining capacity, capping at their demand.  `active`
  // holds the unsatisfied indices in its first `live` slots and is
  // compacted in place each pass.
  std::size_t live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    assert(demands[i] >= BlockRate::zero());
    if (demands[i] > BlockRate::zero()) active[live++] = i;
  }
  BlockRate remaining = capacity;
  while (live > 0 && remaining > BlockRate::zero()) {
    const BlockRate share = remaining / static_cast<double>(live);
    bool any_capped = false;
    std::size_t kept = 0;
    for (std::size_t a = 0; a < live; ++a) {
      const std::size_t i = active[a];
      const BlockRate want = demands[i] - rates[i];
      if (want <= share) {
        rates[i] = demands[i];
        remaining = remaining - want;
        any_capped = true;
      } else {
        active[kept++] = i;
      }
    }
    if (!any_capped) {
      // Nobody saturated: split the remainder equally and finish.
      for (std::size_t a = 0; a < kept; ++a) {
        rates[active[a]] = rates[active[a]] + share;
      }
      break;
    }
    live = kept;
  }
}

void equal_share(BlockRate capacity, std::span<const BlockRate> demands,
                 std::span<BlockRate> rates) {
  assert(capacity >= BlockRate::zero());
  const std::size_t n = demands.size();
  assert(rates.size() == n);
  std::fill(rates.begin(), rates.end(), BlockRate::zero());
  std::size_t positive = 0;
  for (BlockRate d : demands) {
    assert(d >= BlockRate::zero());
    if (d > BlockRate::zero()) ++positive;
  }
  if (positive == 0) return;
  const BlockRate share = capacity / static_cast<double>(positive);
  for (std::size_t i = 0; i < n; ++i) {
    if (demands[i] > BlockRate::zero()) rates[i] = std::min(demands[i], share);
  }
}

std::vector<BlockRate> max_min_fair(BlockRate capacity,
                                    std::span<const BlockRate> demands) {
  std::vector<BlockRate> rates(demands.size());
  std::vector<std::size_t> active(demands.size());
  max_min_fair(capacity, demands, rates, active);
  return rates;
}

std::vector<BlockRate> equal_share(BlockRate capacity,
                                   std::span<const BlockRate> demands) {
  std::vector<BlockRate> rates(demands.size());
  equal_share(capacity, demands, rates);
  return rates;
}

}  // namespace coolstream::net
