#include "core/bootstrap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace coolstream::core {
namespace {

/// Ids 0 .. n-1, the shape of a live list with no departures yet.
std::vector<net::NodeId> ids_up_to(net::NodeId n) {
  std::vector<net::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), net::NodeId{0});
  return ids;
}

TEST(BootstrapTest, SampleExcludesRequester) {
  const std::vector<net::NodeId> active = ids_up_to(10);
  sim::Rng rng(1);
  std::vector<std::size_t> idx;
  std::vector<net::NodeId> list;
  for (int trial = 0; trial < 200; ++trial) {
    sample_bootstrap_list(active, 5, 3, rng, idx, list);
    ASSERT_EQ(list.size(), 5u);
    EXPECT_EQ(std::count(list.begin(), list.end(), net::NodeId{3}), 0);
    // Distinct.
    std::sort(list.begin(), list.end());
    ASSERT_TRUE(std::adjacent_find(list.begin(), list.end()) == list.end());
  }
}

TEST(BootstrapTest, SampleSmallPopulation) {
  const std::vector<net::NodeId> active{1, 2};
  sim::Rng rng(2);
  std::vector<std::size_t> idx;
  std::vector<net::NodeId> list;
  sample_bootstrap_list(active, 8, 1, rng, idx, list);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0], 2u);
}

TEST(BootstrapTest, SampleEmptyList) {
  sim::Rng rng(3);
  std::vector<std::size_t> idx;
  std::vector<net::NodeId> list{7};  // cleared even when nothing is drawn
  sample_bootstrap_list({}, 4, 0, rng, idx, list);
  EXPECT_TRUE(list.empty());
}

TEST(BootstrapTest, SampleCoversAllNodes) {
  const std::vector<net::NodeId> active = ids_up_to(20);
  sim::Rng rng(4);
  std::vector<std::size_t> idx;
  std::vector<net::NodeId> list;
  std::vector<int> seen(20, 0);
  for (int trial = 0; trial < 2000; ++trial) {
    sample_bootstrap_list(active, 4, 999, rng, idx, list);
    for (const net::NodeId id : list) ++seen[id];
  }
  // Every node appears, roughly uniformly (expected 400 each).
  for (int s : seen) EXPECT_NEAR(s, 400, 120);
}

}  // namespace
}  // namespace coolstream::core
