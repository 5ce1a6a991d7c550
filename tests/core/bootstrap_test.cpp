#include "core/bootstrap.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace coolstream::core {
namespace {

TEST(BootstrapTest, AddRemoveContains) {
  BootstrapServer b;
  EXPECT_EQ(b.active_count(), 0u);
  b.add(5, Tick(1.0));
  b.add(9, Tick(2.0));
  EXPECT_TRUE(b.contains(5));
  EXPECT_TRUE(b.contains(9));
  EXPECT_EQ(b.active_count(), 2u);
  b.remove(5);
  EXPECT_FALSE(b.contains(5));
  EXPECT_EQ(b.active_count(), 1u);
}

TEST(BootstrapTest, AddIsIdempotent) {
  BootstrapServer b;
  b.add(3, Tick(1.0));
  b.add(3, Tick(2.0));
  EXPECT_EQ(b.active_count(), 1u);
  EXPECT_EQ(b.joined_at(3), Tick(1.0));
}

TEST(BootstrapTest, RemoveAbsentIsNoop) {
  BootstrapServer b;
  b.add(1, Tick(1.0));
  b.remove(99);
  b.remove(1);
  b.remove(1);
  EXPECT_EQ(b.active_count(), 0u);
}

TEST(BootstrapTest, JoinedAt) {
  BootstrapServer b;
  b.add(4, Tick(7.5));
  EXPECT_EQ(b.joined_at(4), Tick(7.5));
  EXPECT_EQ(b.joined_at(5), Tick(-1.0));
  b.remove(4);
  EXPECT_EQ(b.joined_at(4), Tick(-1.0));
}

TEST(BootstrapTest, RandomListExcludesRequester) {
  BootstrapServer b;
  sim::Rng rng(1);
  for (net::NodeId id = 0; id < 10; ++id) b.add(id, Tick(0.0));
  for (int trial = 0; trial < 200; ++trial) {
    const auto list = b.random_list(5, 3, rng);
    ASSERT_EQ(list.size(), 5u);
    std::vector<net::NodeId> sorted;
    for (const McacheEntry& e : list) {
      ASSERT_NE(e.id, 3u);
      ASSERT_TRUE(b.contains(e.id));
      sorted.push_back(e.id);
    }
    // Distinct.
    std::sort(sorted.begin(), sorted.end());
    ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
  }
}

TEST(BootstrapTest, RandomListSmallPopulation) {
  BootstrapServer b;
  sim::Rng rng(2);
  b.add(1, Tick(0.0));
  b.add(2, Tick(0.0));
  const auto list = b.random_list(8, 1, rng);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].id, 2u);
}

TEST(BootstrapTest, RandomListEmptyRegistry) {
  BootstrapServer b;
  sim::Rng rng(3);
  EXPECT_TRUE(b.random_list(4, 0, rng).empty());
}

TEST(BootstrapTest, RandomListCoversAllNodes) {
  BootstrapServer b;
  sim::Rng rng(4);
  for (net::NodeId id = 0; id < 20; ++id) b.add(id, Tick(0.0));
  std::vector<int> seen(20, 0);
  for (int trial = 0; trial < 2000; ++trial) {
    for (const McacheEntry& e : b.random_list(4, 999, rng)) ++seen[e.id];
  }
  // Every node appears, roughly uniformly (expected 400 each).
  for (int s : seen) EXPECT_NEAR(s, 400, 120);
}

TEST(BootstrapTest, SwapRemoveKeepsRegistryConsistent) {
  BootstrapServer b;
  sim::Rng rng(5);
  for (net::NodeId id = 0; id < 50; ++id) b.add(id, Tick(id));
  for (net::NodeId id = 0; id < 50; id += 2) b.remove(id);
  EXPECT_EQ(b.active_count(), 25u);
  for (net::NodeId id = 0; id < 50; ++id) {
    EXPECT_EQ(b.contains(id), id % 2 == 1) << id;
  }
  const auto list = b.random_list(25, 1000, rng);
  EXPECT_EQ(list.size(), 25u);
  for (const McacheEntry& e : list) {
    EXPECT_EQ(e.id % 2, 1u);
    EXPECT_EQ(e.first_seen, Tick(e.id));  // stamped with its join time
  }
}

}  // namespace
}  // namespace coolstream::core
