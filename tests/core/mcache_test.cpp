#include "core/mcache.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace coolstream::core {
namespace {

McacheEntry entry(net::NodeId id, double first_seen = 0.0) {
  return McacheEntry{Tick(first_seen), id};
}

TEST(McacheTest, InsertUntilCapacity) {
  sim::Rng rng(1);
  Mcache m(3, McachePolicy::kRandomReplace);
  m.upsert(entry(1), rng);
  m.upsert(entry(2), rng);
  m.upsert(entry(3), rng);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.contains(1));
  EXPECT_TRUE(m.contains(2));
  EXPECT_TRUE(m.contains(3));
}

TEST(McacheTest, UpsertRefreshesExisting) {
  sim::Rng rng(2);
  Mcache m(2, McachePolicy::kRandomReplace);
  m.upsert(McacheEntry{Tick(10.0), 7}, rng);
  m.upsert(McacheEntry{Tick(12.0), 7}, rng);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.entries()[0].first_seen, Tick(10.0));  // keeps the earliest
}

TEST(McacheTest, RandomReplaceEvictsWhenFull) {
  sim::Rng rng(3);
  Mcache m(4, McachePolicy::kRandomReplace);
  for (net::NodeId id = 0; id < 4; ++id) m.upsert(entry(id), rng);
  m.upsert(entry(100), rng);
  EXPECT_EQ(m.size(), 4u);
  EXPECT_TRUE(m.contains(100));  // the new entry always lands
}

TEST(McacheTest, RandomReplaceEvictsUniformly) {
  // Insert 0..9 into a full cache many times; every original entry should
  // get evicted at comparable frequency.
  std::vector<int> evictions(10, 0);
  for (std::uint64_t seed = 0; seed < 3000; ++seed) {
    sim::Rng rng(seed);
    Mcache m(10, McachePolicy::kRandomReplace);
    for (net::NodeId id = 0; id < 10; ++id) m.upsert(entry(id), rng);
    m.upsert(entry(999), rng);
    for (net::NodeId id = 0; id < 10; ++id) {
      if (!m.contains(id)) ++evictions[id];
    }
  }
  for (int e : evictions) EXPECT_NEAR(e, 300, 80);
}

TEST(McacheTest, PreferOldKeepsElders) {
  sim::Rng rng(4);
  Mcache m(3, McachePolicy::kPreferOld);
  m.upsert(entry(1, 10.0), rng);
  m.upsert(entry(2, 20.0), rng);
  m.upsert(entry(3, 30.0), rng);
  // A peer older than the youngest replaces it.
  m.upsert(entry(4, 15.0), rng);
  EXPECT_TRUE(m.contains(4));
  EXPECT_FALSE(m.contains(3));
  // A peer younger than everyone is dropped.
  m.upsert(entry(5, 99.0), rng);
  EXPECT_FALSE(m.contains(5));
  EXPECT_EQ(m.size(), 3u);
}

TEST(McacheTest, Remove) {
  sim::Rng rng(5);
  Mcache m(4, McachePolicy::kRandomReplace);
  m.upsert(entry(1), rng);
  m.upsert(entry(2), rng);
  m.remove(1);
  EXPECT_FALSE(m.contains(1));
  EXPECT_EQ(m.size(), 1u);
  m.remove(42);  // absent: no-op
  EXPECT_EQ(m.size(), 1u);
}

TEST(McacheTest, SampleRespectsExclusionAndCount) {
  sim::Rng rng(6);
  Mcache m(16, McachePolicy::kRandomReplace);
  for (net::NodeId id = 0; id < 10; ++id) m.upsert(entry(id), rng);
  const auto sample = m.sample(4, rng, [](net::NodeId id) {
    return id % 2 == 0;  // exclude evens
  });
  EXPECT_EQ(sample.size(), 4u);
  for (const auto& e : sample) EXPECT_EQ(e.id % 2, 1u);
  // Distinctness.
  std::vector<net::NodeId> ids;
  for (const auto& e : sample) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

TEST(McacheTest, SampleMoreThanAvailable) {
  sim::Rng rng(7);
  Mcache m(8, McachePolicy::kRandomReplace);
  m.upsert(entry(1), rng);
  m.upsert(entry(2), rng);
  const auto sample = m.sample(10, rng, [](net::NodeId) { return false; });
  EXPECT_EQ(sample.size(), 2u);
}

TEST(McacheTest, SampleFromEmpty) {
  sim::Rng rng(8);
  Mcache m(8, McachePolicy::kRandomReplace);
  EXPECT_TRUE(m.sample(3, rng, [](net::NodeId) { return false; }).empty());
}

}  // namespace
}  // namespace coolstream::core
