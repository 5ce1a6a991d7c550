#include "core/mcache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

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
  EXPECT_EQ(m.entry(0).first_seen, Tick(10.0));  // keeps the earliest
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

TEST(McacheTest, CapacityOutsideTheBlockThrows) {
  EXPECT_THROW(Mcache(0, McachePolicy::kRandomReplace), std::invalid_argument);
  EXPECT_THROW(Mcache(kMcacheSize + 1, McachePolicy::kPreferOld),
               std::invalid_argument);
  EXPECT_EQ(Mcache(kMcacheSize, McachePolicy::kPreferOld).capacity(),
            kMcacheSize);
}

TEST(McacheTest, ReleaseFreesTheBlock) {
  sim::Rng rng(9);
  Mcache m(4, McachePolicy::kRandomReplace);
  m.upsert(entry(1), rng);
  m.release();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_TRUE(m.ids().empty());
  EXPECT_FALSE(m.contains(1));
}

// The mCache as first written: a vector of entries.  The fixed block must
// reproduce it bit for bit: slot order, eviction draws and sample picks.
class ReferenceMcache {
 public:
  ReferenceMcache(std::size_t capacity, McachePolicy policy)
      : capacity_(capacity), policy_(policy) {}

  void upsert(const McacheEntry& entry, sim::Rng& rng) {
    for (auto& e : entries_) {
      if (e.id == entry.id) {
        e.first_seen = std::min(e.first_seen, entry.first_seen);
        e.reachable = entry.reachable;
        return;
      }
    }
    if (entries_.size() < capacity_) {
      entries_.push_back(entry);
      return;
    }
    switch (policy_) {
      case McachePolicy::kRandomReplace:
        entries_[rng.below(entries_.size())] = entry;
        break;
      case McachePolicy::kPreferOld: {
        auto youngest = std::max_element(
            entries_.begin(), entries_.end(),
            [](const McacheEntry& a, const McacheEntry& b) {
              return a.first_seen < b.first_seen;
            });
        if (entry.first_seen < youngest->first_seen) *youngest = entry;
        break;
      }
    }
  }

  void remove(net::NodeId id) {
    std::erase_if(entries_, [id](const McacheEntry& e) { return e.id == id; });
  }

  bool contains(net::NodeId id) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [id](const McacheEntry& e) { return e.id == id; });
  }

  template <typename ExcludeFn>
  std::vector<McacheEntry> sample(std::size_t k, sim::Rng& rng,
                                  ExcludeFn&& excluded) const {
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if constexpr (std::is_invocable_v<ExcludeFn, const McacheEntry&>) {
        if (!excluded(entries_[i])) eligible.push_back(i);
      } else {
        if (!excluded(entries_[i].id)) eligible.push_back(i);
      }
    }
    std::vector<std::size_t> picks;
    rng.sample_indices_into(eligible.size(), std::min(k, eligible.size()),
                            picks);
    std::vector<McacheEntry> out;
    for (std::size_t pick : picks) out.push_back(entries_[eligible[pick]]);
    return out;
  }

  const std::vector<McacheEntry>& entries() const { return entries_; }

 private:
  std::size_t capacity_;
  McachePolicy policy_;
  std::vector<McacheEntry> entries_;
};

void expect_same_entries(const std::vector<McacheEntry>& want,
                         const std::vector<McacheEntry>& got,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << where << " slot " << i;
    EXPECT_EQ(got[i].first_seen, want[i].first_seen) << where << " slot " << i;
    EXPECT_EQ(got[i].reachable, want[i].reachable) << where << " slot " << i;
  }
}

TEST(McacheTest, BlockMatchesTheVectorReference) {
  // Random op sequences over every capacity and both policies.  Ids come
  // from a range wider than the capacity, so refreshes, inserts, evictions
  // and misses all occur, and first_seen from a few values, so kPreferOld
  // meets ties for the youngest.
  sim::Rng script(20070613);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t capacity = 1 + script.below(kMcacheSize);
    const McachePolicy policy = script.below(2) == 0
                                    ? McachePolicy::kRandomReplace
                                    : McachePolicy::kPreferOld;
    const std::uint64_t seed = script.next_u64();
    sim::Rng rng(seed);
    sim::Rng ref_rng(seed);
    Mcache m(capacity, policy);
    ReferenceMcache ref(capacity, policy);
    const std::uint64_t id_range = capacity + 1 + script.below(capacity + 8);
    for (int op = 0; op < 120; ++op) {
      const std::string where = "trial " + std::to_string(trial) + " op " +
                                std::to_string(op);
      const auto id = static_cast<net::NodeId>(script.below(id_range));
      switch (script.below(10)) {
        case 0: case 1: case 2: case 3: case 4: {
          const McacheEntry e{Tick(static_cast<double>(script.below(6))), id,
                              script.below(2) == 0};
          m.upsert(e, rng);
          ref.upsert(e, ref_rng);
          break;
        }
        case 5: case 6:
          m.remove(id);
          ref.remove(id);
          break;
        case 7:
          EXPECT_EQ(m.contains(id), ref.contains(id)) << where;
          break;
        case 8: {
          const std::size_t k = script.below(6);
          const auto unreachable = [](const McacheEntry& e) {
            return !e.reachable;
          };
          expect_same_entries(ref.sample(k, ref_rng, unreachable),
                              m.sample(k, rng, unreachable), where);
          break;
        }
        default: {
          const std::size_t k = script.below(6);
          const auto excluded = [id](net::NodeId cand) { return cand == id; };
          expect_same_entries(ref.sample(k, ref_rng, excluded),
                              m.sample(k, rng, excluded), where);
          break;
        }
      }
      std::vector<McacheEntry> contents;
      for (std::size_t i = 0; i < m.size(); ++i) contents.push_back(m.entry(i));
      expect_same_entries(ref.entries(), contents, where);
      ASSERT_EQ(m.ids().size(), m.size()) << where;
      for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_EQ(m.ids()[i], contents[i].id) << where;
      }
      ASSERT_EQ(rng.next_u64(), ref_rng.next_u64()) << where;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace coolstream::core
