// MessageArena lease mechanics.
//
// The allocation-free claims live in hotpath_allocation_test.cpp (its own
// binary, counting operator new).  This suite pins the *lease semantics*
// the control plane leans on tick after tick: a dropped batch's chunk is
// recycled for the next tick's sends, copies extend a chunk's life without
// growing the pool, and the pool only grows while leases genuinely
// overlap.
#include <vector>

#include <gtest/gtest.h>

#include "core/arena.h"
#include "core/mcache.h"

namespace coolstream::core {
namespace {

McacheEntry entry(std::uint32_t id) {
  return McacheEntry{Tick(1.0), net::NodeId(id), true};
}

TEST(MessageArenaTest, DroppedBatchIsReusedNextTick) {
  MessageArena<McacheEntry> arena(8);
  // Tick 1: one gossip batch, filled and dropped.
  {
    auto batch = arena.make();
    for (std::uint32_t i = 0; i < 8; ++i) batch.push_back(entry(i));
    EXPECT_EQ(batch.size(), 8u);
  }
  ASSERT_EQ(arena.chunk_count(), 1u);
  EXPECT_EQ(arena.live_batches(), 0u);

  // Ticks 2..100: each tick's batch must recycle the same chunk, and the
  // recycled chunk must come back empty, not holding last tick's items.
  for (int tick = 2; tick <= 100; ++tick) {
    auto batch = arena.make();
    EXPECT_TRUE(batch.empty()) << "recycled chunk leaked items, tick " << tick;
    batch.push_back(entry(static_cast<std::uint32_t>(tick)));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch.items()[0].id, net::NodeId(static_cast<std::uint32_t>(tick)));
    EXPECT_EQ(arena.chunk_count(), 1u) << "pool grew on tick " << tick;
    EXPECT_EQ(arena.live_batches(), 1u);
  }
  EXPECT_EQ(arena.live_batches(), 0u);
}

TEST(MessageArenaTest, PoolGrowsOnlyWhileLeasesOverlap) {
  MessageArena<McacheEntry> arena(4);
  {
    std::vector<MessageArena<McacheEntry>::Batch> in_flight;
    for (std::uint32_t i = 0; i < 5; ++i) {
      auto b = arena.make();
      b.push_back(entry(i));
      in_flight.push_back(std::move(b));
    }
    EXPECT_EQ(arena.chunk_count(), 5u);
    EXPECT_EQ(arena.live_batches(), 5u);
  }
  // All leases dropped: the five chunks stay pooled and cover the next
  // five-deep burst without growth.
  EXPECT_EQ(arena.live_batches(), 0u);
  std::vector<MessageArena<McacheEntry>::Batch> next;
  for (std::uint32_t i = 0; i < 5; ++i) next.push_back(arena.make());
  EXPECT_EQ(arena.chunk_count(), 5u);
  EXPECT_EQ(arena.live_batches(), 5u);
}

TEST(MessageArenaTest, CopyExtendsChunkLifeAssignmentReleases) {
  MessageArena<McacheEntry> arena(4);
  auto outer = arena.make();
  {
    auto inner = arena.make();
    inner.push_back(entry(7));
    outer = inner;  // copy-assign: both lease the same chunk
    EXPECT_EQ(arena.live_batches(), 1u)
        << "copy-assign must release the old chunk and share the new one";
  }
  // `inner` is gone; `outer` still holds the chunk and its items.
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer.items()[0].id, net::NodeId(7));
  EXPECT_EQ(arena.live_batches(), 1u);
  outer.reset();
  EXPECT_EQ(arena.live_batches(), 0u);
  EXPECT_EQ(outer.size(), 0u);  // a reset lease reads as empty, not stale
}

TEST(MessageArenaTest, MoveTransfersLeaseWithoutRefcountChange) {
  MessageArena<McacheEntry> arena(4);
  auto a = arena.make();
  a.push_back(entry(3));
  auto b = std::move(a);
  EXPECT_EQ(arena.live_batches(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.items()[0].id, net::NodeId(3));
}

}  // namespace
}  // namespace coolstream::core
