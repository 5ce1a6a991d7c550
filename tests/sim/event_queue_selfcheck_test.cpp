// EventQueue::self_check(): clean queues in every configuration must pass,
// and seeded slab corruptions (the kind a stray write or a broken unlink
// would produce) must be reported.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.h"

namespace coolstream::sim {

// Friend of EventQueue (declared in event_queue.h): reaches into the slab
// to plant corruptions the public API can never produce.
struct EventQueueTestAccess {
  static void corrupt_where_free(EventQueue& q, std::uint32_t slot) {
    q.record(slot).where = EventQueue::Where::kFree;
  }
  static void corrupt_pos(EventQueue& q, std::uint32_t slot) {
    q.record(slot).pos += 1;
  }
  static void corrupt_seq(EventQueue& q, std::uint32_t slot) {
    q.heap_[q.record(slot).pos].seq = q.next_seq_ + 1000;
  }
  /// Makes the heap entry at `index` order before its parent.
  static void corrupt_heap_order(EventQueue& q, std::size_t index) {
    q.heap_[index].time = Time(-1.0);
  }
  /// Pushes a scheduled slot onto the free list as well.
  static void corrupt_free_list(EventQueue& q, std::uint32_t slot) {
    q.record(slot).next = q.free_head_;
    q.free_head_ = slot;
  }
};

namespace {

TEST(EventQueueSelfCheckTest, EmptyQueueIsConsistent) {
  EventQueue q;
  EXPECT_EQ(q.self_check(), "");
}

TEST(EventQueueSelfCheckTest, BusyQueueIsConsistent) {
  EventQueue q;
  // Near events, far events, periodic series, and cancellations — every
  // structural path.
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(q.schedule(Time(0.001 * i), [&fired] { ++fired; }));
  }
  for (int i = 0; i < 50; ++i) {
    handles.push_back(q.schedule(Time(1e6 + i), [&fired] { ++fired; }));
  }
  handles.push_back(
      q.schedule_every(Time(0.05), Duration(0.05), [&fired] { ++fired; }));
  EXPECT_EQ(q.self_check(), "");

  for (int i = 0; i < 100; i += 7) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(q.self_check(), "");

  for (int i = 0; i < 120; ++i) q.run_next();
  EXPECT_EQ(q.self_check(), "");
  EXPECT_GT(fired, 0);
}

TEST(EventQueueSelfCheckTest, DetectsWhereFlippedToFree) {
  EventQueue q;
  q.schedule(Time(1.0), [] {});  // first allocation -> slot 0
  ASSERT_EQ(q.self_check(), "");
  EventQueueTestAccess::corrupt_where_free(q, 0);
  EXPECT_NE(q.self_check(), "");
}

TEST(EventQueueSelfCheckTest, DetectsHeapPositionMismatch) {
  EventQueue q;
  q.schedule(Time(0.0001), [] {});
  q.schedule(Time(0.0002), [] {});
  ASSERT_EQ(q.self_check(), "");
  EventQueueTestAccess::corrupt_pos(q, 0);  // points at slot 1's entry
  EXPECT_NE(q.self_check(), "");
}

TEST(EventQueueSelfCheckTest, DetectsHeapOrderViolation) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.schedule(Time(1.0 + i), [] {});
  ASSERT_EQ(q.self_check(), "");
  EventQueueTestAccess::corrupt_heap_order(q, 7);
  EXPECT_NE(q.self_check(), "");
}

TEST(EventQueueSelfCheckTest, DetectsSequenceFromTheFuture) {
  EventQueue q;
  q.schedule(Time(0.0001), [] {});
  ASSERT_EQ(q.self_check(), "");
  EventQueueTestAccess::corrupt_seq(q, 0);
  EXPECT_NE(q.self_check(), "");
}

TEST(EventQueueSelfCheckTest, DetectsScheduledSlotOnFreeList) {
  EventQueue q;
  q.schedule(Time(1.0), [] {});
  ASSERT_EQ(q.self_check(), "");
  EventQueueTestAccess::corrupt_free_list(q, 0);
  EXPECT_NE(q.self_check(), "");
}

}  // namespace
}  // namespace coolstream::sim
