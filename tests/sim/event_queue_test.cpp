#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace coolstream::sim {
namespace {

/// Drains the queue, invoking every callback in order.
void drain(EventQueue& q) {
  while (q.run_next()) {
  }
}

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time(3.0), [&] { order.push_back(3); });
  q.schedule(Time(1.0), [&] { order.push_back(1); });
  q.schedule(Time(2.0), [&] { order.push_back(2); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    q.schedule(Time(1.0), [&order, i] { order.push_back(i); });
  }
  drain(q);
  for (int i = 0; i < 50; ++i) ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule(Time(5.0), [] {});
  q.schedule(Time(2.5), [] {});
  EXPECT_EQ(q.next_time(), Time(2.5));
}

TEST(EventQueueTest, RunNextReportsFireTime) {
  EventQueue q;
  q.schedule(Time(4.25), [] {});
  Time seen(-1.0);
  EXPECT_TRUE(q.run_next([&](Time t) { seen = t; }));
  EXPECT_EQ(seen, Time(4.25));
  EXPECT_FALSE(q.run_next());
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(Time(1.0), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelIsEager) {
  EventQueue q;
  std::array<EventHandle, 100> handles;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    handles[i] = q.schedule(Time(static_cast<double>(i)), [] {});
  }
  EXPECT_EQ(q.size(), handles.size());
  for (auto& h : handles) h.cancel();
  // Eager cancellation: nothing lingers waiting to be skimmed.
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelledEventSkippedAmongOthers) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time(1.0), [&] { order.push_back(1); });
  EventHandle h = q.schedule(Time(2.0), [&] { order.push_back(2); });
  q.schedule(Time(3.0), [&] { order.push_back(3); });
  h.cancel();
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelIsIdempotent) {
  EventQueue q;
  EventHandle h = q.schedule(Time(1.0), [] {});
  h.cancel();
  h.cancel();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueueTest, DefaultHandleInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(EventQueueTest, FiredEventNoLongerPending) {
  EventQueue q;
  EventHandle h = q.schedule(Time(1.0), [] {});
  EXPECT_TRUE(q.run_next());
  EXPECT_FALSE(h.pending());
}

TEST(EventQueueTest, HandleCopiesShareState) {
  EventQueue q;
  EventHandle a = q.schedule(Time(1.0), [] {});
  EventHandle b = a;
  b.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, StaleHandleAfterSlotReuseIsInert) {
  EventQueue q;
  bool second_ran = false;
  EventHandle first = q.schedule(Time(1.0), [] {});
  first.cancel();
  // The freed slot is recycled for the next event; the generation counter
  // makes the old handle inert rather than aliasing the new event.
  EventHandle second = q.schedule(Time(2.0), [&] { second_ran = true; });
  first.cancel();
  EXPECT_FALSE(first.pending());
  EXPECT_TRUE(second.pending());
  drain(q);
  EXPECT_TRUE(second_ran);
}

TEST(EventQueueTest, HandleOfFiredEventDoesNotCancelReusedSlot) {
  EventQueue q;
  EventHandle first = q.schedule(Time(1.0), [] {});
  EXPECT_TRUE(q.run_next());
  bool ran = false;
  EventHandle second = q.schedule(Time(2.0), [&] { ran = true; });
  first.cancel();  // stale: must not touch the recycled slot
  EXPECT_TRUE(second.pending());
  drain(q);
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, MoveOnlyCallback) {
  EventQueue q;
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  q.schedule(Time(1.0), [p = std::move(owned), &seen] { seen = *p; });
  drain(q);
  EXPECT_EQ(seen, 7);
}

TEST(EventQueueTest, ReentrantScheduleFromCallback) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time(1.0), [&] {
    order.push_back(1);
    q.schedule(Time(1.5), [&] { order.push_back(2); });
  });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, PeriodicFiresAtAbsoluteMultiples) {
  EventQueue q;
  std::vector<Time> times;
  EventHandle h = q.schedule_every(Time(1.0), Duration(0.5), [] {});
  for (int i = 0; i < 8; ++i) {
    q.run_next([&](Time t) { times.push_back(t); });
  }
  ASSERT_EQ(times.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(times[static_cast<std::size_t>(i)], Time(1.0 + 0.5 * i));
  }
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PeriodicCancelFromInsideCallbackStopsSeries) {
  EventQueue q;
  int count = 0;
  EventHandle h;
  h = q.schedule_every(Time(1.0), Duration(1.0), [&] {
    ++count;
    if (count == 3) h.cancel();
  });
  drain(q);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(h.pending());
}

TEST(EventQueueTest, FarFutureEventsInterleaveWithNearOnes) {
  EventQueue q;
  std::vector<int> order;
  // Session-length timers scheduled among sub-second deliveries, some of
  // them scheduled from inside a callback after the clock has moved.
  q.schedule(Time(100000.0), [&] { order.push_back(5); });
  q.schedule(Time(0.001), [&] {
    order.push_back(1);
    q.schedule(Time(50000.0), [&] { order.push_back(4); });
    q.schedule(Time(0.002), [&] { order.push_back(2); });
  });
  q.schedule(Time(0.5), [&] { order.push_back(3); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EventQueueTest, ManyEventsStressOrder) {
  EventQueue q;
  // Deterministic pseudo-random times.
  std::uint64_t state = 99;
  for (int i = 0; i < 5000; ++i) {
    const double t = static_cast<double>(splitmix64_next(state) % 10000u);
    q.schedule(Time(t), [] {});
  }
  Time prev(-1.0);
  while (!q.empty()) {
    q.run_next([&](Time t) {
      ASSERT_GE(t, prev);
      prev = t;
    });
  }
}

// ---------------------------------------------------------------------------
// Equivalence with the reference engine
// ---------------------------------------------------------------------------

/// The seed implementation's ordering semantics, reduced to its essentials:
/// a lazy binary heap keyed by (time, insertion sequence).  The slab
/// engine must execute the exact same (time, seq) sequence.
class ReferenceQueue {
 public:
  std::uint64_t schedule(Time at) {
    const std::uint64_t seq = next_seq_++;
    heap_.push_back(Entry{at, seq, true});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return seq;
  }

  void cancel(std::uint64_t seq) {
    for (auto& e : heap_) {
      if (e.seq == seq) e.alive = false;
    }
  }

  bool empty() {
    skim();
    return heap_.empty();
  }

  std::pair<Time, std::uint64_t> pop() {
    skim();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry e = heap_.back();
    heap_.pop_back();
    return {e.time, e.seq};
  }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    bool alive;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  void skim() {
    while (!heap_.empty() && !heap_.front().alive) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

TEST(EventQueueTest, MatchesReferenceEngineUnderRandomWorkload) {
  // Random mixed workload (schedule / cancel / fire) applied to both
  // engines; the executed (time, tag) sequences must match bit for bit.
  for (const std::uint64_t seed : {1ull, 42ull, 2006927ull}) {
    Rng rng(seed);
    EventQueue q;
    ReferenceQueue ref;
    Time now{};

    struct LivePair {
      EventHandle handle;
      std::uint64_t ref_seq;
    };
    std::vector<LivePair> live;
    std::vector<std::pair<Time, std::uint64_t>> fired_q;
    std::vector<std::pair<Time, std::uint64_t>> fired_ref;
    std::uint64_t tag = 0;

    const auto schedule = [&](Time at) {
      const std::uint64_t t = tag++;
      LivePair p;
      p.handle = q.schedule(at, [&fired_q, at, t] {
        fired_q.emplace_back(at, t);
      });
      p.ref_seq = ref.schedule(at);
      live.push_back(p);
    };
    const auto cancel_one = [&] {
      const std::size_t pick = rng.below(live.size());
      live[pick].handle.cancel();
      ref.cancel(live[pick].ref_seq);
      live[pick] = live.back();
      live.pop_back();
    };

    for (int op = 0; op < 20000; ++op) {
      if (op % 5000 == 2500) {
        // A tick's effect flush: thousands of deliveries inside one narrow
        // latency window, many at exactly the same instant, with cancels
        // interleaved.
        const Time base = now + Duration(rng.uniform(0.0, 0.1));
        for (int i = 0; i < 3000; ++i) {
          const Time at = rng.chance(0.3)
                              ? base + Duration(0.001 * static_cast<double>(
                                                            rng.below(4)))
                              : base + Duration(rng.uniform(0.0, 0.01));
          schedule(at);
          if (rng.chance(0.1)) cancel_one();
        }
        continue;
      }
      const double roll = rng.uniform();
      if (roll < 0.45 || live.empty()) {
        // Bimodal delays: mostly near-future (the protocol loops), some
        // far-future outliers (timeouts), some exact ties.
        double delay = rng.chance(0.1)  ? rng.uniform(0.0, 5000.0)
                       : rng.chance(0.2) ? 0.0
                                         : rng.uniform(0.0, 2.0);
        schedule(now + Duration(delay));
      } else if (roll < 0.70) {
        cancel_one();
      } else {
        if (!q.empty()) {
          ASSERT_FALSE(ref.empty());
          Time fired_at = now;
          ASSERT_TRUE(q.run_next([&](Time t) { fired_at = t; }));
          now = std::max(now, fired_at);
          const auto [rt, rseq] = ref.pop();
          fired_ref.emplace_back(rt, rseq);
          // Remove the fired event from the live set (it is spent).
          for (std::size_t i = 0; i < live.size(); ++i) {
            if (live[i].ref_seq == rseq) {
              live[i] = live.back();
              live.pop_back();
              break;
            }
          }
        }
      }
    }
    ASSERT_EQ(q.self_check(), "") << "seed " << seed;
    // Drain both completely.
    while (!q.empty()) {
      ASSERT_FALSE(ref.empty());
      q.run_next();
      const auto [rt, rseq] = ref.pop();
      fired_ref.emplace_back(rt, rseq);
    }
    EXPECT_TRUE(ref.empty());

    // Tags and reference sequence numbers are both assigned once per
    // schedule() in the same order, so they must agree pairwise: identical
    // (time, insertion-sequence) execution order, bit for bit.
    ASSERT_EQ(fired_q.size(), fired_ref.size()) << "seed " << seed;
    for (std::size_t i = 0; i < fired_q.size(); ++i) {
      ASSERT_EQ(fired_q[i].first, fired_ref[i].first)
          << "seed " << seed << " index " << i;
      ASSERT_EQ(fired_q[i].second, fired_ref[i].second)
          << "seed " << seed << " index " << i;
    }
  }
}

}  // namespace
}  // namespace coolstream::sim
