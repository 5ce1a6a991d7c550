#include "core/stream_types.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

namespace coolstream::core {
namespace {

TEST(OptionalTickTest, CostsOneTickAndStartsEmpty) {
  static_assert(sizeof(OptionalTick) == sizeof(Tick));
  static_assert(std::is_trivially_copyable_v<OptionalTick>);
  const OptionalTick none;
  EXPECT_FALSE(none.has_value());
  EXPECT_FALSE(static_cast<bool>(none));
}

TEST(OptionalTickTest, HoldsEveryFiniteTickAndInfinity) {
  // Time zero, negative "never yet" markers and Tick::max() are all
  // values; only the -infinity sentinel means empty.
  for (const Tick t : {Tick::zero(), Tick(0.125), Tick(-1.0e18),
                       Tick(1.0e9), Tick::max()}) {
    OptionalTick o;
    o = t;
    ASSERT_TRUE(o.has_value()) << t;
    EXPECT_TRUE(static_cast<bool>(o)) << t;
    EXPECT_EQ(*o, t);
    const OptionalTick copy = o;
    EXPECT_EQ(*copy, t);
  }
}

TEST(OptionalTickTest, ReassignmentReplacesTheValue) {
  OptionalTick o = Tick(3.0);
  o = Tick(4.5);
  EXPECT_EQ(*o, Tick(4.5));
  o = OptionalTick{};
  EXPECT_FALSE(o.has_value());
}

TEST(OptionalTickTest, AssigningTheSentinelIsRejected) {
  const Tick sentinel(-std::numeric_limits<double>::infinity());
  EXPECT_DEBUG_DEATH({ OptionalTick o = sentinel; (void)o; }, "finite");
}

TEST(StreamTypesTest, GlobalToSubstreamMapping) {
  // K = 4: global 0,1,2,3 -> substreams 0..3 seq 0; global 4 -> (0, 1)...
  EXPECT_EQ(substream_of(GlobalSeq(0), 4), SubstreamId(0));
  EXPECT_EQ(substream_of(GlobalSeq(3), 4), SubstreamId(3));
  EXPECT_EQ(substream_of(GlobalSeq(4), 4), SubstreamId(0));
  EXPECT_EQ(substream_seq_of(GlobalSeq(0), 4), SeqNum(0));
  EXPECT_EQ(substream_seq_of(GlobalSeq(3), 4), SeqNum(0));
  EXPECT_EQ(substream_seq_of(GlobalSeq(4), 4), SeqNum(1));
  EXPECT_EQ(substream_seq_of(GlobalSeq(11), 4), SeqNum(2));
}

TEST(StreamTypesTest, RoundTripMapping) {
  for (int k = 1; k <= 6; ++k) {
    for (int raw = 0; raw < 100; ++raw) {
      const GlobalSeq g(raw);
      const SubstreamId i = substream_of(g, k);
      const SeqNum n = substream_seq_of(g, k);
      ASSERT_EQ(global_of(i, n, k), g) << "k=" << k << " g=" << raw;
    }
  }
}

TEST(StreamTypesTest, CombinedPrefixAllEmpty) {
  const SeqNum heads[4] = {kNoSeq, kNoSeq, kNoSeq, kNoSeq};
  EXPECT_EQ(combined_prefix(heads, 4), kNoSeq);
}

TEST(StreamTypesTest, CombinedPrefixBalanced) {
  // Every sub-stream has blocks 0..2: global prefix is 0..11 complete.
  const SeqNum heads[4] = {SeqNum(2), SeqNum(2), SeqNum(2), SeqNum(2)};
  EXPECT_EQ(combined_prefix(heads, 4), GlobalSeq(11));
}

TEST(StreamTypesTest, CombinedPrefixFig2bExample) {
  // Fig. 2b: the combination stops awaiting the block of the 4th
  // sub-stream: with K=4, sub-streams 0..2 have sequence number 1 but
  // sub-stream 3 only 0, the global prefix ends at global block 6
  // (= sub-stream 2, seq 1); global 7 (sub-stream 3, seq 1) is missing.
  const SeqNum heads[4] = {SeqNum(1), SeqNum(1), SeqNum(1), SeqNum(0)};
  EXPECT_EQ(combined_prefix(heads, 4), GlobalSeq(6));
}

TEST(StreamTypesTest, CombinedPrefixFirstStreamMissing) {
  const SeqNum heads[4] = {kNoSeq, SeqNum(5), SeqNum(5), SeqNum(5)};
  EXPECT_EQ(combined_prefix(heads, 4), kNoSeq);
}

TEST(StreamTypesTest, CombinedPrefixHintResumes) {
  const SeqNum heads[2] = {SeqNum(10), SeqNum(9)};
  const GlobalSeq full = combined_prefix(heads, 2);
  EXPECT_EQ(full, GlobalSeq(20));  // stream 0 ahead: prefix ends on (0,10)
  EXPECT_EQ(combined_prefix(heads, 2, GlobalSeq(15)), full);
  EXPECT_EQ(combined_prefix(heads, 2, full), full);
}

TEST(StreamTypesTest, CombinedPrefixSingleSubstream) {
  const SeqNum heads[1] = {SeqNum(7)};
  EXPECT_EQ(combined_prefix(heads, 1), GlobalSeq(7));
}

TEST(StreamTypesTest, CacheWindowStartFollowsHead) {
  const BlockCount window(10);
  EXPECT_EQ(cache_window_start(SeqNum(5), window), SeqNum(0));  // not full
  EXPECT_EQ(cache_window_start(SeqNum(9), window), SeqNum(0));
  EXPECT_EQ(cache_window_start(SeqNum(10), window), SeqNum(1));
  EXPECT_EQ(cache_window_start(SeqNum(100), window), SeqNum(91));
}

TEST(StreamTypesTest, CacheWindowOfOneBlockHoldsOnlyTheHead) {
  EXPECT_EQ(cache_window_start(SeqNum(5), BlockCount(1)), SeqNum(5));
  EXPECT_EQ(cache_window_start(SeqNum(0), BlockCount(1)), SeqNum(0));
}

TEST(StreamTypesTest, CacheWindowSweep) {
  // The window [start, head] holds exactly min(window, head + 1) blocks
  // and never reaches below block 0 or above the head.
  for (std::int64_t window = 1; window <= 64; window *= 2) {
    for (std::int64_t head = 0; head < 200; head += 7) {
      const SeqNum h(head);
      const SeqNum start = cache_window_start(h, BlockCount(window));
      ASSERT_GE(start, SeqNum(0));
      ASSERT_LE(start, h);
      ASSERT_EQ(h - start + BlockCount(1),
                BlockCount(std::min(window, head + 1)));
    }
  }
}

}  // namespace
}  // namespace coolstream::core
