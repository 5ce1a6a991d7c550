#include "core/sync_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/stream_types.h"
#include "sim/rng.h"

namespace coolstream::core {
namespace {

constexpr SubstreamId j0{0};
constexpr SubstreamId j1{1};

TEST(SyncBufferTest, Fresh) {
  SyncBuffer sb(4);
  EXPECT_EQ(sb.substream_count(), 4);
  EXPECT_EQ(sb.head(j0), kNoSeq);
  EXPECT_EQ(sb.combined(), kNoSeq);
  EXPECT_EQ(sb.blocks_received(), 0u);
}

TEST(SyncBufferTest, AdvanceMovesHeadOneBlock) {
  SyncBuffer sb(2);
  sb.advance(j0);
  sb.advance(j0);
  EXPECT_EQ(sb.head(j0), SeqNum(1));
  EXPECT_EQ(sb.head(j1), kNoSeq);
  EXPECT_EQ(sb.blocks_received(), 2u);
}

TEST(SyncBufferTest, CombinedFollowsFig2bRule) {
  // K=4: block 0 of streams 0..3 -> combined global 3; then block 1 of
  // streams 0..2 only: combined stops at global 6 awaiting stream 3.
  SyncBuffer sb(4);
  for (const SubstreamId i : substreams(4)) sb.advance(i);
  EXPECT_EQ(sb.combined(), GlobalSeq(3));
  for (const SubstreamId i : substreams(3)) sb.advance(i);
  EXPECT_EQ(sb.combined(), GlobalSeq(6));
  sb.advance(SubstreamId(3));
  EXPECT_EQ(sb.combined(), GlobalSeq(7));
}

TEST(SyncBufferTest, StartAtSkipsHistory) {
  SyncBuffer sb(2);
  sb.start_at(j0, SeqNum(100));
  sb.start_at(j1, SeqNum(100));
  EXPECT_EQ(sb.head(j0), SeqNum(99));
  sb.set_combined_floor(global_of(j0, SeqNum(100), 2) - BlockCount(1));
  EXPECT_EQ(sb.combined(), GlobalSeq(199));
  sb.advance(j0);
  EXPECT_EQ(sb.head(j0), SeqNum(100));
  EXPECT_EQ(sb.combined(), GlobalSeq(200));
  EXPECT_EQ(sb.blocks_received(), 1u);  // jumped-over blocks do not count
}

TEST(SyncBufferTest, StartAtNeverMovesHeadBackwards) {
  SyncBuffer sb(1);
  for (int s = 0; s <= 10; ++s) sb.advance(j0);
  sb.start_at(j0, SeqNum(5));
  EXPECT_EQ(sb.head(j0), SeqNum(10));
}

TEST(SyncBufferTest, Spread) {
  SyncBuffer sb(3);
  sb.advance(j0);
  sb.advance(j0);
  sb.advance(j1);
  // heads: {1, 0, -1} -> spread 2.
  EXPECT_EQ(sb.spread(), BlockCount(2));
}

/// Reference model: the same head rules, with the combined prefix
/// rescanned from the floor on every recompute instead of resumed from the
/// last value.  Like SyncBuffer it recomputes on advance and on a new
/// floor, not on start_at.
class ReferenceSyncBuffer {
 public:
  explicit ReferenceSyncBuffer(int k)
      : heads_(static_cast<std::size_t>(k), kNoSeq) {}

  void advance(SubstreamId i) {
    ++heads_[i.index()];
    ++received_;
    recompute_combined();
  }

  void start_at(SubstreamId i, SeqNum seq) {
    SeqNum& head = heads_[i.index()];
    head = std::max(head, seq - BlockCount(1));
  }

  void set_combined_floor(GlobalSeq g) {
    floor_ = std::max(floor_, g);
    recompute_combined();
  }

  SeqNum head(SubstreamId i) const { return heads_[i.index()]; }
  GlobalSeq combined() const { return combined_; }
  std::uint64_t blocks_received() const { return received_; }

 private:
  void recompute_combined() {
    combined_ = combined_prefix(heads_.data(), static_cast<int>(heads_.size()),
                                floor_);
  }

  std::vector<SeqNum> heads_;
  GlobalSeq floor_ = kNoSeq;
  GlobalSeq combined_ = kNoSeq;
  std::uint64_t received_ = 0;
};

TEST(SyncBufferTest, MatchesFloorRescanReferenceUnderRandomTraffic) {
  // Every K a buffer map can carry; per step either the next block of a
  // random lane or a start_at jump (forwards, or backwards as a no-op).
  // After each step every observable must equal the reference's.
  sim::Rng rng(2007);
  for (int k = 1; k <= kMaxSubstreams; ++k) {
    for (int trial = 0; trial < 10; ++trial) {
      SyncBuffer sb(k);
      ReferenceSyncBuffer ref(k);
      if (trial % 2 == 1) {
        // A joining node: every lane jump-started, then the floor set.
        const SeqNum start(rng.uniform_int(0, 50));
        for (const SubstreamId i : substreams(k)) {
          sb.start_at(i, start);
          ref.start_at(i, start);
        }
        const GlobalSeq floor =
            global_of(SubstreamId(0), start, k) - BlockCount(1);
        sb.set_combined_floor(floor);
        ref.set_combined_floor(floor);
      }
      for (int step = 0; step < 400; ++step) {
        const SubstreamId i(static_cast<int>(
            rng.below(static_cast<std::uint64_t>(k))));
        if (rng.uniform() < 0.04) {
          const SeqNum to = ref.head(i) + BlockCount(rng.uniform_int(-3, 8));
          sb.start_at(i, to);
          ref.start_at(i, to);
        } else {
          sb.advance(i);
          ref.advance(i);
        }
        for (const SubstreamId j : substreams(k)) {
          ASSERT_EQ(sb.head(j), ref.head(j)) << "k=" << k << " step=" << step;
        }
        ASSERT_EQ(sb.combined(), ref.combined())
            << "k=" << k << " trial=" << trial << " step=" << step;
        ASSERT_EQ(sb.blocks_received(), ref.blocks_received());
      }
    }
  }
}

}  // namespace
}  // namespace coolstream::core
