#include "core/sync_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
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

TEST(SyncBufferTest, InOrderInsertAdvancesHead) {
  SyncBuffer sb(2);
  EXPECT_TRUE(sb.insert(j0, SeqNum(0)));
  EXPECT_TRUE(sb.insert(j0, SeqNum(1)));
  EXPECT_EQ(sb.head(j0), SeqNum(1));
  EXPECT_EQ(sb.head(j1), kNoSeq);
  EXPECT_EQ(sb.blocks_received(), 2u);
}

TEST(SyncBufferTest, OutOfOrderQueuedThenAbsorbed) {
  SyncBuffer sb(1);
  EXPECT_TRUE(sb.insert(j0, SeqNum(2)));
  EXPECT_EQ(sb.head(j0), kNoSeq);
  EXPECT_EQ(sb.pending(j0), 1u);
  EXPECT_TRUE(sb.insert(j0, SeqNum(0)));
  EXPECT_EQ(sb.head(j0), SeqNum(0));
  EXPECT_TRUE(sb.insert(j0, SeqNum(1)));  // bridges the gap; 2 is absorbed
  EXPECT_EQ(sb.head(j0), SeqNum(2));
  EXPECT_EQ(sb.pending(j0), 0u);
}

TEST(SyncBufferTest, DuplicatesRejected) {
  SyncBuffer sb(1);
  EXPECT_TRUE(sb.insert(j0, SeqNum(0)));
  EXPECT_FALSE(sb.insert(j0, SeqNum(0)));  // below head
  EXPECT_TRUE(sb.insert(j0, SeqNum(5)));
  EXPECT_FALSE(sb.insert(j0, SeqNum(5)));  // duplicate ahead block
  EXPECT_EQ(sb.blocks_received(), 2u);
}

TEST(SyncBufferTest, CombinedFollowsFig2bRule) {
  // K=4: insert seq 0 for streams 0..3 -> combined global 3; then seq 1
  // for streams 0..2 only: combined stops at global 6 awaiting stream 3.
  SyncBuffer sb(4);
  for (const SubstreamId i : substreams(4)) sb.insert(i, SeqNum(0));
  EXPECT_EQ(sb.combined(), GlobalSeq(3));
  for (const SubstreamId i : substreams(3)) sb.insert(i, SeqNum(1));
  EXPECT_EQ(sb.combined(), GlobalSeq(6));
  sb.insert(SubstreamId(3), SeqNum(1));
  EXPECT_EQ(sb.combined(), GlobalSeq(7));
}

TEST(SyncBufferTest, StartAtSkipsHistory) {
  SyncBuffer sb(2);
  sb.start_at(j0, SeqNum(100));
  sb.start_at(j1, SeqNum(100));
  EXPECT_EQ(sb.head(j0), SeqNum(99));
  sb.set_combined_floor(global_of(j0, SeqNum(100), 2) - BlockCount(1));
  EXPECT_EQ(sb.combined(), GlobalSeq(199));
  EXPECT_TRUE(sb.insert(j0, SeqNum(100)));
  EXPECT_EQ(sb.combined(), GlobalSeq(200));
}

TEST(SyncBufferTest, StartAtNeverMovesHeadBackwards) {
  SyncBuffer sb(1);
  for (int s = 0; s <= 10; ++s) sb.insert(j0, SeqNum(s));
  sb.start_at(j0, SeqNum(5));
  EXPECT_EQ(sb.head(j0), SeqNum(10));
}

TEST(SyncBufferTest, StartAtDropsStaleAheadBlocks) {
  SyncBuffer sb(1);
  sb.insert(j0, SeqNum(3));
  sb.insert(j0, SeqNum(7));
  EXPECT_EQ(sb.pending(j0), 2u);
  sb.start_at(j0, SeqNum(5));
  EXPECT_EQ(sb.head(j0), SeqNum(4));
  EXPECT_EQ(sb.pending(j0), 1u);  // only 7 remains
  sb.insert(j0, SeqNum(5));
  sb.insert(j0, SeqNum(6));
  EXPECT_EQ(sb.head(j0), SeqNum(7));
}

TEST(SyncBufferTest, Spread) {
  SyncBuffer sb(3);
  sb.insert(j0, SeqNum(0));
  sb.insert(j0, SeqNum(1));
  sb.insert(j1, SeqNum(0));
  // heads: {1, 0, -1} -> spread 2.
  EXPECT_EQ(sb.spread(), BlockCount(2));
}

TEST(SyncBufferTest, RandomizedDeliveryConvergesToCompletePrefix) {
  // Property: delivering a random permutation of blocks 0..N-1 per
  // sub-stream always yields heads N-1 and the full combined prefix.
  sim::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const int k = 1 + static_cast<int>(rng.below(4));
    const int n = 30;
    SyncBuffer sb(k);
    std::vector<std::pair<int, int>> blocks;
    for (int i = 0; i < k; ++i) {
      for (int s = 0; s < n; ++s) blocks.emplace_back(i, s);
    }
    rng.shuffle(blocks);
    for (auto [i, s] : blocks) {
      ASSERT_TRUE(sb.insert(SubstreamId(i), SeqNum(s)));
    }
    for (const SubstreamId i : substreams(k)) {
      ASSERT_EQ(sb.head(i), SeqNum(n - 1));
      ASSERT_EQ(sb.pending(i), 0u);
    }
    ASSERT_EQ(sb.combined(), GlobalSeq(n * k - 1));
    ASSERT_EQ(sb.blocks_received(),
              static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k));
  }
}

/// Reference model: the per-sub-stream std::set layout the flat ahead
/// vector replaced, with the same head and combined rules.
class ReferenceSyncBuffer {
 public:
  explicit ReferenceSyncBuffer(int k)
      : heads_(static_cast<std::size_t>(k), kNoSeq),
        ahead_(static_cast<std::size_t>(k)) {}

  bool insert(SubstreamId i, SeqNum seq) {
    SeqNum& head = heads_[i.index()];
    if (seq <= head) return false;
    std::set<SeqNum>& ahead = ahead_[i.index()];
    if (seq == head + BlockCount(1)) {
      ++head;
      auto it = ahead.begin();
      while (it != ahead.end() && *it == head + BlockCount(1)) {
        ++head;
        it = ahead.erase(it);
      }
    } else if (!ahead.insert(seq).second) {
      return false;
    }
    ++received_;
    recompute_combined();
    return true;
  }

  void start_at(SubstreamId i, SeqNum seq) {
    SeqNum& head = heads_[i.index()];
    head = std::max(head, seq - BlockCount(1));
    std::set<SeqNum>& ahead = ahead_[i.index()];
    ahead.erase(ahead.begin(), ahead.lower_bound(head + BlockCount(1)));
  }

  void set_combined_floor(GlobalSeq g) {
    combined_ = std::max(combined_, g);
    recompute_combined();
  }

  SeqNum head(SubstreamId i) const { return heads_[i.index()]; }
  std::size_t pending(SubstreamId i) const { return ahead_[i.index()].size(); }
  GlobalSeq combined() const { return combined_; }
  std::uint64_t blocks_received() const { return received_; }

 private:
  void recompute_combined() {
    combined_ = combined_prefix(heads_.data(), static_cast<int>(heads_.size()),
                                combined_);
  }

  std::vector<SeqNum> heads_;
  std::vector<std::set<SeqNum>> ahead_;
  GlobalSeq combined_ = kNoSeq;
  std::uint64_t received_ = 0;
};

TEST(SyncBufferTest, MatchesPerLaneSetReferenceUnderRandomTraffic) {
  // Every K a buffer map can carry; per step one operation drawn
  // from: the next block, a block ahead of the head (out of order), a
  // duplicate of a queued or already-absorbed block, or a start_at jump
  // (forwards, backwards or onto queued blocks).  After each step every
  // observable must equal the reference's.
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
        const SeqNum head = ref.head(i);
        const double op = rng.uniform();
        if (op < 0.04) {
          const SeqNum to = head + BlockCount(rng.uniform_int(-3, 8));
          sb.start_at(i, to);
          ref.start_at(i, to);
        } else {
          SeqNum seq = head + BlockCount(1);                     // in order
          if (op < 0.45) {
            seq = head + BlockCount(rng.uniform_int(2, 12));     // ahead
          } else if (op < 0.55) {
            seq = head - BlockCount(rng.uniform_int(0, 3));      // stale
          }
          ASSERT_EQ(sb.insert(i, seq), ref.insert(i, seq))
              << "k=" << k << " trial=" << trial << " step=" << step
              << " lane=" << i << " seq=" << seq;
        }
        for (const SubstreamId j : substreams(k)) {
          ASSERT_EQ(sb.head(j), ref.head(j)) << "k=" << k << " step=" << step;
          ASSERT_EQ(sb.pending(j), ref.pending(j))
              << "k=" << k << " step=" << step << " lane=" << j;
        }
        ASSERT_EQ(sb.combined(), ref.combined()) << "k=" << k;
        ASSERT_EQ(sb.blocks_received(), ref.blocks_received());
      }
    }
  }
}

}  // namespace
}  // namespace coolstream::core
