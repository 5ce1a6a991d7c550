// Property-based equivalence: the partner table against a naive reference
// list of records, across randomized add / erase / find sequences.  After
// every step each view must agree with the reference: id, direction and
// establishment time, and no map shows through a record that is not
// mutual.  A second case checks which advertisements a mutual record
// shows.
#include "core/partner_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/stream_types.h"
#include "sim/rng.h"

namespace coolstream::core {
namespace {

/// The obvious representation of one listed partner.
struct RefPartner {
  net::NodeId id = net::kInvalidNode;
  bool incoming = false;
  Tick established{};
};

void expect_same(const PartnerView& got, const RefPartner& want) {
  EXPECT_EQ(got.id(), want.id);
  EXPECT_EQ(got.incoming(), want.incoming);
  EXPECT_EQ(got.established(), want.established);
  EXPECT_FALSE(got.bm_time().has_value());
  EXPECT_EQ(got.max_latest(), kNoSeq);
}

void expect_same(const PartnerTable& table,
                 const std::vector<RefPartner>& ref) {
  ASSERT_EQ(table.size(), ref.size());
  EXPECT_EQ(table.empty(), ref.empty());
  std::size_t i = 0;
  for (const PartnerView view : table) {
    SCOPED_TRACE(::testing::Message() << "slot " << i);
    expect_same(view, ref[i]);
    const std::optional<PartnerView> found = table.find(ref[i].id);
    ASSERT_TRUE(found.has_value());
    expect_same(*found, ref[i]);
    EXPECT_TRUE(table.contains(ref[i].id));
    ++i;
  }
  EXPECT_EQ(i, ref.size());
  EXPECT_EQ(table.max_advertised(), kNoSeq);
}

TEST(PartnerTableProperty, MatchesAReferenceListOfRecords) {
  // Published maps that no record is stamped mutual for: none shows.
  std::vector<Advertisement> board(5000);
  for (std::size_t id = 0; id < board.size(); ++id) {
    board[id].time = Tick(1.0);
    board[id].stamp = 2;
  }
  sim::Rng rng(1001);
  PartnerTable table(board, 4);
  std::vector<RefPartner> ref;
  net::NodeId next_id = 1;
  double clock = 0.0;

  for (int step = 0; step < 4000; ++step) {
    clock += 0.25;
    // Real partner lists stay under ~20; capping the reference there
    // keeps the lists short and the erase paths busy.
    const std::uint64_t op = rng.below(6);
    const bool full = ref.size() >= 24;
    if (ref.empty() || (op < 3 && !full)) {
      // add (ids are never reused, as in the System)
      RefPartner r;
      r.id = next_id++;
      ASSERT_LT(r.id, board.size());
      r.incoming = rng.below(2) == 1;
      r.established = Tick(clock);
      table.add(r.id, r.incoming, r.established);
      ref.push_back(r);
    } else if (op < 5 || full) {
      // erase at the front, in the middle or at the end
      const std::uint64_t where = rng.below(3);
      const std::size_t i = where == 0   ? 0
                            : where == 1 ? ref.size() / 2
                                         : ref.size() - 1;
      table.erase(ref[i].id);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      // a departed or never-seen partner: nothing is found or erased
      const net::NodeId stranger = next_id + 1000;
      EXPECT_FALSE(table.find(stranger).has_value());
      EXPECT_FALSE(table.contains(stranger));
      table.erase(stranger);  // no-op
      table.mark_mutual(stranger, 7);  // no-op
    }
    expect_same(table, ref);
    if (::testing::Test::HasFailure()) return;
  }

  table.release();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.capacity(), 0u);
}

TEST(PartnerTable, MutualRecordShowsAdvertisementsPublishedAfterItsStamp) {
  constexpr int kLanes = 3;
  std::vector<Advertisement> board(3);
  PartnerTable table(board, kLanes);
  table.add(1, /*incoming=*/false, Tick(0.0));
  table.add(2, /*incoming=*/true, Tick(0.0));
  const auto publish = [&board](net::NodeId id, std::uint32_t stamp,
                                std::int64_t head) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      board[id].lanes[j] = SeqNum(head + static_cast<std::int64_t>(j));
    }
    board[id].time = Tick(0.5 * stamp);
    board[id].stamp = stamp;
  };
  publish(1, 4, 100);
  publish(2, 4, 200);

  // Stamped mutual in tick 4: tick 4's exchange predates it.
  table.mark_mutual(1, 4);
  EXPECT_FALSE(table.find(1)->bm_time().has_value());
  EXPECT_EQ(table.max_advertised(), kNoSeq);

  publish(1, 5, 110);
  ASSERT_TRUE(table.find(1)->bm_time().has_value());
  EXPECT_EQ(*table.find(1)->bm_time(), Tick(2.5));
  EXPECT_EQ(table.find(1)->latest(SubstreamId(1)), SeqNum(111));
  EXPECT_EQ(table.find(1)->max_latest(), SeqNum(112));
  // Partner 2 is not mutual: its fresher map stays hidden.
  publish(2, 5, 300);
  EXPECT_FALSE(table.find(2)->bm_time().has_value());
  EXPECT_EQ(table.max_advertised(), SeqNum(112));

  // A second stamp does not move the first.
  table.mark_mutual(1, 9);
  EXPECT_TRUE(table.find(1)->bm_time().has_value());
  table.mark_mutual(2, 5);
  EXPECT_FALSE(table.find(2)->bm_time().has_value());
  publish(2, 6, 300);
  EXPECT_EQ(table.max_advertised(), SeqNum(302));
}

}  // namespace
}  // namespace coolstream::core
