// Property-based equivalence: the partner table (records + K flat lanes per
// partner) against a naive reference that keeps a plain lane vector per
// partner, across randomized add / erase / receive / find sequences for
// every lane count the protocol accepts.  After every step each view must
// agree with the reference: id, direction, establishment time, receive
// time, every lane and the lane maximum, and the table's maximum over the
// partners whose map has arrived.
#include "core/partner_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/stream_types.h"
#include "sim/rng.h"

namespace coolstream::core {
namespace {

/// The obvious representation: one whole partner copy per slot.
struct RefPartner {
  net::NodeId id = net::kInvalidNode;
  bool incoming = false;
  Tick established{};
  std::vector<SeqNum> lanes;
  std::optional<Tick> bm_time;
};

void expect_same(const PartnerView& got, const RefPartner& want, int k) {
  EXPECT_EQ(got.id(), want.id);
  EXPECT_EQ(got.incoming(), want.incoming);
  EXPECT_EQ(got.established(), want.established);
  ASSERT_EQ(got.bm_time().has_value(), want.bm_time.has_value());
  if (want.bm_time) {
    EXPECT_EQ(*got.bm_time(), *want.bm_time);
  }
  ASSERT_EQ(want.lanes.size(), static_cast<std::size_t>(k));
  EXPECT_EQ(got.max_latest(),
            *std::max_element(want.lanes.begin(), want.lanes.end()));
  for (const SubstreamId j : substreams(k)) {
    EXPECT_EQ(got.latest(j), want.lanes[j.index()]) << "lane " << j.index();
  }
}

void expect_same(const PartnerTable& table, const std::vector<RefPartner>& ref,
                 int k) {
  ASSERT_EQ(table.size(), ref.size());
  EXPECT_EQ(table.empty(), ref.empty());
  std::size_t i = 0;
  for (const PartnerView view : table) {
    SCOPED_TRACE(::testing::Message() << "slot " << i);
    expect_same(view, ref[i], k);
    const std::optional<PartnerView> found = table.find(ref[i].id);
    ASSERT_TRUE(found.has_value());
    expect_same(*found, ref[i], k);
    ++i;
  }
  EXPECT_EQ(i, ref.size());
  SeqNum advertised = kNoSeq;
  for (const RefPartner& r : ref) {
    if (!r.bm_time) continue;
    advertised = std::max(advertised,
                          *std::max_element(r.lanes.begin(), r.lanes.end()));
  }
  EXPECT_EQ(table.max_advertised(), advertised);
}

TEST(PartnerTableProperty, MatchesFullCopiesForEveryLaneCount) {
  for (int k = 1; k <= kMaxSubstreams; ++k) {
    SCOPED_TRACE(::testing::Message() << "K=" << k);
    sim::Rng rng(static_cast<std::uint64_t>(1000 + k));
    PartnerTable table(k);
    std::vector<RefPartner> ref;
    net::NodeId next_id = 1;
    double clock = 0.0;

    for (int step = 0; step < 2000; ++step) {
      clock += 0.25;
      // Real partner lists stay under ~20; capping the reference there
      // keeps the lists short and the erase paths busy.
      const std::uint64_t op = rng.below(8);
      const bool full = ref.size() >= 24;
      if (ref.empty() || (op < 3 && !full)) {
        // add (ids are never reused, as in the System)
        RefPartner r;
        r.id = next_id++;
        r.incoming = rng.below(2) == 1;
        r.established = Tick(clock);
        r.lanes.assign(static_cast<std::size_t>(k), kNoSeq);
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
      } else if (op < 7) {
        // receive a random map from a random partner
        RefPartner& r = ref[rng.below(ref.size())];
        std::vector<SeqNum> lanes;
        for (int j = 0; j < k; ++j) {
          lanes.push_back(SeqNum(rng.uniform_int(-1, 5000)));
        }
        EXPECT_TRUE(table.receive(r.id, lanes, Tick(clock)));
        r.lanes = lanes;
        r.bm_time = Tick(clock);
      } else {
        // a departed or never-seen sender: nothing is stored or found
        const net::NodeId stranger = next_id + 1000;
        const std::vector<SeqNum> none(static_cast<std::size_t>(k), kNoSeq);
        EXPECT_FALSE(table.receive(stranger, none, Tick(clock)));
        EXPECT_FALSE(table.find(stranger).has_value());
        EXPECT_FALSE(table.contains(stranger));
        table.erase(stranger);  // no-op
      }
      expect_same(table, ref, k);
      if (::testing::Test::HasFailure()) return;
    }

    table.release();
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.capacity(), 0u);
  }
}

}  // namespace
}  // namespace coolstream::core
