// Property-based equivalence: the word-packed BufferMap against a naive
// vector-backed reference model, across randomized op sequences.
//
// The packed representation (fixed-width lane array + subscription bit
// word + mask predicates) replaced a straightforward per-lane object; the
// golden traces pin its behaviour inside the protocol, and this suite pins
// the class itself: for any sequence of set_latest/set_subscribed ops, every
// observable (per-lane reads, max/min/spread, the Ineq. 1/2 mask
// predicates, the codec, the arithmetic wire_size) must agree with the
// obvious implementation.
#include "core/buffer_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.h"
#include "core/stream_types.h"
#include "sim/rng.h"

namespace coolstream::core {
namespace {

/// The naive model: one vector per tuple half, scalar loops everywhere.
struct RefBufferMap {
  explicit RefBufferMap(int k)
      : latest(static_cast<std::size_t>(k), kNoSeq),
        sub(static_cast<std::size_t>(k), false) {}

  std::vector<SeqNum> latest;
  std::vector<bool> sub;

  int k() const { return static_cast<int>(latest.size()); }

  SeqNum max_latest() const {
    SeqNum best = kNoSeq;
    for (const SeqNum s : latest) {
      if (s > best) best = s;
    }
    return best;
  }
  SeqNum min_latest() const {
    SeqNum worst = latest.front();
    for (const SeqNum s : latest) {
      if (s < worst) worst = s;
    }
    return worst;
  }
  BlockCount spread() const { return max_latest() - min_latest(); }

  std::uint32_t sub_bits() const {
    std::uint32_t m = 0;
    for (std::size_t i = 0; i < sub.size(); ++i) {
      if (sub[i]) m |= 1u << i;
    }
    return m;
  }
  std::uint32_t need_mask(const RefBufferMap& own) const {
    std::uint32_t m = 0;
    for (std::size_t i = 0; i < latest.size(); ++i) {
      if (latest[i] > own.latest[i]) m |= 1u << i;
    }
    return m;
  }
  std::uint32_t lag_mask(SeqNum ref, BlockCount threshold) const {
    std::uint32_t m = 0;
    for (std::size_t i = 0; i < latest.size(); ++i) {
      if (ref - latest[i] >= threshold) m |= 1u << i;
    }
    return m;
  }
  std::uint32_t gap_mask(const RefBufferMap& behind,
                         BlockCount threshold) const {
    std::uint32_t m = 0;
    for (std::size_t i = 0; i < latest.size(); ++i) {
      if (latest[i] - behind.latest[i] >= threshold) m |= 1u << i;
    }
    return m;
  }
  std::string encode() const {
    std::string out;
    for (std::size_t i = 0; i < latest.size(); ++i) {
      if (i != 0) out.push_back(',');
      out += std::to_string(
          latest[i].value());
    }
    out.push_back('|');
    for (const bool b : sub) out.push_back(b ? '1' : '0');
    return out;
  }
};

/// A latest-seq value covering the interesting ranges: the -1 sentinel,
/// small positives, values wide enough to change decimal_width, and
/// negatives beyond the sentinel (the codec must not care).
SeqNum random_seq(sim::Rng& rng) {
  switch (rng.below(5)) {
    case 0: return kNoSeq;
    case 1: return SeqNum(rng.uniform_int(0, 9));
    case 2: return SeqNum(rng.uniform_int(0, 99'999));
    case 3: return SeqNum(rng.uniform_int(-1'000, 9'000'000'000LL));
    default: return SeqNum(rng.uniform_int(-9'999, -2));
  }
}

void expect_equivalent(const BufferMap& bm, const RefBufferMap& ref,
                       const char* where) {
  ASSERT_EQ(bm.substream_count(), ref.k()) << where;
  for (const SubstreamId i : substreams(ref.k())) {
    EXPECT_EQ(bm.latest(i), ref.latest[i.index()]) << where;
    EXPECT_EQ(bm.subscribed(i), static_cast<bool>(ref.sub[i.index()]))
        << where;
  }
  EXPECT_EQ(bm.subscription_bits(), ref.sub_bits()) << where;
  EXPECT_EQ(bm.max_latest(), ref.max_latest()) << where;
  EXPECT_EQ(bm.min_latest(), ref.min_latest()) << where;
  EXPECT_EQ(bm.spread(), ref.spread()) << where;
  EXPECT_EQ(bm.encode(), ref.encode()) << where;
  EXPECT_EQ(bm.wire_size(), bm.encode().size()) << where;
}

TEST(BufferMapPropertyTest, RandomOpSequencesMatchReferenceModel) {
  sim::Rng rng(20070613);
  for (int trial = 0; trial < 200; ++trial) {
    const int k = static_cast<int>(
        rng.uniform_int(1, BufferMap::kMaxSubstreams));
    BufferMap bm(k);
    RefBufferMap ref(k);
    expect_equivalent(bm, ref, "fresh");
    const int ops = static_cast<int>(rng.uniform_int(1, 64));
    for (int op = 0; op < ops; ++op) {
      const SubstreamId lane(static_cast<int>(rng.below(
          static_cast<std::uint64_t>(k))));
      if (rng.below(4) != 0) {
        const SeqNum v = random_seq(rng);
        bm.set_latest(lane, v);
        ref.latest[lane.index()] = v;
      } else {
        const bool on = rng.below(2) != 0;
        bm.set_subscribed(lane, on);
        ref.sub[lane.index()] = on;
      }
    }
    expect_equivalent(bm, ref, "after ops");

    // Codec round trip preserves the whole 2K-tuple.
    const auto decoded = BufferMap::decode(bm.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, bm);
  }
}

TEST(BufferMapPropertyTest, MaskPredicatesMatchReferenceModel) {
  sim::Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const int k = static_cast<int>(
        rng.uniform_int(1, BufferMap::kMaxSubstreams));
    BufferMap own(k), partner(k);
    RefBufferMap ref_own(k), ref_partner(k);
    for (const SubstreamId i : substreams(k)) {
      const SeqNum a = random_seq(rng);
      const SeqNum b = random_seq(rng);
      own.set_latest(i, a);
      ref_own.latest[i.index()] = a;
      partner.set_latest(i, b);
      ref_partner.latest[i.index()] = b;
    }
    const BlockCount threshold(rng.uniform_int(0, 120));
    const SeqNum ref_pos = random_seq(rng);
    EXPECT_EQ(partner.need_mask(own), ref_partner.need_mask(ref_own));
    EXPECT_EQ(own.lag_mask(ref_pos, threshold),
              ref_own.lag_mask(ref_pos, threshold));
    EXPECT_EQ(partner.gap_mask(own, threshold),
              ref_partner.gap_mask(ref_own, threshold));
    // lane_mask covers exactly the k lanes the predicates may set.
    EXPECT_EQ(own.lane_mask(), (1u << k) - 1u);
    EXPECT_EQ(partner.need_mask(own) & ~own.lane_mask(), 0u);
  }
}

TEST(BufferMapPropertyTest, EmptyMapEdgeCases) {
  // All lanes at the -1 sentinel: max == min == kNoSeq, zero spread, and
  // the codec round-trips the sentinel text form.
  for (const int k : {1, 4, BufferMap::kMaxSubstreams}) {
    BufferMap bm(k);
    EXPECT_EQ(bm.max_latest(), kNoSeq) << "k=" << k;
    EXPECT_EQ(bm.min_latest(), kNoSeq) << "k=" << k;
    EXPECT_EQ(bm.spread(), BlockCount(0)) << "k=" << k;
    EXPECT_EQ(bm.wire_size(), bm.encode().size()) << "k=" << k;
    const auto decoded = BufferMap::decode(bm.encode());
    ASSERT_TRUE(decoded.has_value()) << "k=" << k;
    EXPECT_EQ(*decoded, bm) << "k=" << k;
  }
}

TEST(BufferMapPropertyTest, SubstreamCountCapacityEdges) {
  // k == kMaxSubstreams fills the packed word exactly.
  BufferMap bm(BufferMap::kMaxSubstreams);
  for (const SubstreamId i : substreams(BufferMap::kMaxSubstreams)) {
    bm.set_latest(i, SeqNum(i.value()));
    bm.set_subscribed(i, true);
  }
  const std::uint32_t full = (1u << BufferMap::kMaxSubstreams) - 1;
  EXPECT_EQ(bm.lane_mask(), full);
  EXPECT_EQ(bm.subscription_bits(), full);
  EXPECT_EQ(bm.max_latest(), SeqNum(BufferMap::kMaxSubstreams - 1));
  EXPECT_EQ(bm.min_latest(), SeqNum(0));

  // One lane past capacity must be rejected at both boundaries that take
  // untrusted counts: the codec and Params::validate().
  std::string text;
  for (int i = 0; i <= BufferMap::kMaxSubstreams; ++i) {
    if (i != 0) text.push_back(',');
    text.push_back('7');
  }
  text.push_back('|');
  text.append(static_cast<std::size_t>(BufferMap::kMaxSubstreams) + 1, '0');
  EXPECT_FALSE(BufferMap::decode(text).has_value());

  Params p;
  p.substream_count = BufferMap::kMaxSubstreams + 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(BufferMapPropertyTest, WireSizePinsEncodeLengthAcrossWidths) {
  // Width-sensitive values: sign flips, digit-count boundaries, and the
  // widest value the domain type can carry.
  const std::int64_t cases[] = {-1, 0, 1, 9, 10, 99, 100, 9'999, 10'000,
                                -2, -10, -99, -100, 123'456'789,
                                9'000'000'000'000LL, -9'000'000'000'000LL};
  for (const std::int64_t a : cases) {
    for (const std::int64_t b : cases) {
      BufferMap bm(2);
      bm.set_latest(SubstreamId(0), SeqNum(a));
      bm.set_latest(SubstreamId(1), SeqNum(b));
      bm.set_subscribed(SubstreamId(1), true);
      EXPECT_EQ(bm.wire_size(), bm.encode().size())
          << "a=" << a << " b=" << b;
    }
  }
}

}  // namespace
}  // namespace coolstream::core
