#include "core/params.h"

#include <gtest/gtest.h>

#include "core/stream_types.h"

namespace coolstream::core {
namespace {

TEST(ParamsTest, DefaultsValidate) {
  Params p;
  EXPECT_NO_THROW(p.validate());
}

TEST(ParamsTest, DerivedQuantities) {
  Params p;
  p.stream_rate_bps = 768'000.0;
  p.block_rate = 8.0;
  p.substream_count = 4;
  p.ts_seconds = 10.0;
  p.tp_seconds = 15.0;
  EXPECT_DOUBLE_EQ(p.block_size_bits(), 96'000.0);
  EXPECT_DOUBLE_EQ(p.substream_block_rate(), 2.0);
  EXPECT_DOUBLE_EQ(p.substream_rate_bps(), 192'000.0);
  EXPECT_DOUBLE_EQ(p.ts_blocks(), 20.0);
  EXPECT_DOUBLE_EQ(p.tp_blocks(), 30.0);
  EXPECT_DOUBLE_EQ(p.buffer_blocks(), 240.0);
  EXPECT_EQ(p.media_ready_block_count().value(), 80);
}

TEST(ParamsTest, DescribeMentionsTableI) {
  // Every bench prints this header: the defaults pin it byte for byte.
  EXPECT_EQ(Params{}.describe(),
            "Coolstreaming parameters (Table I)\n"
            "  R   stream rate            768 kbps\n"
            "  K   sub-streams            4\n"
            "  B   buffer length          120 s (240 blocks/sub-stream)\n"
            "  T_s out-of-sync threshold  10.0 s (20.0 blocks)\n"
            "  T_p partner-lag threshold  15.0 s (30.0 blocks)\n"
            "  T_a adaptation cool-down   10.0 s\n"
            "  M   max partners           16\n"
            "  block rate 8.0 blk/s, block size 12000 bytes, media-ready "
            "10.0 s\n");
}

// Property sweep: every individually broken field must be rejected.
struct BadParamCase {
  const char* name;
  void (*mutate)(Params&);
};

class ParamsValidateTest : public ::testing::TestWithParam<BadParamCase> {};

TEST_P(ParamsValidateTest, Rejected) {
  Params p;
  GetParam().mutate(p);
  EXPECT_THROW(p.validate(), std::invalid_argument) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    BadFields, ParamsValidateTest,
    ::testing::Values(
        BadParamCase{"rate", [](Params& p) { p.stream_rate_bps = 0.0; }},
        BadParamCase{"substreams", [](Params& p) { p.substream_count = 0; }},
        // One lane past capacity, with a block rate that is otherwise
        // valid for it, so only the lane-capacity check can reject it.
        BadParamCase{"substreams_gt_lanes",
                     [](Params& p) {
                       p.substream_count = kMaxSubstreams + 1;
                       p.block_rate = 2.0 * p.substream_count;
                     }},
        BadParamCase{"ts", [](Params& p) { p.ts_seconds = 0.0; }},
        BadParamCase{"tp_lt_ts", [](Params& p) { p.tp_seconds = p.ts_seconds / 2.0; }},
        BadParamCase{"ta", [](Params& p) { p.ta_seconds = 0.0; }},
        BadParamCase{"block_rate", [](Params& p) { p.block_rate = 0.0; }},
        BadParamCase{"block_rate_lt_k",
                     [](Params& p) { p.block_rate = p.substream_count / 2.0; }},
        BadParamCase{"tp_gt_buffer",
                     [](Params& p) { p.tp_seconds = p.buffer_seconds; }},
        BadParamCase{"catchup", [](Params& p) { p.max_catchup_factor = 0.5; }}));

}  // namespace
}  // namespace coolstream::core
