#include "sim/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace coolstream::sim {
namespace {

TEST(Splitmix64Test, KnownSequence) {
  // Reference values for seed 0 from the splitmix64 reference
  // implementation.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64_next(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64_next(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64_next(state), 0x06c45d188009454fULL);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(RngTest, UniformRange) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(RngTest, BelowIsUnbiasedAndInRange) {
  Rng rng(9);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 400);  // ~4 sigma
  }
}

TEST(RngTest, BelowOneAlwaysZero) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceEdgeCases) {
  Rng rng(12);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_FALSE(rng.chance(-1.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_TRUE(rng.chance(2.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 3000, 200);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.exponential(2.5);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 50000.0, 2.5, 0.05);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalShifted) {
  Rng rng(18);
  double sum = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, LognormalMedian) {
  Rng rng(19);
  std::vector<double> v;
  for (int i = 0; i < 30000; ++i) v.push_back(rng.lognormal(1.0, 0.5));
  std::nth_element(v.begin(), v.begin() + 15000, v.end());
  EXPECT_NEAR(v[15000], std::exp(1.0), 0.05);
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(21);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.weighted(w)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0], 10000, 400);
  EXPECT_NEAR(counts[2], 30000, 400);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(22);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleIndicesDistinctAndInRange) {
  Rng rng(23);
  std::vector<std::size_t> s;
  for (int trial = 0; trial < 200; ++trial) {
    rng.sample_indices_into(20, 7, s);
    ASSERT_EQ(s.size(), 7u);
    std::sort(s.begin(), s.end());
    ASSERT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
    ASSERT_LT(s.back(), 20u);
  }
}

TEST(RngTest, SampleIndicesFullSet) {
  Rng rng(24);
  std::vector<std::size_t> s;
  rng.sample_indices_into(5, 5, s);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(s, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, SampleIndicesUniform) {
  Rng rng(25);
  std::vector<int> counts(10, 0);
  std::vector<std::size_t> s;
  for (int i = 0; i < 20000; ++i) {
    rng.sample_indices_into(10, 3, s);
    for (auto idx : s) ++counts[idx];
  }
  for (int c : counts) EXPECT_NEAR(c, 6000, 350);
}

}  // namespace
}  // namespace coolstream::sim
