#include "net/bandwidth.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "sim/rng.h"

namespace coolstream::net {
namespace {

std::vector<BlockRate> rates_of(const std::vector<double>& v) {
  std::vector<BlockRate> out;
  out.reserve(v.size());
  for (double d : v) out.emplace_back(d);
  return out;
}

double total(const std::vector<BlockRate>& v) {
  double sum = 0.0;
  for (BlockRate r : v) sum += r.value();
  return sum;
}

TEST(MaxMinFairTest, EmptyDemands) {
  EXPECT_TRUE(max_min_fair(BlockRate(10.0), {}).empty());
}

TEST(MaxMinFairTest, AmpleCapacityMeetsAllDemands) {
  const auto d = rates_of({1.0, 2.0, 3.0});
  const auto r = max_min_fair(BlockRate(100.0), d);
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(r[i], d[i]);
}

TEST(MaxMinFairTest, EqualSplitWhenDemandsExceed) {
  const auto d = rates_of({10.0, 10.0, 10.0});
  const auto r = max_min_fair(BlockRate(9.0), d);
  for (BlockRate v : r) EXPECT_EQ(v, BlockRate(3.0));
}

TEST(MaxMinFairTest, SmallDemandSatisfiedSurplusRedistributed) {
  // Classic max-min example: capacity 10, demands {2, 8, 8}.
  // Round 1: share 3.33 -> first capped at 2; remaining 8 split -> 4 each.
  const auto d = rates_of({2.0, 8.0, 8.0});
  const auto r = max_min_fair(BlockRate(10.0), d);
  EXPECT_EQ(r[0], BlockRate(2.0));
  EXPECT_EQ(r[1], BlockRate(4.0));
  EXPECT_EQ(r[2], BlockRate(4.0));
}

TEST(MaxMinFairTest, ZeroDemandGetsZero) {
  const auto d = rates_of({0.0, 5.0});
  const auto r = max_min_fair(BlockRate(3.0), d);
  EXPECT_EQ(r[0], BlockRate::zero());
  EXPECT_EQ(r[1], BlockRate(3.0));
}

TEST(MaxMinFairTest, ZeroCapacity) {
  const auto d = rates_of({1.0, 2.0});
  const auto r = max_min_fair(BlockRate::zero(), d);
  EXPECT_DOUBLE_EQ(total(r), 0.0);
}

TEST(MaxMinFairTest, Eq5CompetitionRate) {
  // Paper Eq. (5): a parent whose capacity exactly covers D connections at
  // rate R/K accepts a (D+1)-th; every connection now gets D/(D+1) * R/K.
  constexpr double kSubRate = 2.0;  // blocks/s
  for (int d_p = 1; d_p <= 8; ++d_p) {
    const BlockRate capacity(d_p * kSubRate);
    const std::vector<BlockRate> demands(static_cast<std::size_t>(d_p) + 1,
                                         BlockRate(kSubRate));
    const auto r = max_min_fair(capacity, demands);
    for (BlockRate v : r) {
      EXPECT_NEAR(v.value(), d_p / (d_p + 1.0) * kSubRate, 1e-12)
          << "D_p=" << d_p;
    }
  }
}

// Property sweep: conservation, demand caps, fairness.
class MaxMinPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinPropertyTest, Invariants) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<BlockRate> demands(n);
    for (auto& d : demands) {
      d = rng.chance(0.2) ? BlockRate::zero()
                          : BlockRate(rng.uniform(0.0, 10.0));
    }
    const BlockRate capacity(rng.uniform(0.0, 30.0));
    const auto rates = max_min_fair(capacity, demands);
    ASSERT_EQ(rates.size(), n);

    double sum = 0.0;
    double demand_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_GE(rates[i].value(), -1e-12);
      // Never exceed demand.
      ASSERT_LE(rates[i].value(), demands[i].value() + 1e-9);
      sum += rates[i].value();
      demand_sum += demands[i].value();
    }
    // Conservation: everything allocatable is allocated.
    ASSERT_NEAR(sum, std::min(capacity.value(), demand_sum), 1e-6);

    // Fairness: an unsatisfied connection's rate must be >= any other
    // connection's rate (no one gets more while someone starves).
    for (std::size_t i = 0; i < n; ++i) {
      if (rates[i].value() < demands[i].value() - 1e-9) {
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_LE(rates[j].value(), rates[i].value() + 1e-6)
              << "connection " << j << " got more than unsatisfied " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// Progressive filling as first written: fresh vectors for the active set
// on every pass.  The span form must reproduce it bit for bit.
std::vector<BlockRate> reference_max_min_fair(BlockRate capacity,
                                              const std::vector<BlockRate>& demands) {
  std::vector<BlockRate> rates(demands.size(), BlockRate::zero());
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i] > BlockRate::zero()) active.push_back(i);
  }
  BlockRate remaining = capacity;
  while (!active.empty() && remaining > BlockRate::zero()) {
    const BlockRate share = remaining / static_cast<double>(active.size());
    bool any_capped = false;
    std::vector<std::size_t> still_active;
    for (std::size_t i : active) {
      const BlockRate want = demands[i] - rates[i];
      if (want <= share) {
        rates[i] = demands[i];
        remaining = remaining - want;
        any_capped = true;
      } else {
        still_active.push_back(i);
      }
    }
    if (!any_capped) {
      for (std::size_t i : still_active) rates[i] = rates[i] + share;
      break;
    }
    active = std::move(still_active);
  }
  return rates;
}

TEST(MaxMinFairTest, SpanFormMatchesReferenceBitForBit) {
  sim::Rng rng(2024);
  // One scratch for every call: sizes grow and shrink across trials, and
  // stale contents from a larger earlier call must not leak through.
  constexpr std::size_t kMaxLinks = 40;
  std::vector<BlockRate> rates_buf(kMaxLinks);
  std::vector<std::size_t> active(kMaxLinks);
  std::vector<BlockRate> equal_buf(kMaxLinks);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<std::size_t>(
        trial % 7 == 0 ? rng.uniform_int(20, 40) : rng.uniform_int(0, 12));
    std::vector<BlockRate> demands(n);
    for (auto& d : demands) {
      // Repeated values make exact ties between want and share likely.
      d = rng.chance(0.2)   ? BlockRate::zero()
          : rng.chance(0.3) ? BlockRate(2.0)
                            : BlockRate(rng.uniform(0.0, 10.0));
    }
    const BlockRate capacity(rng.chance(0.1) ? 0.0 : rng.uniform(0.0, 40.0));
    std::fill(rates_buf.begin(), rates_buf.end(), BlockRate(-1.0));
    std::fill(equal_buf.begin(), equal_buf.end(), BlockRate(-1.0));
    const std::span<BlockRate> rates(rates_buf.data(), n);
    max_min_fair(capacity, demands, rates, active);

    const auto expected = reference_max_min_fair(capacity, demands);
    const auto wrapped = max_min_fair(capacity, demands);
    const auto equal_wrapped = equal_share(capacity, demands);
    equal_share(capacity, demands, std::span<BlockRate>(equal_buf.data(), n));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(rates[i].value(), expected[i].value())
          << "trial " << trial << " link " << i;
      ASSERT_EQ(wrapped[i].value(), expected[i].value());
      ASSERT_EQ(equal_buf[i].value(), equal_wrapped[i].value());
    }
  }
}

TEST(EqualShareTest, CapsAtDemand) {
  const auto d = rates_of({1.0, 10.0});
  const auto r = equal_share(BlockRate(10.0), d);
  EXPECT_EQ(r[0], BlockRate(1.0));
  EXPECT_EQ(r[1], BlockRate(5.0));  // surplus NOT redistributed
}

TEST(EqualShareTest, ZeroDemandExcludedFromSplit) {
  const auto d = rates_of({0.0, 10.0, 10.0});
  const auto r = equal_share(BlockRate(8.0), d);
  EXPECT_EQ(r[0], BlockRate::zero());
  EXPECT_EQ(r[1], BlockRate(4.0));
  EXPECT_EQ(r[2], BlockRate(4.0));
}

TEST(EqualShareTest, NeverExceedsMaxMinTotal) {
  sim::Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 8));
    std::vector<BlockRate> demands(n);
    for (auto& d : demands) d = BlockRate(rng.uniform(0.0, 5.0));
    const BlockRate capacity(rng.uniform(0.0, 12.0));
    const double eq = total(equal_share(capacity, demands));
    const double mm = total(max_min_fair(capacity, demands));
    ASSERT_LE(eq, mm + 1e-9);  // max-min wastes nothing; equal share may
  }
}

}  // namespace
}  // namespace coolstream::net
