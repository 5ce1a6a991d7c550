#include "net/latency.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace coolstream::net {
namespace {

TEST(LatencyTest, Symmetric) {
  LatencyModel m(42);
  for (NodeId a = 0; a < 50; ++a) {
    for (NodeId b = 0; b < 50; ++b) {
      ASSERT_EQ(m.delay(a, b), m.delay(b, a));
    }
  }
}

TEST(LatencyTest, DeterministicAcrossInstances) {
  LatencyModel m1(7);
  LatencyModel m2(7);
  for (NodeId a = 0; a < 20; ++a) {
    ASSERT_EQ(m1.delay(a, a + 1), m2.delay(a, a + 1));
  }
}

TEST(LatencyTest, DifferentSeedsDiffer) {
  LatencyModel m1(1);
  LatencyModel m2(2);
  int same = 0;
  for (NodeId a = 0; a < 100; ++a) {
    if (m1.delay(a, a + 1) == m2.delay(a, a + 1)) ++same;
  }
  EXPECT_LE(same, 2);
}

TEST(LatencyTest, WithinBounds) {
  LatencyModel m(3);
  for (NodeId a = 0; a < 500; ++a) {
    const double d = m.delay(a, a * 31 + 7).value();
    ASSERT_GE(d, kMinDelay);
    ASSERT_LE(d, kMaxDelay);
  }
}

TEST(LatencyTest, MedianRoughlyMatchesMu) {
  LatencyModel m(5);
  std::vector<double> delays;
  for (NodeId a = 0; a < 4000; ++a) delays.push_back(m.delay(a, 100000 + a).value());
  std::sort(delays.begin(), delays.end());
  // exp(mu) = exp(-2.6) ~ 74 ms.
  EXPECT_NEAR(delays[delays.size() / 2], std::exp(kLatencyMu), 0.01);
}

}  // namespace
}  // namespace coolstream::net
