#include "analysis/stats.h"

#include <gtest/gtest.h>

namespace coolstream::analysis {
namespace {

TEST(SummaryTest, EmptyInput) {
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(SummaryTest, BasicStatistics) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
}

TEST(SummaryTest, SingleValue) {
  const std::vector<double> v = {7.0};
  const auto s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.p99, 7.0);
}

TEST(EcdfTest, Empty) {
  Ecdf e;
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.at(5.0), 0.0);
}

TEST(EcdfTest, StepFunction) {
  Ecdf e({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(e.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(e.at(99.0), 1.0);
}

TEST(EcdfTest, UnsortedInputIsSorted) {
  Ecdf e({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(e.sorted()[0], 1.0);
  EXPECT_DOUBLE_EQ(e.sorted()[2], 3.0);
}

TEST(EcdfTest, Quantiles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Ecdf e(std::move(v));
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.9), 90.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(e.quantile(1.0), 100.0);
}

}  // namespace
}  // namespace coolstream::analysis
