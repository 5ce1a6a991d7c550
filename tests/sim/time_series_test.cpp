#include "sim/time_series.h"

#include <gtest/gtest.h>

namespace coolstream::sim {
namespace {

TEST(StepCounterTest, TracksValue) {
  StepCounter c;
  EXPECT_EQ(c.value(), 0);
  c.add(Time(1.0), +1);
  c.add(Time(2.0), +1);
  c.add(Time(3.0), -1);
  EXPECT_EQ(c.value(), 1);
}

TEST(StepCounterTest, SampleGrid) {
  StepCounter c;
  c.add(Time(1.0), +2);
  c.add(Time(3.0), -1);
  const auto grid = c.sample_grid(Time(0.0), Time(4.0), Duration(1.0));
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid[0].value, 0.0);
  EXPECT_DOUBLE_EQ(grid[1].value, 2.0);
  EXPECT_DOUBLE_EQ(grid[2].value, 2.0);
  EXPECT_DOUBLE_EQ(grid[3].value, 1.0);
  EXPECT_DOUBLE_EQ(grid[4].value, 1.0);
}

TEST(StepCounterTest, Peak) {
  StepCounter c;
  c.add(Time(1.0), +5);
  c.add(Time(2.0), -3);
  c.add(Time(3.0), +1);
  EXPECT_EQ(c.peak(), 5);
  EXPECT_EQ(c.peak(Time(0.5)), 0);
  EXPECT_EQ(c.peak(Time(2.5)), 5);
}

}  // namespace
}  // namespace coolstream::sim
