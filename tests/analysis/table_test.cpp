#include "analysis/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace coolstream::analysis {
namespace {

TEST(TableTest, AlignsColumns) {
  Table t({"name", "value"});
  t.row({"a", "1"});
  t.row({"long-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  // Every line has the same length (fixed-width columns).
  std::istringstream in(out);
  std::string line;
  std::size_t width = 0;
  while (std::getline(in, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << line;
  }
  EXPECT_NE(out.find("long-name"), std::string::npos);
}

TEST(TableTest, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.row({"1"});  // missing cells become empty
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(FormattersTest, FmtAndPct) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(pct(0.123456), "12.3%");
  EXPECT_EQ(pct(1.0, 0), "100%");
  EXPECT_EQ(pct(0.98765, 2), "98.77%");
}

TEST(BannerTest, WrapsTitle) {
  std::ostringstream os;
  banner(os, "Fig. 5a");
  EXPECT_EQ(os.str(), "\n== Fig. 5a ==\n");
}

}  // namespace
}  // namespace coolstream::analysis
