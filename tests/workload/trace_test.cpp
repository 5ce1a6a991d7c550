#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/continuity.h"
#include "logging/sessions.h"

namespace coolstream::workload {
namespace {

Scenario small_scenario() {
  Scenario s = Scenario::steady(60, units::Duration(600.0));
  s.system.server_count = 2;
  return s;
}

TEST(TraceTest, GenerateIsDeterministic) {
  const Scenario s = small_scenario();
  const auto a = generate_trace(s, 42);
  const auto b = generate_trace(s, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].join_time, b[i].join_time);
    EXPECT_EQ(a[i].user_id, b[i].user_id);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_DOUBLE_EQ(a[i].upload_bps, b[i].upload_bps);
  }
  const auto c = generate_trace(s, 43);
  EXPECT_NE(a.size() == c.size() && a[0].join_time == c[0].join_time, true);
}

TEST(TraceTest, RowsOrderedAndWithinHorizon) {
  const auto rows = generate_trace(small_scenario(), 7);
  ASSERT_GT(rows.size(), 10u);
  double prev = 0.0;
  for (const auto& r : rows) {
    EXPECT_GE(r.join_time, prev);
    EXPECT_LE(r.join_time, 600.0);
    EXPECT_GT(r.patience_s, 0.0);
    EXPECT_GT(r.duration_s, 0.0);
    EXPECT_EQ(r.address.is_private(), net::uses_private_address(r.type));
    prev = r.join_time;
  }
}

TEST(TraceTest, SaveLoadRoundTrip) {
  const auto rows = generate_trace(small_scenario(), 9);
  const std::string path = ::testing::TempDir() + "/coolstream_trace.csv";
  ASSERT_TRUE(save_trace(path, rows));
  const auto loaded = load_trace(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_NEAR((*loaded)[i].join_time, rows[i].join_time, 1e-6);
    EXPECT_EQ((*loaded)[i].user_id, rows[i].user_id);
    EXPECT_EQ((*loaded)[i].type, rows[i].type);
    EXPECT_EQ((*loaded)[i].address, rows[i].address);
    EXPECT_NEAR((*loaded)[i].upload_bps, rows[i].upload_bps, 1e-3);
    if (std::isinf(rows[i].duration_s)) {
      EXPECT_TRUE(std::isinf((*loaded)[i].duration_s));
    } else {
      EXPECT_NEAR((*loaded)[i].duration_s, rows[i].duration_s, 1e-6);
    }
  }
}

/// Writes a header plus `row` to a temporary trace file and loads it.
std::optional<std::vector<TraceRow>> load_one_row(const std::string& row) {
  const std::string path = ::testing::TempDir() + "/coolstream_row.csv";
  {
    std::ofstream out(path);
    out << "join_time,user_id,type,address,upload_bps,duration_s,patience_s\n";
    out << row << "\n";
  }
  return load_trace(path);
}

TEST(TraceTest, LoadRejectsMalformed) {
  // Control: a well-formed row, with an infinite duration (the viewer
  // stays to program end), loads.
  const auto good = load_one_row("1.0,2,nat,10.0.0.1,500000,inf,20.0");
  ASSERT_TRUE(good.has_value());
  ASSERT_EQ(good->size(), 1u);
  EXPECT_TRUE(std::isinf(good->front().duration_s));

  for (const char* bad : {
           "1.0,2,nat,10.0.0.1,500000",              // missing fields
           "nan,2,nat,10.0.0.1,500000,60.0,20.0",    // join_time
           "-1.0,2,nat,10.0.0.1,500000,60.0,20.0",   // join_time
           "1.0,2,nat,10.0.0.1,nan,60.0,20.0",       // upload_bps
           "1.0,2,nat,10.0.0.1,-500000,60.0,20.0",   // upload_bps
           "1.0,2,nat,10.0.0.1,500000,nan,20.0",     // duration_s
           "1.0,2,nat,10.0.0.1,500000,-60.0,20.0",   // duration_s
           "1.0,2,nat,10.0.0.1,500000,60.0,nan",     // patience_s
           "1.0,2,nat,10.0.0.1,500000,60.0,-20.0",   // patience_s
       }) {
    EXPECT_FALSE(load_one_row(bad).has_value()) << bad;
  }
  EXPECT_FALSE(load_trace("/nonexistent/trace.csv").has_value());
}

TEST(TraceTest, RunnerValidatesScenario) {
  Scenario s = small_scenario();
  s.program_end = -10.0;
  sim::Simulation simulation(3);
  EXPECT_THROW(TraceRunner(simulation, s, {}, nullptr),
               std::invalid_argument);
}

TEST(TraceTest, ReplayProducesSessions) {
  const Scenario s = small_scenario();
  const auto rows = generate_trace(s, 11);
  sim::Simulation simulation(11);
  logging::LogServer log;
  TraceRunner runner(simulation, s, rows, &log);
  runner.run();
  EXPECT_EQ(runner.rows_replayed(), rows.size());
  const auto sessions = logging::reconstruct_sessions(log.parse_all());
  EXPECT_GE(sessions.users.size(), rows.size() * 8 / 10);
  EXPECT_GT(analysis::average_continuity(sessions), 0.9);
}

TEST(TraceTest, ReplayIsDeterministic) {
  const Scenario s = small_scenario();
  const auto rows = generate_trace(s, 13);
  auto run = [&](std::uint64_t seed) {
    sim::Simulation simulation(seed);
    logging::LogServer log;
    TraceRunner runner(simulation, s, rows, &log);
    runner.run();
    return log.lines();
  };
  EXPECT_EQ(run(5), run(5));
}

TEST(TraceTest, SameTraceDifferentConfigsIsControlledAB) {
  // The point of traces: identical workload, different protocol knobs.
  const Scenario base = small_scenario();
  const auto rows = generate_trace(base, 17);

  auto run_with = [&](int substreams) {
    Scenario s = base;
    s.params.substream_count = substreams;
    s.params.block_rate = 2.0 * substreams;
    sim::Simulation simulation(3);
    logging::LogServer log;
    TraceRunner runner(simulation, s, rows, &log);
    runner.run();
    return logging::reconstruct_sessions(log.parse_all());
  };
  const auto k1 = run_with(1);
  const auto k4 = run_with(4);
  // Same users arrive in both runs.
  EXPECT_EQ(k1.users.size(), k4.users.size());
}

}  // namespace
}  // namespace coolstream::workload
