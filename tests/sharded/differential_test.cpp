// Serial-vs-sharded differential tier: the sharded engine's headline
// guarantee is that shard count is *unobservable* — a broadcast partitioned
// across N protocol workers produces bit-identical state to the serial run.
//
// Each test runs one pinned scenario once per shard count in {1, 2, 4, 8},
// folds every externally observable piece of protocol state into a digest
// string, and compares the N-shard digests byte-for-byte against the
// 1-shard baseline.  Scenarios cover the three workload shapes the paper
// measures (steady state, evening ramp, flash crowd) plus a run with the
// full fault-injection plane armed (message loss, capacity degradation,
// connectivity flaps, burst arrivals, mass crashes) — determinism must
// survive the nastiest schedules, not just clean runs.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/peer.h"
#include "core/system.h"
#include "logging/log_server.h"
#include "sim/simulation.h"
#include "workload/churn.h"
#include "workload/scenario.h"

namespace coolstream {
namespace {

constexpr std::uint64_t kSeed = 20070613;
const int kShardCounts[] = {2, 4, 8};

/// Full-state digest: system counters, the viewer step function, each
/// node's final buffers/playhead/stats, and the complete log stream.  Any
/// divergence between shard counts must show up here.
std::string digest(workload::ScenarioRunner& runner,
                   const logging::LogServer& log,
                   const sim::Simulation& simulation) {
  std::ostringstream out;
  out.precision(17);
  core::System& sys = runner.system();
  out << "users=" << runner.users_created()
      << " events=" << simulation.events_executed() << '\n';
  const core::SystemStats& st = sys.stats();
  out << st.joins << '/' << st.leaves << '/' << st.blocks_transferred << '/'
      << st.partnership_accepts << '/' << st.partnership_rejects << '/'
      << st.subscriptions << '\n';
  for (const auto& [t, v] : sys.concurrent_viewers().steps()) {
    out << t.value() << ',' << v << ';';
  }
  out << '\n';
  for (net::NodeId id = 0;; ++id) {
    const core::Peer* p = sys.peer(id);
    if (p == nullptr) break;
    out << id << ": phase=" << static_cast<int>(p->phase())
        << " play=" << p->playhead().value()
        << " partners=" << p->partner_count() << " heads=";
    for (const core::SubstreamId j :
         core::substreams(sys.params().substream_count)) {
      out << p->head(j).value() << ',';
    }
    const core::PeerStats& ps = p->stats();
    out << " due=" << ps.blocks_due << " ontime=" << ps.blocks_on_time
        << " up=" << ps.bytes_up.value() << " down=" << ps.bytes_down.value()
        << " adapt=" << ps.adaptations << " switch=" << ps.parent_switches
        << " stalls=" << ps.stalls << " resyncs=" << ps.resyncs << '\n';
  }
  for (const std::string& line : log.lines()) out << line << '\n';
  return out.str();
}

/// Runs `scenario` at the given shard count (with optional churn/fault
/// schedule armed) and returns the full-state digest.
std::string run_digest(workload::Scenario scenario, int shards,
                       const std::string& schedule_text = {}) {
  scenario.system.shards = shards;
  sim::Simulation simulation(kSeed);
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);
  std::unique_ptr<workload::ChurnDriver> driver;
  if (!schedule_text.empty()) {
    auto schedule = workload::ChurnSchedule::parse(schedule_text);
    EXPECT_TRUE(schedule.has_value()) << "bad schedule:\n" << schedule_text;
    driver = std::make_unique<workload::ChurnDriver>(
        runner, std::move(*schedule), kSeed);
    driver->arm();
  }
  runner.run();
  return digest(runner, log, simulation);
}

void expect_shard_invariant(const workload::Scenario& scenario,
                            const std::string& schedule_text = {}) {
  const std::string serial = run_digest(scenario, 1, schedule_text);
  ASSERT_FALSE(serial.empty());
  for (const int n : kShardCounts) {
    const std::string sharded = run_digest(scenario, n, schedule_text);
    // EXPECT_EQ on the whole strings would dump both digests on failure;
    // locate the first diverging line instead.
    if (sharded == serial) continue;
    std::istringstream a(serial);
    std::istringstream b(sharded);
    std::string la;
    std::string lb;
    std::size_t line = 0;
    while (std::getline(a, la) && std::getline(b, lb)) {
      ++line;
      ASSERT_EQ(la, lb) << "shards=" << n
                        << " diverges from serial at digest line " << line;
    }
    FAIL() << "shards=" << n << " digest differs from serial in length only";
  }
}

TEST(ShardedDifferential, SteadyStateBroadcast) {
  workload::Scenario s =
      workload::Scenario::steady(32, units::Duration(420.0));
  s.end_time = 420.0;
  expect_shard_invariant(s);
}

TEST(ShardedDifferential, EveningRampWithProgramEnd) {
  workload::Scenario s =
      workload::Scenario::evening(40, units::Duration::hours(2.0));
  expect_shard_invariant(s);
}

TEST(ShardedDifferential, FlashCrowd) {
  workload::Scenario s = workload::Scenario::flash_crowd(
      16, 24, units::Duration(120.0), units::Duration(360.0));
  s.end_time = 360.0;
  expect_shard_invariant(s);
}

TEST(ShardedDifferential, FullFaultPlaneArmed) {
  workload::Scenario s =
      workload::Scenario::steady(24, units::Duration(300.0));
  s.end_time = 300.0;
  // Every fault/churn verb at once: loss+duplication+jitter, a capacity
  // degradation, a connectivity flap, a burst and a mass crash.
  expect_shard_invariant(s,
                         "msg 30 200 * 0.2 0.05 0.3 0.4\n"
                         "cap 60 240 0 0.3\n"
                         "flap 90 110 3\n"
                         "burst 120 8 6\n"
                         "mass 180 0.25 crash\n");
}

// The largest accepted shard count (64, more shards than peers) still
// reproduces the serial run; counts beyond it are rejected, not clamped
// (SystemTest.MalformedShardCountsAreRejected).
TEST(ShardedDifferential, MaxShardCountMatchesSerial) {
  workload::Scenario s =
      workload::Scenario::steady(8, units::Duration(60.0));
  s.end_time = 60.0;
  EXPECT_EQ(run_digest(s, 64), run_digest(s, 1));
}

}  // namespace
}  // namespace coolstream
