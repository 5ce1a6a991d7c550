// Data-plane conservation laws: every delivered block is accounted once
// on each side of the connection, and byte totals tie out with the
// system-wide transfer counter, at any shard count.
#include <gtest/gtest.h>

#include <tuple>

#include "core/system.h"
#include "logging/log_server.h"
#include "workload/scenario.h"

namespace coolstream::core {
namespace {

/// (seed, shard count).
class FlowConservationTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(FlowConservationTest, BytesBalance) {
  const auto [seed, shards] = GetParam();
  workload::Scenario scenario =
      workload::Scenario::steady(120, units::Duration(900.0));
  scenario.system.server_count = 3;
  scenario.system.shards = shards;
  sim::Simulation simulation(seed);
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);
  runner.run();
  System& sys = runner.system();

  std::uint64_t up = 0;
  std::uint64_t down = 0;
  std::uint64_t viewer_blocks_received = 0;
  for (net::NodeId id = 0;; ++id) {
    const Peer* p = sys.peer(id);
    if (p == nullptr) break;
    up += p->stats().bytes_up.value();
    down += p->stats().bytes_down.value();
    if (p->kind() == PeerKind::kViewer) {
      viewer_blocks_received += p->sync().blocks_received();
    }
  }
  // Every byte uploaded was downloaded by exactly one peer.
  EXPECT_EQ(up, down);

  // The system-wide counter matches per-block byte accounting.
  const auto block_bytes = static_cast<std::uint64_t>(
      scenario.params.block_size_bits() / 8.0);
  EXPECT_EQ(down, sys.stats().blocks_transferred * block_bytes);

  // Every transferred block landed in some viewer's sync buffer (servers
  // never download; blocks_received counts start_at jumps as zero).
  EXPECT_EQ(viewer_blocks_received, sys.stats().blocks_transferred);

  // Sanity: real work happened.
  EXPECT_GT(sys.stats().blocks_transferred, 10'000u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FlowConservationTest,
    ::testing::Combine(::testing::Values(101u, 202u, 303u),
                       ::testing::Values(1, 4)));

TEST(FlowConservationTest2, ServersOnlyUpload) {
  workload::Scenario scenario =
      workload::Scenario::steady(60, units::Duration(600.0));
  scenario.system.server_count = 2;
  sim::Simulation simulation(9);
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);
  runner.run();
  System& sys = runner.system();
  for (net::NodeId id = 0; id < 2; ++id) {
    const Peer* server = sys.peer(id);
    ASSERT_EQ(server->kind(), PeerKind::kServer);
    EXPECT_EQ(server->stats().bytes_down, units::Bytes::zero());
    EXPECT_GT(server->stats().bytes_up, units::Bytes::zero());
  }
}

}  // namespace
}  // namespace coolstream::core
