// State-hash pin for behaviour-preserving refactors.
//
// Runs a fixed-seed broadcast and folds every externally observable piece of
// protocol state — the complete log stream, the system counters, the viewer
// step function (recorded from the kJoined/kLeft session milestones), and
// each node's final buffers/playhead/stats — into one FNV-1a digest, then
// compares it against a recorded golden value.
//
// The golden hash was captured before the strong-domain-type refactor
// (core/units.h); the refactor is contractually a pure re-typing, so the
// digest must stay bit-identical.  Any legitimate behaviour change must
// update the constant *in the same commit* and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/peer.h"
#include "core/system.h"
#include "logging/log_server.h"
#include "sim/simulation.h"
#include "sim/time_series.h"
#include "workload/scenario.h"

namespace coolstream {
namespace {

/// 64-bit FNV-1a over a byte string: tiny, stable, dependency-free.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string full_state_digest(std::uint64_t seed) {
  sim::Simulation simulation(seed);
  logging::LogServer log;
  workload::Scenario scenario =
      workload::Scenario::steady(48, units::Duration(700.0));
  scenario.end_time = 700.0;
  workload::ScenarioRunner runner(simulation, scenario, &log);
  core::System& sys = runner.system();
  // The viewer step function: one step per join and per leave, recorded
  // ahead of the runner's own observer.
  sim::StepCounter viewers;
  sys.observer = [&viewers, &simulation, inner = std::move(sys.observer)](
                     net::NodeId id, core::SessionEvent event) {
    if (event == core::SessionEvent::kJoined) viewers.add(simulation.now(), +1);
    if (event == core::SessionEvent::kLeft) viewers.add(simulation.now(), -1);
    inner(id, event);
  };
  runner.run();

  std::ostringstream out;
  out.precision(17);
  out << "users=" << runner.users_created()
      << " events=" << simulation.events_executed() << '\n';
  const core::SystemStats& stats = sys.stats();
  out << stats.joins << '/' << stats.leaves << '/' << stats.blocks_transferred
      << '/' << stats.partnership_accepts << '/' << stats.partnership_rejects
      << '/' << stats.subscriptions << '\n';
  for (const auto& [t, v] : viewers.steps()) {
    out << t.value() << ',' << v << ';';
  }
  out << '\n';
  // Per-node final protocol state, in node-id order.
  for (net::NodeId id = 0;; ++id) {
    const core::Peer* p = sys.peer(id);
    if (p == nullptr) break;
    out << id << ": phase=" << static_cast<int>(p->phase())
        << " play=" << p->playhead().value()
        << " start=" << p->play_start_seq().value() << " heads=";
    for (const core::SubstreamId j :
         core::substreams(sys.params().substream_count)) {
      out << p->head(j).value() << ',';
    }
    const core::PeerStats& ps = p->stats();
    out << " due=" << ps.blocks_due << " ontime=" << ps.blocks_on_time
        << " up=" << ps.bytes_up.value() << " down=" << ps.bytes_down.value()
        << " adapt=" << ps.adaptations << " switch=" << ps.parent_switches
        << " stalls=" << ps.stalls << " stall_s=" << ps.stall_seconds.value()
        << " resyncs=" << ps.resyncs << '\n';
  }
  for (const std::string& line : log.lines()) out << line << '\n';
  return out.str();
}

TEST(StateHashTest, FixedSeedRunIsBitIdenticalToPreRefactorGolden) {
  const std::string digest = full_state_digest(20070613);
  const std::uint64_t h = fnv1a(digest);
  // Captured at the sharded-engine change (seed 20070613).  Rebaselined
  // there because peers moved to private per-node RNG streams and the tick
  // became phase-split with deferred cross-peer effects — an intentional,
  // documented behaviour change (DESIGN.md §15).  The invariant guarded
  // here is unchanged: any later refactor must reproduce this digest bit
  // for bit, at every shard count.
  const std::uint64_t kGolden = 0xe6ad6de2276320c2ULL;
  EXPECT_EQ(h, kGolden) << "state digest hash changed: 0x" << std::hex << h
                        << " (simulation output is no longer bit-identical)";
}

}  // namespace
}  // namespace coolstream
