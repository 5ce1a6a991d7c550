// NAT/heterogeneity study: how the connectivity mix shapes the overlay.
//
//   ./examples/nat_and_heterogeneity [seed]
//
// Sweeps the fraction of publicly reachable (direct/UPnP) peers and shows
// what happens to continuity, startup, upload concentration and overlay
// structure — the resource-provisioning question the paper raises in its
// conclusion ("highly unbalanced distribution in term of uploading
// contributions ... has significant implications on the resource
// provisioning in the system").
#include <iostream>

#include "analysis/continuity.h"
#include "analysis/lorenz.h"
#include "analysis/overlay.h"
#include "analysis/session_analysis.h"
#include "analysis/table.h"
#include "bench_util.h"
#include "logging/log_server.h"
#include "logging/sessions.h"
#include "sim/simulation.h"
#include "workload/scenario.h"

namespace {

using namespace coolstream;

/// Rescales the capable (direct+UPnP) share of the 2006 population while
/// keeping the NAT:firewall and direct:UPnP ratios.
workload::UserTypeModel with_capable_share(double capable) {
  auto m = workload::UserTypeModel::coolstreaming_2006();
  auto& d = m.profiles[static_cast<std::size_t>(net::ConnectionType::kDirect)];
  auto& u = m.profiles[static_cast<std::size_t>(net::ConnectionType::kUpnp)];
  auto& n = m.profiles[static_cast<std::size_t>(net::ConnectionType::kNat)];
  auto& f =
      m.profiles[static_cast<std::size_t>(net::ConnectionType::kFirewall)];
  const double cap0 = d.share + u.share;
  const double weak0 = n.share + f.share;
  d.share *= capable / cap0;
  u.share *= capable / cap0;
  n.share *= (1.0 - capable) / weak0;
  f.share *= (1.0 - capable) / weak0;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 11;
  if (argc > 2 || (argc == 2 && !bench::parse_whole(argv[1], seed))) {
    std::cerr << "usage: " << argv[0] << " [seed]\n";
    return 2;
  }

  std::cout << "Sweep: share of publicly reachable (direct+UPnP) peers\n"
            << "300 steady viewers, 3 servers with 8 partner slots each\n";

  analysis::Table t({"capable share", "continuity", "ready p50 (s)",
                     "ready p90 (s)", "capable upload share",
                     "weak-parent links", "starving"});
  for (double capable : {0.10, 0.20, 0.30, 0.50, 0.80}) {
    workload::Scenario s =
        workload::Scenario::steady(300, units::Duration(1800.0));
    s.system.server_count = 3;
    s.system.server_max_partners = 8;
    s.users = with_capable_share(capable);

    sim::Simulation simulation(seed + static_cast<std::uint64_t>(capable * 100));
    logging::LogServer log;
    workload::ScenarioRunner runner(simulation, s, &log);
    runner.run();

    const auto sessions = logging::reconstruct_sessions(log.parse_all());
    const auto delays = analysis::startup_delays(sessions);
    const auto contrib = analysis::upload_contributions(sessions);
    const auto overlay =
        analysis::measure_overlay(runner.system().snapshot());

    const double cap_upload =
        contrib.type_share(net::ConnectionType::kDirect) +
        contrib.type_share(net::ConnectionType::kUpnp);
    t.row({analysis::pct(capable, 0),
           analysis::pct(analysis::average_continuity(sessions), 2),
           delays.media_ready.empty()
               ? "-"
               : analysis::fmt(delays.media_ready.quantile(0.5), 1),
           delays.media_ready.empty()
               ? "-"
               : analysis::fmt(delays.media_ready.quantile(0.9), 1),
           analysis::pct(cap_upload),
           analysis::pct(overlay.parent_share_weak),
           analysis::pct(overlay.starving_fraction)});
  }
  t.print(std::cout);

  std::cout << "\nReading: below ~20% reachable peers the partner-slot "
               "supply collapses (every partnership needs one reachable "
               "endpoint), startup stretches and continuity degrades — the "
               "critical-ratio effect the paper cites from stochastic "
               "fluid theory [23].\n";
  return 0;
}
