// Data-driven mesh (Coolstreaming) vs tree-based overlay multicast (§II)
// under churn.
//
// The paper motivates the data-driven design by the fragility of explicit
// tree maintenance: a departing interior node stalls its whole subtree
// until repair.  We run both systems over statistically identical
// populations and churn levels and compare continuity.
#include "bench_util.h"

#include <cmath>

#include "analysis/continuity.h"
#include "baseline/tree_overlay.h"
#include "net/connectivity.h"
#include "workload/user_types.h"

namespace {

using namespace coolstream;

struct ChurnLevel {
  const char* label;
  double mean_session_s;  // infinity = no churn
};

double run_mesh(double mean_session_s, std::size_t users,
                std::uint64_t seed) {
  workload::Scenario s =
      workload::Scenario::steady(users, units::Duration(1800.0));
  s.system.server_count = 4;
  s.system.server_max_partners = 10;
  if (std::isfinite(mean_session_s)) {
    s.sessions.long_tail_prob = 0.0;
    s.sessions.duration_sigma = 0.6;
    s.sessions.duration_mu =
        std::log(mean_session_s) - 0.5 * 0.6 * 0.6;
    // Keep the population at `users` despite shorter sessions.
    s.arrivals = workload::RateProfile::constant(
        static_cast<double>(users) / mean_session_s);
  } else {
    s.sessions.long_tail_prob = 1.0;
  }
  sim::Simulation simulation(seed);
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, s, &log);
  runner.run();
  return analysis::average_continuity(
      logging::reconstruct_sessions(log.parse_all()));
}

// Fills the population, then churns: replaces a random node every
// mean_session/users seconds (M/M/inf-ish turnover).
double run_tree(int stripes, double mean_session_s, std::size_t users,
                std::uint64_t seed) {
  sim::Simulation simulation(seed);
  baseline::TreeParams params;
  params.root_capacity_bps = 4 * 768e3 * 10;  // ~4 servers' worth
  params.stripes = stripes;
  baseline::TreeOverlay tree(simulation, params);
  tree.start();

  const auto types = workload::UserTypeModel::coolstreaming_2006();
  sim::Rng& rng = simulation.rng();
  std::vector<net::NodeId> live;
  for (std::size_t i = 0; i < users; ++i) {
    const auto type = types.draw_type(rng);
    live.push_back(tree.join(types.draw_capacity(type, rng),
                             net::accepts_inbound(type)));
    simulation.run_until(simulation.now() + units::Duration(0.5));
  }
  simulation.run_until(
      sim::Time(120.0 + static_cast<double>(users) * 0.5));

  const sim::Time horizon = simulation.now() + units::Duration(1500.0);
  if (std::isfinite(mean_session_s)) {
    const double interval =
        mean_session_s / static_cast<double>(users);
    while (simulation.now() < horizon) {
      simulation.run_until(
          std::min(horizon,
                   simulation.now() + units::Duration(rng.exponential(interval))));
      if (simulation.now() >= horizon) break;
      const auto pick = rng.below(live.size());
      tree.leave(live[pick]);
      const auto type = types.draw_type(rng);
      live[pick] = tree.join(types.draw_capacity(type, rng),
                             net::accepts_inbound(type));
    }
  } else {
    simulation.run_until(horizon);
  }
  return tree.average_continuity();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  core::Params params;
  bench::print_header("Baseline: tree-based overlay multicast vs mesh",
                      args, params);

  const std::size_t users = bench::scaled(200, args);
  const ChurnLevel levels[] = {
      {"none", std::numeric_limits<double>::infinity()},
      {"mild (20 min)", 1200.0},
      {"moderate (10 min)", 600.0},
      {"heavy (3 min)", 180.0},
  };

  analysis::banner(std::cout, "Average continuity index under churn");
  analysis::Table t({"churn", "mesh (Coolstreaming)", "single tree",
                     "multi-tree (K=4)"});
  for (const auto& level : levels) {
    const double mesh = run_mesh(level.mean_session_s, users, args.seed);
    const double tree =
        run_tree(1, level.mean_session_s, users, args.seed + 1);
    const double multi =
        run_tree(4, level.mean_session_s, users, args.seed + 2);
    t.row({level.label, analysis::pct(mesh, 2), analysis::pct(tree, 2),
           analysis::pct(multi, 2)});
  }
  t.print(std::cout);

  bench::paper_note(
      "The data-driven mesh degrades gracefully under churn (multiple "
      "parents per node, per-sub-stream failover) and beats both explicit "
      "trees under heavy churn; under milder churn the single tree, whose "
      "interior is only a few high-capacity peers, can match or edge past "
      "it at some seeds.  Measured nuance: the multi-tree loses only 1/K "
      "of the rate per departure, but interior-disjointness drafts ~K "
      "times more peers into interior roles than the single tree, so "
      "orphaning events are far more frequent and repair-time losses "
      "dominate — explicit repair, not striping, is the bottleneck, which "
      "is exactly the §II argument for the data-driven design.");
  return 0;
}
