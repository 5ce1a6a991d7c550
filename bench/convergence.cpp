// Topology convergence (§I contribution 2, §V-B): random partner
// selection drives peers under capable parents as they age.
//
// "Usually even if a peer selects a NAT/Firewall peers as the parent at
// the beginning, as it suffers from insufficient upload bandwidth and is
// frequently subject to peer adaptation, eventually it can convert to a
// direct-connect/UPnP peers for its parent."
//
// We measure the capable-parent share of each peer's sub-stream links as
// a function of the peer's *age* (time since join), pooled over many
// snapshots of a steady broadcast, and fit the two-state convergence
// model x(t) = x_inf + (x0 - x_inf) e^{-t/tau}.
#include "bench_util.h"

#include "analysis/overlay.h"
#include "core/system.h"
#include "model/convergence_model.h"

int main(int argc, char** argv) {
  using namespace coolstream;
  const auto args = bench::parse_args(argc, argv);

  workload::Scenario scenario =
      workload::Scenario::steady(bench::scaled(500, args),
                                 units::Duration(2700.0));
  bench::peer_driven_servers(scenario, bench::scaled(500, args), 4);
  bench::print_header(
      "Topology convergence: capable parents vs peer age", args,
      scenario.params);

  sim::Simulation simulation(args.seed);
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);

  constexpr double kAgeBucket = 15.0;
  constexpr std::size_t kBuckets = 40;  // ages up to 10 minutes
  std::vector<std::uint64_t> capable_links(kBuckets, 0);
  std::vector<std::uint64_t> total_links(kBuckets, 0);

  for (double at = 120.0; at <= scenario.end_time; at += 30.0) {
    runner.run_until(at);
    core::System& sys = runner.system();
    const auto snap = sys.snapshot();
    for (const auto& node : snap.nodes) {
      if (node.is_server) continue;
      const core::Peer* p = sys.peer(node.id);  // snapshot nodes are live
      const double age =
          at - p->joined_at().value();
      const auto bucket = static_cast<std::size_t>(age / kAgeBucket);
      if (bucket >= kBuckets) continue;
      for (net::NodeId parent_id : node.parents) {
        if (parent_id == net::kInvalidNode) continue;
        const core::Peer* parent = sys.live_peer(parent_id);
        if (parent == nullptr) continue;
        ++total_links[bucket];
        const bool capable =
            parent->kind() == core::PeerKind::kServer ||
            net::accepts_inbound(parent->spec().type);
        if (capable) ++capable_links[bucket];
      }
    }
  }

  std::vector<std::pair<double, double>> measured;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (total_links[b] < 50) continue;  // noise floor
    measured.emplace_back((static_cast<double>(b) + 0.5) * kAgeBucket,
                          static_cast<double>(capable_links[b]) /
                              static_cast<double>(total_links[b]));
  }

  const double x0 = measured.empty() ? 0.0 : measured.front().second;
  const auto fitted = model::fit_trajectory(measured, x0);

  analysis::banner(std::cout,
                   "Capable-parent share of sub-stream links vs peer age");
  analysis::Table t({"age (s)", "links", "measured", "fitted model"});
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (total_links[b] < 50) continue;
    const double age = (static_cast<double>(b) + 0.5) * kAgeBucket;
    t.row({analysis::fmt(age, 0), std::to_string(total_links[b]),
           analysis::pct(static_cast<double>(capable_links[b]) /
                         static_cast<double>(total_links[b])),
           analysis::pct(model::capable_fraction_at(fitted, x0, age))});
  }
  t.print(std::cout);

  // The §V-B convergence mechanism, measured directly: subscriptions to
  // weak (NAT/firewall) parents break much sooner than subscriptions to
  // capable parents.
  double capable_time = 0.0;
  double weak_time = 0.0;
  std::uint64_t capable_n = 0;
  std::uint64_t weak_n = 0;
  {
    core::System& sys = runner.system();
    const auto snap = sys.snapshot();
    (void)snap;
    for (net::NodeId id = 0;; ++id) {
      const core::Peer* p = sys.peer(id);
      if (p == nullptr) break;
      if (p->kind() != core::PeerKind::kViewer) continue;
      capable_time +=
          p->stats().capable_subscription_time.value();
      capable_n += p->stats().capable_subscriptions_ended;
      weak_time +=
          p->stats().weak_subscription_time.value();
      weak_n += p->stats().weak_subscriptions_ended;
    }
  }
  analysis::banner(std::cout,
                   "Mean completed-subscription lifetime by parent class");
  analysis::Table ls({"parent class", "episodes", "mean lifetime (s)"});
  ls.row({"server/direct/UPnP", std::to_string(capable_n),
          capable_n == 0
              ? "-"
              : analysis::fmt(capable_time / static_cast<double>(capable_n), 1)});
  ls.row({"NAT/firewall", std::to_string(weak_n),
          weak_n == 0
              ? "-"
              : analysis::fmt(weak_time / static_cast<double>(weak_n), 1)});
  ls.print(std::cout);

  analysis::banner(std::cout, "Fitted two-state model");
  std::cout << "effective transition rate sigma*q: "
            << analysis::fmt(fitted.reselect_rate, 4) << " /s\n"
            << "capable-parent churn rate mu:      "
            << analysis::fmt(fitted.capable_churn_rate, 4) << " /s\n"
            << "equilibrium capable fraction:      "
            << analysis::pct(model::equilibrium_capable_fraction(fitted))
            << "\nconvergence time constant:         "
            << analysis::fmt(model::convergence_time_constant(fitted), 0)
            << " s\n";

  bench::paper_note(
      "Peers start wherever the boot-strap list lands them and migrate "
      "toward server/direct/UPnP parents as adaptations fire; the capable "
      "share should rise with age and flatten near the model equilibrium "
      "— the overlay's self-evolving convergence (§V-B).");
  return 0;
}
