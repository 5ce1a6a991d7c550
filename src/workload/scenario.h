// Scenario runner: drives one simulated broadcast end to end.
//
// A Scenario bundles the protocol parameters, the deployment config, the
// user population, the arrival process and the session behaviour; the
// ScenarioRunner schedules arrivals, manages patience/retry/departure per
// user, and leaves a complete log in the LogServer — the input to every
// figure pipeline.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>

#include "core/system.h"
#include "core/units.h"
#include "logging/log_server.h"
#include "sim/simulation.h"
#include "workload/arrivals.h"
#include "workload/session_model.h"
#include "workload/user_types.h"

namespace coolstream::workload {

/// Full description of one simulated broadcast.
struct Scenario {
  core::Params params;
  core::SystemConfig system;
  UserTypeModel users = UserTypeModel::coolstreaming_2006();
  SessionModel sessions;

  RateProfile arrivals = RateProfile::constant(1.0);
  std::vector<FlashCrowd> crowds;

  double end_time = 3600.0;  ///< simulation horizon (seconds)
  /// When finite: long-tail viewers depart around this instant (program
  /// end; the 22:00 cliff in Fig. 5b).
  double program_end = std::numeric_limits<double>::infinity();
  double program_end_jitter = 90.0;  ///< stddev of the departure spread

  /// Throws std::invalid_argument when the scenario is inconsistent —
  /// most importantly when departures are scheduled before arrivals are
  /// possible (a finite program_end < 0 used to be accepted silently and
  /// made every session depart at time ~0).  ScenarioRunner validates on
  /// construction.
  void validate() const;

  // ---- presets -----------------------------------------------------------
  // The factories take units::Duration so a caller cannot transpose a span
  // with a population count or pass hours where seconds are meant; the raw
  // `double` config fields above stay raw by design (config boundary).

  /// A steady-state broadcast: constant arrivals tuned so the expected
  /// concurrent population is ~`target_users` (Little's law against the
  /// mean session duration).  Good for QoS and topology experiments.
  static Scenario steady(std::size_t target_users, units::Duration duration);

  /// An evening broadcast: ramp + peak + program end, compressed into
  /// `span` (>= 2 hours, else std::invalid_argument) of simulated time,
  /// peaking around `peak_users` concurrent viewers.  This is the workload
  /// behind Figs. 6, 8 and 10.
  static Scenario evening(std::size_t peak_users,
                          units::Duration span = units::Duration::hours(4.0));

  /// Steady background plus one large flash crowd centred `crowd_at`
  /// after broadcast start.
  static Scenario flash_crowd(std::size_t base_users, std::size_t crowd_extra,
                              units::Duration crowd_at,
                              units::Duration duration);
};

/// Executes a Scenario against a fresh System.
class ScenarioRunner {
 public:
  ScenarioRunner(sim::Simulation& simulation, Scenario scenario,
                 logging::LogServer* log);

  /// Runs the whole scenario (until Scenario::end_time).
  void run();

  /// Runs until `until` (callable repeatedly; useful for snapshotting the
  /// overlay mid-broadcast).
  void run_until(double until);

  core::System& system() noexcept { return system_; }
  const Scenario& scenario() const noexcept { return scenario_; }

  /// Distinct users that arrived so far.
  std::uint64_t users_created() const noexcept { return next_user_ - 1; }

  /// Immediately starts one extra session (a fresh user drawn from the
  /// population model), outside the arrival process.  Used by churn
  /// drivers to inject flash-crowd bursts.  No-op before run()/run_until()
  /// has started the system.
  void inject_arrival();

 private:
  struct SessionCtl {
    std::uint64_t user_id = 0;
    core::PeerSpec spec;
    int retries_left = 0;
    sim::EventHandle patience;
  };

  void schedule_next_arrival();
  void start_session(const core::PeerSpec& spec, int retries_left);
  void on_event(net::NodeId node, core::SessionEvent event);
  void on_ready(net::NodeId node, SessionCtl& ctl);
  void on_patience_expired(net::NodeId node);

  sim::Simulation& sim_;
  Scenario scenario_;
  ArrivalProcess arrivals_;
  core::System system_;
  std::unordered_map<net::NodeId, SessionCtl> active_;
  std::uint64_t next_user_ = 1;
  bool started_ = false;
};

}  // namespace coolstream::workload
