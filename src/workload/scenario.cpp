#include "workload/scenario.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace coolstream::workload {
namespace {

/// Mean session duration implied by a SessionModel, with the program-end
/// tail approximated by `tail_duration`.  Used by presets to size arrival
/// rates via Little's law (N = lambda * E[D]).
double mean_duration(const SessionModel& m, double tail_duration) {
  const double body =
      std::exp(m.duration_mu + 0.5 * m.duration_sigma * m.duration_sigma);
  return (1.0 - m.long_tail_prob) * body + m.long_tail_prob * tail_duration;
}

}  // namespace

Scenario Scenario::steady(std::size_t target_users, units::Duration duration) {
  Scenario s;
  // Conversion boundary into the raw-seconds config fields.
  s.end_time = duration.value();
  // Fast-mixing lognormal sessions (median 5 min, mean ~10 min) so the
  // population reaches its Little's-law target well inside typical
  // horizons.  No stay-to-program-end tail: steady scenarios have no
  // program end, so an infinite tail would accumulate viewers without
  // bound; evening() keeps the heavier real-broadcast durations.
  s.sessions.long_tail_prob = 0.0;
  s.sessions.duration_mu = std::log(300.0);
  s.sessions.duration_sigma = 1.2;
  const double mean = mean_duration(s.sessions, 0.0);
  const double lambda = static_cast<double>(target_users) / mean;
  s.arrivals = RateProfile::constant(lambda);
  return s;
}

Scenario Scenario::evening(std::size_t peak_users, units::Duration span) {
  // The ramp below is parameterized in hours; the division round-trips
  // exactly for spans built via Duration::hours (x*3600/3600 == x for
  // every finite double), so traces are bit-identical to the old raw-hours
  // signature.
  const double hours = span.value() / 3600.0;
  if (!(hours >= 2.0)) {
    throw std::invalid_argument(
        "Scenario: evening preset needs at least 2 simulated hours");
  }
  Scenario s;
  constexpr double h = 3600.0;
  s.end_time = hours * h;
  s.program_end = (hours - 0.75) * h;  // programs end 45 min before horizon
  const double tail = s.program_end * 0.5;  // long-tail watch ~half evening
  const double mean = mean_duration(s.sessions, tail);
  // Ramp shaped like Fig. 5b, compressed into `hours`.
  const double peak_rate = static_cast<double>(peak_users) / mean;
  s.arrivals = RateProfile({
      {0.00 * hours * h, 0.30 * peak_rate},
      {0.25 * hours * h, 0.60 * peak_rate},
      {0.50 * hours * h, 1.00 * peak_rate},
      {0.70 * hours * h, 0.90 * peak_rate},
      {(hours - 0.75) * h, 0.70 * peak_rate},
      {(hours - 0.70) * h, 0.15 * peak_rate},
      {hours * h, 0.05 * peak_rate},
  });
  return s;
}

Scenario Scenario::flash_crowd(std::size_t base_users,
                               std::size_t crowd_extra,
                               units::Duration crowd_at,
                               units::Duration duration) {
  Scenario s = steady(base_users, duration);
  // The crowd joins within ~3 sigma of the center; amplitude such that the
  // integral of the Gaussian equals crowd_extra arrivals.
  FlashCrowd c;
  c.center = crowd_at.value();
  c.width = 60.0;
  c.amplitude =
      static_cast<double>(crowd_extra) / (c.width * std::sqrt(2.0 * 3.14159265358979));
  s.crowds.push_back(c);
  return s;
}

void Scenario::validate() const {
  auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("Scenario: ") + what);
  };
  if (!(end_time > 0.0)) fail("end_time must be positive");
  if (std::isfinite(program_end) && program_end < 0.0) {
    fail("program_end must be >= 0 (a negative program end schedules "
         "departures before any arrival is possible)");
  }
  if (!(program_end_jitter >= 0.0)) {
    fail("program_end_jitter must be non-negative");
  }
  for (const FlashCrowd& c : crowds) {
    if (c.center < 0.0) fail("flash crowd center must be >= 0");
    if (!(c.width > 0.0)) fail("flash crowd width must be positive");
    if (c.amplitude < 0.0) fail("flash crowd amplitude must be >= 0");
  }
  if (sessions.long_tail_prob < 0.0 || sessions.long_tail_prob > 1.0) {
    fail("sessions.long_tail_prob must be a probability");
  }
  if (sessions.retry_prob < 0.0 || sessions.retry_prob > 1.0) {
    fail("sessions.retry_prob must be a probability");
  }
  if (sessions.crash_fraction < 0.0 || sessions.crash_fraction > 1.0) {
    fail("sessions.crash_fraction must be a probability");
  }
  if (sessions.max_retries < 0) fail("sessions.max_retries must be >= 0");
  if (sessions.patience_min < 0.0 || sessions.patience_mean < 0.0) {
    fail("sessions patience must be non-negative");
  }
  if (sessions.retry_delay_min < 0.0 || sessions.retry_delay_mean < 0.0) {
    fail("sessions retry delay must be non-negative");
  }
  params.validate();
}

ScenarioRunner::ScenarioRunner(sim::Simulation& simulation, Scenario scenario,
                               logging::LogServer* log)
    : sim_(simulation),
      scenario_(std::move(scenario)),
      arrivals_(scenario_.arrivals, scenario_.crowds),
      system_(simulation, scenario_.params, scenario_.system, log) {
  scenario_.validate();
  system_.observer = [this](net::NodeId node, core::SessionEvent event) {
    on_event(node, event);
  };
}

void ScenarioRunner::run_until(double until) {
  if (!started_) {
    started_ = true;
    system_.start();
    schedule_next_arrival();
  }
  sim_.run_until(sim::Time(std::min(until, scenario_.end_time)));
}

void ScenarioRunner::run() { run_until(scenario_.end_time); }

void ScenarioRunner::inject_arrival() {
  if (!started_) return;
  const std::uint64_t user = next_user_++;
  const core::PeerSpec spec = scenario_.users.make_spec(user, sim_.rng());
  start_session(spec, scenario_.sessions.max_retries);
}

void ScenarioRunner::schedule_next_arrival() {
  const double t = arrivals_.next_arrival(
      sim_.now().value(),
      scenario_.end_time, sim_.rng());
  if (t > scenario_.end_time) return;
  sim_.at(sim::Time(t), [this] {
    const std::uint64_t user = next_user_++;
    const core::PeerSpec spec = scenario_.users.make_spec(user, sim_.rng());
    start_session(spec, scenario_.sessions.max_retries);
    schedule_next_arrival();
  });
}

void ScenarioRunner::start_session(const core::PeerSpec& spec,
                                   int retries_left) {
  const net::NodeId node = system_.join(spec);
  SessionCtl ctl;
  ctl.user_id = spec.user_id;
  ctl.spec = spec;
  ctl.retries_left = retries_left;
  const auto patience =
      units::Duration(scenario_.sessions.draw_patience(sim_.rng()));
  ctl.patience =
      sim_.after(patience, [this, node] { on_patience_expired(node); });
  active_.emplace(node, std::move(ctl));
}

void ScenarioRunner::on_event(net::NodeId node, core::SessionEvent event) {
  auto it = active_.find(node);
  if (it == active_.end()) return;
  switch (event) {
    case core::SessionEvent::kMediaReady:
      on_ready(node, it->second);
      break;
    case core::SessionEvent::kLeft:
      it->second.patience.cancel();
      active_.erase(it);
      break;
    case core::SessionEvent::kJoined:
    case core::SessionEvent::kStartSubscription:
      break;
  }
}

void ScenarioRunner::on_ready(net::NodeId node, SessionCtl& ctl) {
  ctl.patience.cancel();
  const SessionModel& m = scenario_.sessions;
  // Session durations come from the scenario config in raw seconds; this
  // is the conversion boundary into simulation time.
  double leave_at =
      sim_.now().value() +
      m.draw_duration(sim_.rng());
  if (std::isfinite(scenario_.program_end)) {
    const double end_spread = std::abs(
        sim_.rng().normal(0.0, scenario_.program_end_jitter));
    leave_at = std::min(leave_at, scenario_.program_end + end_spread);
  }
  if (!std::isfinite(leave_at)) {
    // Infinite intended duration and no program end: stays for the whole
    // scenario; no departure scheduled.
    return;
  }
  const bool crash = sim_.rng().chance(m.crash_fraction);
  sim_.at(std::max(sim::Time(leave_at), sim_.now()), [this, node, crash] {
    system_.leave(node, /*graceful=*/!crash);
  });
}

void ScenarioRunner::on_patience_expired(net::NodeId node) {
  auto it = active_.find(node);
  if (it == active_.end()) return;
  const core::Peer* p = system_.live_peer(node);
  if (p == nullptr) return;
  if (p->phase() == core::PeerPhase::kPlaying) return;  // made it after all

  // The user gives up on this attempt (a sub-minute session in Fig. 10a)…
  const core::PeerSpec spec = it->second.spec;
  const int retries_left = it->second.retries_left;
  system_.leave(node, /*graceful=*/true);  // closing the player reports leave

  // …and maybe retries (Fig. 10b).
  const SessionModel& m = scenario_.sessions;
  if (retries_left > 0 && sim_.rng().chance(m.retry_prob)) {
    const auto delay = units::Duration(m.draw_retry_delay(sim_.rng()));
    sim_.after(delay, [this, spec, retries_left] {
      if (sim_.now() < sim::Time(scenario_.end_time)) {
        start_session(spec, retries_left - 1);
      }
    });
  }
}

}  // namespace coolstream::workload
