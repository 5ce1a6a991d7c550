#include "workload/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "analysis/session_analysis.h"
#include "logging/sessions.h"

namespace coolstream::workload {
namespace {

Scenario small_steady() {
  Scenario s = Scenario::steady(60, units::Duration(900.0));
  s.system.server_count = 3;
  return s;
}

TEST(ScenarioTest, SteadyPresetTargetsPopulation) {
  const Scenario s = Scenario::steady(100, units::Duration(3600.0));
  // Arrival rate * mean duration ~ 100 (Little's law); just check the
  // arrival rate is plausibly positive and constant.
  EXPECT_GT(s.arrivals.rate(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.arrivals.rate(0.0), s.arrivals.rate(1800.0));
}

TEST(ScenarioTest, EveningPresetHasProgramEnd) {
  const Scenario s = Scenario::evening(500, units::Duration::hours(3.0));
  EXPECT_TRUE(std::isfinite(s.program_end));
  EXPECT_LT(s.program_end, s.end_time);
  // Rate collapses after program end.
  EXPECT_GT(s.arrivals.rate(0.5 * s.end_time),
            s.arrivals.rate(s.end_time));
}

TEST(ScenarioTest, EveningPresetRejectsSpansUnderTwoHours) {
  // Thrown, not asserted: a release build must not build the broken ramp.
  EXPECT_THROW(Scenario::evening(500, units::Duration::hours(1.5)),
               std::invalid_argument);
}

TEST(ScenarioTest, FlashCrowdPresetAddsCrowd) {
  const Scenario s = Scenario::flash_crowd(50, 200, units::Duration(300.0),
                                           units::Duration(900.0));
  ASSERT_EQ(s.crowds.size(), 1u);
  EXPECT_DOUBLE_EQ(s.crowds[0].center, 300.0);
  EXPECT_GT(s.crowds[0].amplitude, 0.0);
}

TEST(ScenarioRunnerTest, RunsAndProducesSessions) {
  sim::Simulation simulation(101);
  logging::LogServer log;
  ScenarioRunner runner(simulation, small_steady(), &log);
  runner.run();

  EXPECT_GT(runner.users_created(), 10u);
  const auto sessions = logging::reconstruct_sessions(log.parse_all());
  EXPECT_GT(sessions.sessions.size(), 10u);

  // Most sessions that got a ready event are normal or still open.
  std::size_t ready = 0;
  for (const auto& s : sessions.sessions) {
    if (s.media_ready_time_abs) ++ready;
  }
  EXPECT_GT(ready, sessions.sessions.size() / 2);
}

TEST(ScenarioRunnerTest, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    sim::Simulation simulation(seed);
    logging::LogServer log;
    ScenarioRunner runner(simulation, small_steady(), &log);
    runner.run();
    return log.lines();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(ScenarioRunnerTest, ImpatientUsersRetry) {
  Scenario s = small_steady();
  // Zero patience beyond the minimum: almost everyone aborts attempt 1
  // unless ready arrives very fast; tiny media-ready window keeps some
  // successes.  Force retries by making patience shorter than any
  // realistic ready time.
  s.sessions.patience_min = 0.5;
  s.sessions.patience_mean = 0.5;
  s.sessions.retry_prob = 1.0;
  s.sessions.max_retries = 3;
  sim::Simulation simulation(11);
  logging::LogServer log;
  ScenarioRunner runner(simulation, s, &log);
  runner.run();

  const auto sessions = logging::reconstruct_sessions(log.parse_all());
  const auto retries = analysis::retry_distribution(sessions);
  // With sub-second patience, users must have retried.
  EXPECT_GT(retries.fraction_with_retries() +
                static_cast<double>(retries.never_succeeded) /
                    static_cast<double>(std::max<std::size_t>(1, retries.total_users)),
            0.5);
  // Sessions per user > 1 on average.
  EXPECT_GT(sessions.sessions.size(), sessions.users.size());
}

TEST(ScenarioRunnerTest, ProgramEndDrainsTheSystem) {
  Scenario s = Scenario::steady(50, units::Duration(1200.0));
  s.system.server_count = 2;
  s.program_end = 600.0;
  s.program_end_jitter = 30.0;
  s.sessions.long_tail_prob = 1.0;  // everyone stays to program end
  sim::Simulation simulation(13);
  logging::LogServer log;
  ScenarioRunner runner(simulation, s, &log);
  runner.run_until(550.0);
  const auto before = runner.system().live_viewer_count();
  runner.run();
  const auto after = runner.system().live_viewer_count();
  EXPECT_GT(before, 10u);
  // Almost everyone who was ready left around the program end; late
  // arrivals that never became ready may linger until their patience
  // fires, so allow a small residue.
  EXPECT_LT(after, before / 3);
}

TEST(ScenarioRunnerTest, RunUntilIsResumable) {
  sim::Simulation simulation(17);
  logging::LogServer log;
  ScenarioRunner runner(simulation, small_steady(), &log);
  runner.run_until(300.0);
  const auto mid = log.size();
  EXPECT_GT(mid, 0u);
  runner.run();
  EXPECT_GT(log.size(), mid);
}

// Regression: a finite program_end before time zero schedules departures
// before any arrival is possible; it used to be accepted silently and made
// every session depart at time ~0.  validate() must reject it, both when
// called directly and from the ScenarioRunner constructor.
TEST(ScenarioValidateTest, RejectsDeparturesBeforeArrivals) {
  Scenario s = small_steady();
  s.program_end = -5.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  sim::Simulation simulation(1);
  EXPECT_THROW(ScenarioRunner(simulation, s, nullptr),
               std::invalid_argument);
}

TEST(ScenarioValidateTest, RejectsOtherInconsistencies) {
  {
    Scenario s = small_steady();
    s.end_time = 0.0;  // empty horizon
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    Scenario s = small_steady();
    s.program_end_jitter = -1.0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    Scenario s = small_steady();
    s.sessions.crash_fraction = 1.5;  // not a probability
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    Scenario s = small_steady();
    s.crowds.push_back(FlashCrowd{-10.0, 5.0, 3.0});
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
}

TEST(ScenarioValidateTest, AcceptsAllPresets) {
  EXPECT_NO_THROW(Scenario::steady(50, units::Duration(600.0)).validate());
  EXPECT_NO_THROW(
      Scenario::evening(200, units::Duration::hours(3.0)).validate());
  EXPECT_NO_THROW(Scenario::flash_crowd(40, 80, units::Duration(300.0),
                                        units::Duration(900.0))
                      .validate());
  // A finite, in-range program end is legal.
  Scenario s = small_steady();
  s.program_end = 600.0;
  EXPECT_NO_THROW(s.validate());
}

}  // namespace
}  // namespace coolstream::workload
