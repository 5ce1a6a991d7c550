// Simulator benchmark: one seeded command per workload.
//
//   perfbench --workload steady_peak|evening_churn|flash_crash --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// A pass builds the workload from the seed, runs its set-up (scenario
// build, System construction and start(), join ramp or warm prefix) and
// then a measured window whose simulated length is proportional to S.
// Every pass stamps the clock at its start, after every tick, and at the
// ends of its set-up and window.  The simulation is deterministic, so
// same-seed passes stamp the same points and each interval between two
// stamps does the same work in every pass.
//
// --trace 0 runs kPasses untraced passes and reports the end-to-end
// metrics.  setup_s and ns_per_peer_tick sum each interval's fastest pass:
// other tenants of a shared host slow the process in stretches of
// seconds, and a stretch rarely covers one interval in every pass.
// --trace 1 runs untraced, traced, traced and untraced passes and reports
// the per-layer metrics from the last traced one.  Each side holds two
// passes, so the tracing overhead compares fastest-interval times too.
// Spans are recorded only around calls this file makes into the
// simulator's public API; nothing under src/ changes.
//
// The last line of stdout is one JSON object: correct, attempted and
// failed count the output checks, metrics maps name -> {value, unit}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/continuity.h"
#include "analysis/session_analysis.h"
#include "bench/bench_util.h"
#include "core/system.h"
#include "logging/log_server.h"
#include "logging/sessions.h"
#include "net/transport.h"
#include "sim/fault_injector.h"
#include "sim/simulation.h"
#include "trace.h"
#include "workload/scenario.h"

namespace {

namespace cs = coolstream;
using perfbench::Digest;
using perfbench::SpanName;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

// Untraced passes per --trace 0 run.
constexpr int kPasses = 3;
// Offset of the pre-tick probe before each tick instant, simulated s.
constexpr double kProbeLead = 1e-6;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // KiB on Linux
}

double current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

int host_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

enum class Kind { kSteadyPeak, kEveningChurn, kFlashCrash };

struct Options {
  Kind kind = Kind::kSteadyPeak;
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string spans_path;
};

bool parse_options(int argc, char** argv, Options& o) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
      have_workload = true;
      if (val == "steady_peak") {
        o.kind = Kind::kSteadyPeak;
      } else if (val == "evening_churn") {
        o.kind = Kind::kEveningChurn;
      } else if (val == "flash_crash") {
        o.kind = Kind::kFlashCrash;
      } else {
        return false;
      }
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      const long s = std::strtol(val.c_str(), &end, 10);
      have_seconds = end != val.c_str() && *end == '\0' && s >= 1 && s <= 600;
      o.seconds = static_cast<int>(s);
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      o.trace = val == "1";
    } else if (key == "--spans") {
      o.spans_path = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

// ---------------------------------------------------------------------------
// Harness: benchmark-owned probe events around System::tick
// ---------------------------------------------------------------------------

/// The post-tick event fires at k*dt and is scheduled after start(), so
/// it runs right after the tick of the same instant; it stamps the clock
/// and counts peer-ticks in every pass.  Traced passes add a pre-tick
/// event at k*dt - lead and time the tick and the gap between ticks.
/// Events run in (time, seq) order, so the probes reorder none of the
/// simulation's own events.
class Harness {
 public:
  explicit Harness(SpanRecorder* spans) : spans_(spans) {}

  void install(cs::sim::Simulation& sim, const cs::core::System& system) {
    const double dt = system.params().flow_tick;
    sim_ = &sim;
    system_ = &system;
    sim.every(cs::sim::Duration(dt), cs::sim::Duration(dt),
              [this] { post_tick(); });
    if (spans_ != nullptr) {
      sim.every(cs::sim::Duration(dt - kProbeLead), cs::sim::Duration(dt),
                [this] { pre_tick(); });
      spans_->open(SpanName::kBetween, now_ns(), /*truncated=*/true);
    }
  }

  /// Runs `fn` inside a span named `name` when tracing.
  template <typename F>
  void timed(SpanName name, F&& fn) {
    if (spans_ == nullptr) {
      fn();
      return;
    }
    spans_->open(name, now_ns());
    fn();
    spans_->close(now_ns());
  }

  /// Opens a stage (setup, window) under the run span and reopens the
  /// tick or between-ticks span the previous stage cut off.  Returns the
  /// stage's span id, 0 when not tracing.
  std::uint32_t begin_stage(SpanName stage) {
    if (spans_ == nullptr) return 0;
    const std::int64_t t = now_ns();
    stage_ = spans_->open(stage, t);
    if (system_ != nullptr) {
      spans_->open(in_tick_ ? SpanName::kTick : SpanName::kBetween, t,
                   /*truncated=*/true);
    }
    return stage_;
  }

  void end_stage() {
    if (spans_ == nullptr) return;
    const std::int64_t t = now_ns();
    spans_->close_inside(stage_, t);
    spans_->close(t);
  }

  /// Stamps the clock and returns the stamp's index.
  std::size_t stamp() {
    stamps_.push_back(now_ns());
    return stamps_.size() - 1;
  }

  void set_counting(bool on) noexcept { counting_ = on; }

  std::uint64_t probe_events() const noexcept { return probe_events_; }
  std::uint64_t peer_ticks() const noexcept { return peer_ticks_; }
  std::uint64_t ticks() const noexcept { return ticks_; }
  const perfbench::Stamps& stamps() const noexcept { return stamps_; }
  const std::vector<double>& queue_depths() const noexcept {
    return queue_depths_;
  }

 private:
  void sample_queue() {
    if (counting_) {
      queue_depths_.push_back(static_cast<double>(sim_->queue().size()));
    }
  }

  void pre_tick() {
    ++probe_events_;
    const std::int64_t t = now_ns();
    spans_->close(t);  // the between-ticks span
    spans_->open(SpanName::kTick, t);
    in_tick_ = true;
    sample_queue();
  }

  void post_tick() {
    ++probe_events_;
    const std::int64_t t = now_ns();
    stamps_.push_back(t);
    if (counting_) {
      peer_ticks_ += system_->live_nodes().size();
      ++ticks_;
    }
    if (spans_ == nullptr) return;
    spans_->close(t);  // the tick span
    spans_->open(SpanName::kBetween, t);
    in_tick_ = false;
    sample_queue();
  }

  SpanRecorder* spans_;
  cs::sim::Simulation* sim_ = nullptr;
  const cs::core::System* system_ = nullptr;
  std::uint32_t stage_ = 0;
  bool in_tick_ = false;
  bool counting_ = false;
  std::uint64_t probe_events_ = 0;
  std::uint64_t peer_ticks_ = 0;
  std::uint64_t ticks_ = 0;
  perfbench::Stamps stamps_;
  std::vector<double> queue_depths_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Every workload runs on one shard.  On a shared host, barrier-separated
// shards wait for the slowest worker, which amplifies contention from other
// tenants: back-to-back steady_peak runs of one seed spread 4 445-8 080
// ns/peer-tick at 4 shards against 5 753-6 748 at 1 shard.
constexpr int kShards = 1;

/// One workload instance, built entirely from the seed and --seconds.
class Workload {
 public:
  virtual ~Workload() = default;

  cs::sim::Simulation& sim() noexcept { return sim_; }
  virtual cs::core::System& system() = 0;
  virtual cs::logging::LogServer* log() { return nullptr; }
  virtual const cs::sim::FaultInjector* faults() const { return nullptr; }
  /// Users the workload created (a user may hold several sessions).
  virtual std::uint64_t users() { return system().stats().joins; }
  /// Live viewers the window must hold throughout, or 0 for none.
  virtual std::size_t target_population() const { return 0; }

  /// Starts the System at time 0, installs the harness and schedules the
  /// benchmark's own workload events (joins, crowd, crash).
  virtual void start(Harness& h) = 0;

  double warm_end() const noexcept { return warm_end_; }
  double end() const noexcept { return end_; }
  std::uint64_t ready() const noexcept { return ready_; }

 protected:
  explicit Workload(std::uint64_t seed) : sim_(seed) {}

  /// Counts media-ready milestones, forwarding to any observer already set.
  void count_ready() {
    auto inner = std::move(system().observer);
    system().observer = [this, inner = std::move(inner)](
                            cs::net::NodeId id, cs::core::SessionEvent ev) {
      if (ev == cs::core::SessionEvent::kMediaReady) ++ready_;
      if (inner) inner(id, ev);
    };
  }

  cs::sim::Simulation sim_;
  double warm_end_ = 0.0;
  double end_ = 0.0;
  std::uint64_t ready_ = 0;
};

/// steady_peak: kPeakViewers join evenly over a ramp and stay; no session
/// churn, no log server.  The tick and its effect flush do almost all the
/// work.
class SteadyPeak final : public Workload {
 public:
  static constexpr std::size_t kPeakViewers = 10000;
  static constexpr double kRamp = 40.0;
  static constexpr double kSettle = 20.0;
  static constexpr double kWindowPerSecond = 4.0;  // simulated s per --seconds

  explicit SteadyPeak(const Options& o)
      : Workload(o.seed),
        scenario_(make_scenario()),
        system_(sim_, scenario_.params, scenario_.system, nullptr) {
    warm_end_ = kRamp + kSettle;
    end_ = warm_end_ + kWindowPerSecond * o.seconds;
  }

  cs::core::System& system() override { return system_; }
  std::size_t target_population() const override { return kPeakViewers; }

  void start(Harness& h) override {
    system_.start();
    count_ready();
    h.install(sim_, system_);
    for (std::size_t i = 0; i < kPeakViewers; ++i) {
      const double when =
          kRamp * static_cast<double>(i) / static_cast<double>(kPeakViewers);
      sim_.at(cs::sim::Time(when), [this, &h, i] {
        const cs::core::PeerSpec spec = scenario_.users.make_spec(
            static_cast<std::uint64_t>(i), sim_.rng());
        h.timed(SpanName::kJoin, [&] { system_.join(spec); });
      });
    }
  }

 private:
  static cs::workload::Scenario make_scenario() {
    auto s = cs::workload::Scenario::steady(kPeakViewers,
                                            cs::units::Duration(600.0));
    cs::bench::peer_driven_servers(s, kPeakViewers);
    s.system.shards = kShards;
    return s;
  }

  cs::workload::Scenario scenario_;
  cs::core::System system_;
};

/// evening_churn: the compressed evening broadcast of Figs. 6/8/10 with
/// its full session lifecycle and a log server.  The warm prefix is the
/// first third of the evening; the window runs from there through program
/// end and the departures it causes.
class EveningChurn final : public Workload {
 public:
  static constexpr std::size_t kPeakViewers = 1000;
  static constexpr double kSpanPerSecond = 720.0;  // simulated s per --seconds
  // Program end empties the channel; the rest of the horizon would tick an
  // almost empty system and turn the tick timings into empty-tick costs.
  static constexpr double kAfterProgramEnd = 600.0;

  explicit EveningChurn(const Options& o)
      : Workload(o.seed), runner_(sim_, make_scenario(o.seconds), &log_) {
    warm_end_ = runner_.scenario().end_time / 3.0;
    end_ = runner_.scenario().program_end + kAfterProgramEnd;
  }

  cs::core::System& system() override { return runner_.system(); }
  cs::logging::LogServer* log() override { return &log_; }
  std::uint64_t users() override { return runner_.users_created(); }

  void start(Harness& h) override {
    runner_.run_until(0.0);  // starts the System and the arrival process
    count_ready();
    h.install(sim_, runner_.system());
  }

 private:
  static cs::workload::Scenario make_scenario(int seconds) {
    const double span = std::max(2.0 * 3600.0, kSpanPerSecond * seconds);
    auto s = cs::workload::Scenario::evening(kPeakViewers,
                                             cs::units::Duration(span));
    cs::bench::peer_driven_servers(s, kPeakViewers);
    s.sessions.crash_fraction = 0.15;
    s.system.shards = kShards;
    return s;
  }

  cs::logging::LogServer log_;
  cs::workload::ScenarioRunner runner_;
};

/// flash_crash: kBaseViewers viewers, then kCrowd arrivals injected over
/// the first 40% of the window, a crash of kCrashShare of the live viewers
/// at 60%, and recovery to the end.  Message faults are armed for the
/// whole window.  No log server.
class FlashCrash final : public Workload {
 public:
  static constexpr std::size_t kBaseViewers = 3000;
  static constexpr std::size_t kCrowd = 6000;
  static constexpr double kCrashShare = 0.30;
  static constexpr double kRamp = 60.0;
  static constexpr double kSettle = 30.0;
  static constexpr double kWindowPerSecond = 4.0;  // simulated s per --seconds

  explicit FlashCrash(const Options& o)
      : Workload(o.seed),
        window_(kWindowPerSecond * o.seconds),
        faults_(o.seed ^ 0x5eedfa17ULL, make_faults(kRamp + kSettle)),
        crash_rng_(o.seed ^ 0xc7a5ULL),
        runner_(sim_, make_scenario(kRamp + kSettle + window_), nullptr) {
    warm_end_ = kRamp + kSettle;
    end_ = warm_end_ + window_;
  }

  cs::core::System& system() override { return runner_.system(); }
  const cs::sim::FaultInjector* faults() const override { return &faults_; }
  std::uint64_t users() override { return runner_.users_created(); }

  void start(Harness& h) override {
    runner_.system().attach_faults(&faults_);
    runner_.run_until(0.0);
    count_ready();
    h.install(sim_, runner_.system());
    auto inject_evenly = [this, &h](std::size_t n, double from, double span) {
      for (std::size_t i = 0; i < n; ++i) {
        const double when =
            from + span * static_cast<double>(i) / static_cast<double>(n);
        sim_.at(cs::sim::Time(when), [this, &h] {
          h.timed(SpanName::kJoin, [this] { runner_.inject_arrival(); });
        });
      }
    };
    inject_evenly(kBaseViewers, 0.0, kRamp);
    inject_evenly(kCrowd, warm_end_, 0.4 * window_);
    sim_.at(cs::sim::Time(warm_end_ + 0.6 * window_), [this, &h] { crash(h); });
  }

 private:
  static cs::sim::FaultSchedule make_faults(double from) {
    cs::sim::MessageFault f;
    f.window = {cs::units::Tick(from), cs::units::Tick(1e12)};
    f.drop = 0.02;
    f.dup = 0.01;
    f.jitter = 0.20;
    f.max_jitter = cs::units::Duration(0.5);
    cs::sim::FaultSchedule s;
    s.messages.push_back(f);
    return s;
  }

  static cs::workload::Scenario make_scenario(double end) {
    // Steady-state session lengths (median 5 min) with arrivals only
    // through inject_arrival.  Hours-long sessions would park a far-future
    // departure timer per viewer, which puts the calendar event queue in a
    // seed-dependent regime that differs 5x in cost between seeds.
    auto s = cs::workload::Scenario::steady(kBaseViewers,
                                            cs::units::Duration(end + 1.0));
    s.arrivals = cs::workload::RateProfile::constant(1e-12);
    cs::bench::peer_driven_servers(s, kBaseViewers + kCrowd);
    s.system.shards = kShards;
    return s;
  }

  void crash(Harness& h) {
    cs::core::System& sys = runner_.system();
    std::vector<cs::net::NodeId> viewers;
    for (const cs::net::NodeId id : sys.live_nodes()) {
      const cs::core::Peer* p = sys.peer(id);
      if (p != nullptr && p->kind() == cs::core::PeerKind::kViewer) {
        viewers.push_back(id);
      }
    }
    crash_rng_.shuffle(viewers);
    const auto n = static_cast<std::size_t>(
        kCrashShare * static_cast<double>(viewers.size()));
    for (std::size_t i = 0; i < n; ++i) {
      h.timed(SpanName::kLeave,
              [&] { sys.leave(viewers[i], /*graceful=*/false); });
    }
  }

  double window_;
  cs::sim::FaultInjector faults_;  // outlives the runner's System
  cs::sim::Rng crash_rng_;
  cs::workload::ScenarioRunner runner_;
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  switch (o.kind) {
    case Kind::kSteadyPeak: return std::make_unique<SteadyPeak>(o);
    case Kind::kEveningChurn: return std::make_unique<EveningChurn>(o);
    case Kind::kFlashCrash: return std::make_unique<FlashCrash>(o);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------------

constexpr std::array<cs::net::MessageKind, cs::net::kMessageKindCount>
    kMessageKinds = {cs::net::MessageKind::kGossip,
                     cs::net::MessageKind::kBufferMap,
                     cs::net::MessageKind::kSubscribe,
                     cs::net::MessageKind::kPartnership,
                     cs::net::MessageKind::kReport};

/// Deterministic counters at one instant.
struct Counters {
  cs::core::SystemStats stats;
  std::array<std::uint64_t, cs::net::kMessageKindCount> sent{};
  std::uint64_t events = 0;  ///< simulation events, probes excluded
  std::uint64_t log_lines = 0;
  std::uint64_t users = 0;
  std::uint64_t ready = 0;
  std::size_t live_viewers = 0;
  std::uint64_t digest = 0;
};

Counters snapshot(Workload& w, const Harness& h) {
  cs::core::System& sys = w.system();
  Counters c;
  c.stats = sys.stats();
  for (std::size_t k = 0; k < kMessageKinds.size(); ++k) {
    c.sent[k] = sys.transport().sent(kMessageKinds[k]);
  }
  c.events = w.sim().events_executed() - h.probe_events();
  c.users = w.users();
  c.ready = w.ready();
  c.live_viewers = sys.live_viewer_count();

  Digest d;
  d.add(c.stats.joins).add(c.stats.leaves);
  d.add(c.stats.partnership_accepts).add(c.stats.partnership_rejects);
  d.add(c.stats.subscriptions).add(c.stats.blocks_transferred);
  for (const std::uint64_t s : c.sent) d.add(s);
  d.add(c.events).add(c.users).add(c.ready).add(c.live_viewers);
  if (const cs::logging::LogServer* log = w.log()) {
    c.log_lines = log->size();
    d.add(c.log_lines);
    for (const std::string& line : log->lines()) d.add(line);
  }
  c.digest = d.value();
  return c;
}

struct PassResult {
  bool traced = false;
  double setup_s = 0.0;
  double window_s = 0.0;
  double window_cpu_s = 0.0;
  std::uint64_t peer_ticks = 0;
  std::uint64_t ticks = 0;
  Counters start;
  Counters end;
  std::size_t target_population = 0;
  double rss_kb_per_live_node = 0.0;
  std::vector<double> queue_depths;

  /// Clock stamps: the pass start at 0, one per tick, the set-up end at
  /// setup_end, the window start at setup_end + 1 and the window end last.
  perfbench::Stamps stamps;
  std::size_t setup_end = 0;

  bool has_faults = false;
  cs::sim::FaultCounters faults;

  // Post-window pipeline (workloads with a log server).
  bool has_log = false;
  std::size_t malformed = 0;
  double continuity = 0.0;
  double buffering_p50_s = 0.0;

  std::unique_ptr<SpanRecorder> spans;
  std::uint32_t window_span = 0;
};

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

PassResult run_pass(const Options& o, bool traced) {
  PassResult r;
  r.traced = traced;
  if (traced) {
    Digest id;
    id.add(o.workload).add(o.seed).add(static_cast<std::uint64_t>(o.seconds));
    r.spans = std::make_unique<SpanRecorder>(id.value());
  }
  SpanRecorder* spans = r.spans.get();
  Harness h(spans);

  const double rss0 = current_rss_kb();
  h.stamp();
  if (spans != nullptr) spans->open(SpanName::kRun, h.stamps().front());
  h.begin_stage(SpanName::kSetup);
  const std::unique_ptr<Workload> w = make_workload(o);
  w->start(h);
  w->sim().run_until(cs::sim::Time(w->warm_end()));
  r.setup_end = h.stamp();
  r.setup_s = seconds_between(h.stamps().front(), h.stamps().back());

  r.start = snapshot(*w, h);
  r.target_population = w->target_population();
  r.rss_kb_per_live_node =
      (current_rss_kb() - rss0) /
      static_cast<double>(std::max<std::size_t>(
          1, w->system().live_nodes().size()));

  h.end_stage();
  r.window_span = h.begin_stage(SpanName::kWindow);
  h.set_counting(true);
  const double cpu0 = cpu_seconds();
  const std::size_t window_begin = h.stamp();
  w->sim().run_until(cs::sim::Time(w->end()));
  const std::size_t window_end = h.stamp();
  r.window_cpu_s = cpu_seconds() - cpu0;
  r.window_s =
      seconds_between(h.stamps()[window_begin], h.stamps()[window_end]);
  h.set_counting(false);
  h.end_stage();

  r.end = snapshot(*w, h);
  r.peer_ticks = h.peer_ticks();
  r.ticks = h.ticks();
  r.stamps = h.stamps();
  r.queue_depths = h.queue_depths();
  if (const cs::sim::FaultInjector* f = w->faults()) {
    r.has_faults = true;
    r.faults = f->counters();
  }

  if (const cs::logging::LogServer* log = w->log()) {
    r.has_log = true;
    std::vector<cs::logging::Report> reports;
    h.timed(SpanName::kParse, [&] { reports = log->parse_all(&r.malformed); });
    cs::logging::SessionLog sessions;
    h.timed(SpanName::kReconstruct,
            [&] { sessions = cs::logging::reconstruct_sessions(reports); });
    h.timed(SpanName::kAnalysis, [&] {
      r.continuity = cs::analysis::average_continuity(sessions);
      const auto delays = cs::analysis::startup_delays(sessions);
      r.buffering_p50_s =
          delays.buffering.empty() ? 0.0 : delays.buffering.quantile(0.5);
    });
  }
  if (spans != nullptr) spans->close(now_ns());
  return r;
}

/// Set-up and window seconds of same-seed passes, each interval taken from
/// its fastest pass.  The passes must have stamped the same points.
struct Fastest {
  double setup_s = 0.0;
  double window_s = 0.0;
};

Fastest fastest(const std::vector<const PassResult*>& passes) {
  std::vector<const perfbench::Stamps*> stamps;
  for (const PassResult* p : passes) stamps.push_back(&p->stamps);
  const PassResult& first = *passes.front();
  Fastest f;
  f.setup_s = 1e-9 * static_cast<double>(
                         perfbench::fastest_ns(stamps, 0, first.setup_end));
  f.window_s =
      1e-9 * static_cast<double>(perfbench::fastest_ns(
                 stamps, first.setup_end + 1, first.stamps.size() - 1));
  return f;
}

double ns_per_peer_tick(double window_s, std::uint64_t peer_ticks) {
  return window_s * 1e9 /
         static_cast<double>(std::max<std::uint64_t>(1, peer_ticks));
}

// ---------------------------------------------------------------------------
// Checks and reporting
// ---------------------------------------------------------------------------

struct Checks {
  int attempted = 0;
  int failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) ++failed;
    std::cout << "check " << (ok ? "PASS " : "FAIL ") << what << "\n";
  }
};

std::string pass_label(std::size_t i, const PassResult& p) {
  return "pass " + std::to_string(i + 1) +
         (p.traced ? " (traced)" : " (untraced)");
}

/// Checks that every pass repeats the first one: equal state digests at
/// window start and end (so tracing changed nothing) and clock stamps at
/// the same points.  Returns whether all did.
bool check_repeats(const std::vector<PassResult>& passes, Checks& c) {
  const PassResult& a = passes.front();
  bool all = true;
  for (std::size_t i = 1; i < passes.size(); ++i) {
    const PassResult& b = passes[i];
    const bool same = b.start.digest == a.start.digest &&
                      b.end.digest == a.end.digest &&
                      b.stamps.size() == a.stamps.size() &&
                      b.setup_end == a.setup_end;
    c.expect(same, pass_label(i, b) + " repeats " + pass_label(0, a) +
                       ": equal digests at window start and end, same "
                       "clock stamps");
    all = all && same;
  }
  return all;
}

/// Checks on one full pass's outputs.
void check_outputs(const PassResult& r, Checks& c) {
  c.expect(r.peer_ticks > 0, "window serviced peer-ticks");
  c.expect(r.end.stats.blocks_transferred > r.start.stats.blocks_transferred,
           "blocks moved in the window");
  if (r.target_population > 0) {
    c.expect(r.start.live_viewers == r.target_population,
             "live viewers at window start = " +
                 std::to_string(r.target_population));
    c.expect(r.end.live_viewers == r.target_population,
             "live viewers at window end = " +
                 std::to_string(r.target_population));
  }
  if (r.has_log) c.expect(r.malformed == 0, "no malformed log lines");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void print_result(const Checks& c, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              c.failed == 0 ? "true" : "false", c.attempted, c.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_pass(std::size_t i, const PassResult& r) {
  std::printf("%-20s setup %.3f s  window %.3f s  peer-ticks %llu  "
              "ns/peer-tick %.1f  digest start %s end %s\n",
              pass_label(i, r).c_str(), r.setup_s, r.window_s,
              static_cast<unsigned long long>(r.peer_ticks),
              ns_per_peer_tick(r.window_s, r.peer_ticks),
              hex(r.start.digest).c_str(), hex(r.end.digest).c_str());
}

void print_fidelity(const PassResult& r) {
  if (!r.has_log) {
    std::printf("fidelity n/a (no log server on this workload)\n");
    return;
  }
  std::printf("fidelity continuity_index %.4f (paper ~0.97, Figs. 8/9); "
              "buffering_p50_s %.2f (paper 10-20 s, Fig. 6)\n",
              r.continuity, r.buffering_p50_s);
}

/// Self times of the traced pass's spans, grouped by layer.
struct SpanTimes {
  std::vector<double> tick_ms, between_ms, join_us, leave_us;
  double tick_total_s = 0.0;
  double between_total_s = 0.0;
  double parse_ms = 0.0;
  double reconstruct_ms = 0.0;
  double analysis_ms = 0.0;
};

SpanTimes span_times(const PassResult& t) {
  const SpanRecorder& spans = *t.spans;
  const std::vector<std::int64_t> self = spans.self_ns();
  SpanTimes st;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const perfbench::Span& s = spans.spans()[i];
    const double self_s = static_cast<double>(self[i]) * 1e-9;
    const bool in_window = s.parent == t.window_span;
    switch (s.name) {
      case SpanName::kTick:
        if (!in_window) break;
        st.tick_total_s += self_s;
        if (!s.truncated) st.tick_ms.push_back(self_s * 1e3);
        break;
      case SpanName::kBetween:
        if (!in_window) break;
        st.between_total_s += self_s;
        if (!s.truncated) st.between_ms.push_back(self_s * 1e3);
        break;
      case SpanName::kJoin: st.join_us.push_back(self_s * 1e6); break;
      case SpanName::kLeave: st.leave_us.push_back(self_s * 1e6); break;
      case SpanName::kParse: st.parse_ms += self_s * 1e3; break;
      case SpanName::kReconstruct: st.reconstruct_ms += self_s * 1e3; break;
      case SpanName::kAnalysis: st.analysis_ms += self_s * 1e3; break;
      case SpanName::kRun:
      case SpanName::kSetup:
      case SpanName::kWindow:
        break;
    }
  }
  return st;
}

/// Prints a timing series' p50, tail and sample count, and returns its
/// summary.  An empty series (the layer did not run) prints nothing.
perfbench::Summary print_timing(const char* name, const std::vector<double>& v,
                                const char* unit) {
  const perfbench::Summary s = perfbench::summarize(v);
  if (s.n > 0) {
    std::printf("timing %-28s p50 %.4g  ptail %.4g  n %zu  %s\n", name, s.p50,
                s.tail, s.n, unit);
  }
  return s;
}

/// Per-layer metrics of the layers that run on every workload, for the
/// JSON result.  Times come from the traced pass `t`, counts from the
/// untraced pass `u` (equal digests make them interchangeable).
/// `untraced` and `traced` are the two sides' fastest-interval times.
std::vector<Metric> layer_metrics(const PassResult& u, const PassResult& t,
                                  const SpanTimes& st, const Fastest& untraced,
                                  const Fastest& traced) {
  const double pt =
      static_cast<double>(std::max<std::uint64_t>(1, u.peer_ticks));
  auto per_pt = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / pt;
  };
  std::vector<Metric> m;

  // sim
  const perfbench::Summary between =
      print_timing("sim.between_ticks_ms", st.between_ms, "ms");
  m.push_back({"sim.between_ticks_ms.p50", between.p50, "ms"});
  m.push_back({"sim.between_ticks_ms.ptail", between.tail, "ms"});
  m.push_back({"sim.between_ticks_total_s", st.between_total_s, "s"});
  const std::uint64_t window_events = u.end.events - u.start.events;
  m.push_back({"sim.events_per_peer_tick",
               static_cast<double>(window_events) / pt, "count"});
  const double dispatched =
      static_cast<double>(std::max<std::uint64_t>(1, window_events - t.ticks));
  m.push_back({"sim.ns_per_event", st.between_total_s * 1e9 / dispatched,
               "ns"});
  const perfbench::Summary depth = perfbench::summarize(t.queue_depths);
  double depth_max = 0.0;
  for (const double d : t.queue_depths) depth_max = std::max(depth_max, d);
  m.push_back({"sim.queue_depth.p50", depth.p50, "count"});
  m.push_back({"sim.queue_depth.max", depth_max, "count"});
  m.push_back({"sim.cpu_per_wall", t.window_cpu_s / t.window_s, "ratio"});

  // core
  const perfbench::Summary tick =
      print_timing("core.tick_ms", st.tick_ms, "ms");
  m.push_back({"core.tick_ms.p50", tick.p50, "ms"});
  m.push_back({"core.tick_ms.ptail", tick.tail, "ms"});
  m.push_back({"core.tick_total_s", st.tick_total_s, "s"});
  m.push_back({"core.tick_ns_per_node", st.tick_total_s * 1e9 / pt, "ns"});
  m.push_back({"core.rss_kb_per_live_node", u.rss_kb_per_live_node, "KiB"});
  m.push_back({"core.blocks_per_peer_tick",
               per_pt(u.start.stats.blocks_transferred,
                      u.end.stats.blocks_transferred),
               "count"});
  m.push_back({"core.subscriptions_per_peer_tick",
               per_pt(u.start.stats.subscriptions, u.end.stats.subscriptions),
               "count"});
  const double accepts = static_cast<double>(
      u.end.stats.partnership_accepts - u.start.stats.partnership_accepts);
  const double rejects = static_cast<double>(
      u.end.stats.partnership_rejects - u.start.stats.partnership_rejects);
  m.push_back({"core.accept_ratio", accepts / std::max(1.0, accepts + rejects),
               "ratio"});

  // net
  static constexpr std::array<const char*, cs::net::kMessageKindCount>
      kKindNames = {"gossip", "buffermap", "subscribe", "partnership",
                    "report"};
  for (std::size_t k = 0; k < kKindNames.size(); ++k) {
    m.push_back({std::string("net.msgs_per_peer_tick.") + kKindNames[k],
                 per_pt(u.start.sent[k], u.end.sent[k]), "count"});
  }

  // workload
  m.push_back({"workload.users", static_cast<double>(u.end.users), "count"});
  const double sessions = static_cast<double>(u.end.stats.joins);
  m.push_back({"workload.sessions", sessions, "count"});
  m.push_back({"workload.ready_ratio",
               static_cast<double>(u.end.ready) / std::max(1.0, sessions),
               "ratio"});

  // tracing overhead
  m.push_back({"trace.ns_per_peer_tick_untraced",
               ns_per_peer_tick(untraced.window_s, u.peer_ticks), "ns"});
  m.push_back({"trace.traced_per_untraced",
               traced.window_s / untraced.window_s, "ratio"});
  return m;
}

/// Prints the per-layer metrics of layers that run on some workloads
/// only: the benchmark's own joins and leaves, message faults, and the log
/// pipeline.  The JSON result leaves them out, since it carries the same
/// metrics on every workload and these would read 0 where the layer is
/// absent.
void print_workload_layers(const PassResult& u, const SpanTimes& st) {
  auto layer = [](const char* name, double value, const char* unit) {
    std::printf("layer %-35s %.6g %s\n", name, value, unit);
  };
  print_timing("core.join_us", st.join_us, "us");
  print_timing("core.leave_us", st.leave_us, "us");
  if (u.has_faults) {
    layer("net.fault_dropped", static_cast<double>(u.faults.dropped), "count");
    layer("net.fault_duplicated", static_cast<double>(u.faults.duplicated),
          "count");
  }
  if (u.has_log) {
    const double pt =
        static_cast<double>(std::max<std::uint64_t>(1, u.peer_ticks));
    layer("logging.lines_per_peer_tick",
          static_cast<double>(u.end.log_lines - u.start.log_lines) / pt,
          "count");
    layer("logging.parse_ms", st.parse_ms, "ms");
    layer("logging.reconstruct_ms", st.reconstruct_ms, "ms");
    layer("logging.malformed", static_cast<double>(u.malformed), "count");
    layer("analysis.ms", st.analysis_ms, "ms");
    layer("analysis.continuity_index", u.continuity, "ratio");
    layer("analysis.buffering_p50_s", u.buffering_p50_s, "s");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_options(argc, argv, o)) {
    std::cerr << "usage: perfbench --workload steady_peak|evening_churn|"
                 "flash_crash --seed N --seconds S --trace 0|1 "
                 "[--spans FILE]\n";
    return 2;
  }
  std::printf("perfbench workload %s seed %llu seconds %d trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("host %s nproc %d shards %d\n", host_name().c_str(),
              host_cores(), kShards);

  // --trace 1 starts untraced, so core.rss_kb_per_live_node is measured in
  // a fresh process, and gives each side one pass from either end.
  std::vector<bool> order(kPasses, false);
  if (o.trace) order = {false, true, true, false};
  std::vector<PassResult> passes;
  for (const bool traced : order) {
    passes.push_back(run_pass(o, traced));
    print_pass(passes.size() - 1, passes.back());
  }

  Checks checks;
  const bool repeated = check_repeats(passes, checks);
  const PassResult& first = passes.front();
  check_outputs(first, checks);
  print_fidelity(first);

  // Each side's fastest-interval times.  Passes that stamped different
  // points cannot be paired; the side then falls back to its first pass.
  auto side = [&](bool traced) {
    std::vector<const PassResult*> v;
    for (const PassResult& p : passes) {
      if (p.traced == traced && (repeated || v.empty())) v.push_back(&p);
    }
    return fastest(v);
  };

  std::vector<Metric> metrics;
  if (!o.trace) {
    const Fastest f = side(false);
    std::printf("fastest intervals    setup %.3f s  window %.3f s\n",
                f.setup_s, f.window_s);
    metrics = {
        {"ns_per_peer_tick", ns_per_peer_tick(f.window_s, first.peer_ticks),
         "ns"},
        {"setup_s", f.setup_s, "s"},
        {"peak_rss_mb", peak_rss_kb() / 1024.0, "MB"},
    };
  } else {
    const PassResult& t = passes[2];
    if (!o.spans_path.empty()) {
      std::ofstream out(o.spans_path);
      t.spans->write_jsonl(out);
      if (!out) std::cerr << "cannot write spans to " << o.spans_path << "\n";
    }
    const SpanTimes st = span_times(t);
    metrics = layer_metrics(first, t, st, side(false), side(true));
    print_workload_layers(first, st);
  }
  std::printf("fail_ratio %.6g (%d of %d checks failed)\n",
              static_cast<double>(checks.failed) / checks.attempted,
              checks.failed, checks.attempted);
  print_result(checks, metrics);
  return 0;
}
