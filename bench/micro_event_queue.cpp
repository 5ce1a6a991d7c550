// Head-to-head benchmark of the slab/heap event engine against the engine
// it replaced: a binary heap of std::function entries with shared_ptr<bool>
// cancellation flags and lazy removal.
//
// The reference engine below is a faithful replica of the pre-rewrite
// src/sim/event_queue.cpp, kept in-file so the comparison survives the
// original's deletion.  Four workloads mirror how the simulator actually
// drives the queue:
//
//   schedule_fire  — steady state: ~8k live events, every fire schedules a
//                    successor (transport deliveries, protocol timers)
//   periodic       — many concurrent every() loops (peer protocol ticks)
//   cancel_heavy   — a standing population of timers that are reset
//                    (cancel + reschedule) ~9 times for every time they
//                    fire, the way retransmit/keepalive timers behave;
//                    ~90% of scheduled events are cancelled before firing
//   tick_burst     — replay of the event-time profile recorded from the
//                    flash_crash benchmark workload (see kBurst below): each
//                    0.5 s tick lands a burst of deliveries inside one
//                    latency window, and deliveries trigger follow-ups
//
// Usage: bench_micro_event_queue [ops_pct]   (default 100: full op counts)
// Writes BENCH_event_engine.json with ns/op per engine and the speedups.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace {

using coolstream::sim::Duration;
using coolstream::sim::Rng;
using coolstream::sim::Time;

// The reference engine replicates the seed, whose clock was a raw double.
using RefTime = double;

// ---------------------------------------------------------------------------
// Reference engine: the seed's heap-of-std::function queue, verbatim design.
// ---------------------------------------------------------------------------

class RefHandle;

class RefQueue {
 public:
  RefHandle schedule(RefTime time, std::function<void()> fn);
  RefHandle schedule_every(RefTime first, RefTime period,
                           std::function<void()> fn);

  bool empty() {
    skim();
    return heap_.empty();
  }

  RefTime next_time() {
    skim();
    return heap_.front().time;
  }

  bool run_next(RefTime* now) {
    skim();
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    now_ = e.time;
    *now = e.time;
    *e.alive = false;
    e.fn();
    return true;
  }

 private:
  friend class RefHandle;

  struct Entry {
    RefTime time;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> alive;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void skim() {
    while (!heap_.empty() && !*heap_.front().alive) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  RefTime now_ = 0.0;
};

class RefHandle {
 public:
  RefHandle() = default;
  explicit RefHandle(std::shared_ptr<bool> alive) : alive_(std::move(alive)) {}
  void cancel() {
    if (alive_) *alive_ = false;
  }

 private:
  std::shared_ptr<bool> alive_;
};

RefHandle RefQueue::schedule(RefTime time, std::function<void()> fn) {
  auto alive = std::make_shared<bool>(true);
  heap_.push_back(Entry{time, next_seq_++, std::move(fn), alive});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return RefHandle(alive);
}

RefHandle RefQueue::schedule_every(RefTime first, RefTime period,
                                   std::function<void()> fn) {
  // The seed's periodic loop: a shared chain flag plus a self-rescheduling
  // shared std::function that re-enqueues itself at now + period.
  auto chain = std::make_shared<bool>(true);
  auto body = std::make_shared<std::function<void()>>();
  RefQueue* self = this;
  *body = [self, chain, period, fn = std::move(fn), body] {
    if (!*chain) return;
    fn();
    if (!*chain) return;
    self->schedule(self->now_ + period, [body] { (*body)(); });
  };
  schedule(first, [body] { (*body)(); });
  return RefHandle(chain);
}

// ---------------------------------------------------------------------------
// Timing helpers
// ---------------------------------------------------------------------------

double now_seconds() {
  // Benchmark harness: measures host wall time, not simulated time.
  using clock = std::chrono::steady_clock;  // lint:allow(wall-clock)
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct Result {
  double ns_per_op;
  std::uint64_t ops;
};

template <typename F>
Result time_workload(F&& body, std::uint64_t ops) {
  // One untimed warm-up pass, then best of three timed passes.
  body();
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_seconds();
    body();
    const double dt = now_seconds() - t0;
    best = std::min(best, dt);
  }
  return Result{best * 1e9 / static_cast<double>(ops), ops};
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Op counts at 100%; main() scales them by its ops_pct argument.
std::uint64_t g_steady_ops = 400000;
constexpr std::size_t kSteadyLive = 8192;
std::uint64_t g_periodic_fires = 400000;
constexpr std::size_t kTimerCount = 4096;
std::uint64_t g_timer_ops = 409600;
std::uint64_t g_burst_ops = 400000;
// Per-op clock step chosen so a timer armed u(0.5, 1.0) ahead is reset
// about 9 times before it would fire: ~90% of events are cancelled.
constexpr double kTimerDt = 0.75 / (9.0 * static_cast<double>(kTimerCount));

// (a) steady-state schedule + fire with a large live population.
Result steady_ref() {
  return time_workload(
      [] {
        RefQueue q;
        Rng rng(11);
        RefTime now = 0.0;
        std::uint64_t fired = 0;
        for (std::size_t i = 0; i < kSteadyLive; ++i) {
          q.schedule(rng.uniform(0.0, 1.0), [] {});
        }
        while (fired < g_steady_ops && q.run_next(&now)) {
          ++fired;
          if (fired + kSteadyLive <= g_steady_ops + kSteadyLive) {
            q.schedule(now + rng.uniform(0.001, 1.0), [] {});
          }
        }
      },
      g_steady_ops);
}

Result steady_new() {
  return time_workload(
      [] {
        coolstream::sim::EventQueue q;
        Rng rng(11);
        Time now{};
        std::uint64_t fired = 0;
        for (std::size_t i = 0; i < kSteadyLive; ++i) {
          q.schedule(Time(rng.uniform(0.0, 1.0)), [] {});
        }
        while (fired < g_steady_ops &&
               q.run_next([&now](Time t) { now = t; })) {
          ++fired;
          if (fired + kSteadyLive <= g_steady_ops + kSteadyLive) {
            q.schedule(now + Duration(rng.uniform(0.001, 1.0)), [] {});
          }
        }
      },
      g_steady_ops);
}

// (b) periodic protocol loops: 64 concurrent series.
Result periodic_ref() {
  return time_workload(
      [] {
        RefQueue q;
        std::uint64_t fires = 0;
        std::vector<RefHandle> handles;
        for (int i = 0; i < 64; ++i) {
          handles.push_back(q.schedule_every(
              0.01 * static_cast<double>(i + 1), 1.0, [&fires] { ++fires; }));
        }
        RefTime now = 0.0;
        while (fires < g_periodic_fires && q.run_next(&now)) {
        }
        for (auto& h : handles) h.cancel();
        while (q.run_next(&now)) {  // drain the cancelled tails
        }
      },
      g_periodic_fires);
}

Result periodic_new() {
  return time_workload(
      [] {
        coolstream::sim::EventQueue q;
        std::uint64_t fires = 0;
        std::vector<coolstream::sim::EventHandle> handles;
        for (int i = 0; i < 64; ++i) {
          handles.push_back(
              q.schedule_every(Time(0.01 * static_cast<double>(i + 1)),
                               Duration(1.0), [&fires] { ++fires; }));
        }
        while (fires < g_periodic_fires && q.run_next()) {
        }
        for (auto& h : handles) h.cancel();
        while (q.run_next()) {
        }
      },
      g_periodic_fires);
}

// (c) cancel-heavy churn: a standing window of timers, each reset (cancel +
// reschedule) ~9x for every fire.  In the seed engine the cancelled entries
// linger in the heap until their original deadline passes, so every heap
// operation pays for ~10x the live population; eager cancellation keeps the
// new engine's structures at the live size.
Result cancel_ref() {
  return time_workload(
      [] {
        RefQueue q;
        Rng rng(13);
        RefTime now = 0.0;
        std::vector<RefHandle> handles(kTimerCount);
        for (std::size_t i = 0; i < kTimerCount; ++i) {
          handles[i] = q.schedule(now + rng.uniform(0.5, 1.0), [] {});
        }
        RefTime fired_at = 0.0;
        for (std::uint64_t op = 0; op < g_timer_ops; ++op) {
          now += kTimerDt;
          while (!q.empty() && q.next_time() <= now) q.run_next(&fired_at);
          const auto i =
              static_cast<std::size_t>(
                  rng.uniform(0.0, static_cast<double>(kTimerCount))) %
              kTimerCount;
          handles[i].cancel();
          handles[i] = q.schedule(now + rng.uniform(0.5, 1.0), [] {});
        }
      },
      g_timer_ops);
}

Result cancel_new() {
  return time_workload(
      [] {
        coolstream::sim::EventQueue q;
        Rng rng(13);
        Time now{};
        std::vector<coolstream::sim::EventHandle> handles(kTimerCount);
        for (std::size_t i = 0; i < kTimerCount; ++i) {
          handles[i] = q.schedule(now + Duration(rng.uniform(0.5, 1.0)), [] {});
        }
        const auto on_fire = [](Time) {};
        for (std::uint64_t op = 0; op < g_timer_ops; ++op) {
          now += Duration(kTimerDt);
          while (!q.empty() && q.next_time() <= now) q.run_next(on_fire);
          const auto i =
              static_cast<std::size_t>(
                  rng.uniform(0.0, static_cast<double>(kTimerCount))) %
              kTimerCount;
          handles[i].cancel();
          handles[i] = q.schedule(now + Duration(rng.uniform(0.5, 1.0)), [] {});
        }
      },
      g_timer_ops);
}

// (d) tick_burst: replay of the flash_crash event-time profile, recorded
// by counting schedules, cancels and fires inside the event queue over the
// three untraced passes of `perfbench/run.py --workload flash_crash --seed
// 11 --seconds 10` (780 ticks, 3.27 M schedules, 3.21 M fires).  Quantiles
// are linearly interpolated into an inverse CDF.
constexpr std::array<double, 20> kQuantiles = {
    0,    0.01, 0.05, 0.1,  0.2,   0.3,  0.4,   0.5,   0.6,   0.7,
    0.8,  0.9,  0.95, 0.97, 0.98,  0.985, 0.99, 0.995, 0.999, 1};
// Events scheduled by one tick (the effect flush), per tick.
constexpr std::array<double, 20> kBurst = {
    2,    15,   111,  226,  464,  771,  1080, 1193, 1249, 1314,
    2636, 3181, 3881, 3997, 4023, 4033, 4101, 4136, 4178, 4178};
// Delay (s) from now of events scheduled by the tick: latency-window
// deliveries, then a ~2% tail of session and patience timers.
constexpr std::array<double, 20> kDelayInTick = {
    0.0061, 0.0188, 0.0284, 0.0358, 0.0472, 0.0579, 0.0694,
    0.0829, 0.0992, 0.1227, 0.1644, 0.3023, 0.4718, 0.5546,
    0.7915, 124.9,  290.2,  663.1,  2102.5, 50954.1};
// Delay (s) of events scheduled by events firing between ticks.
constexpr std::array<double, 20> kDelayBetween = {
    0.0050, 0.0131, 0.0275, 0.0354, 0.0473, 0.0584, 0.0700,
    0.0834, 0.1004, 0.1244, 0.1677, 0.3032, 0.4689, 0.5467,
    0.6504, 25.60,  48.15,  92.37,  134.9,  405.6};
// 2.13 M of the 3.21 M fires between ticks scheduled a follow-up; 25 065
// of the 3.27 M schedules were cancelled (the tick itself is the only
// periodic series of note: 0.05% of fires).
constexpr double kFollowUpShare = 0.6635;
constexpr double kCancelShare = 0.0077;
constexpr double kTickPeriod = 0.5;
constexpr std::size_t kRecentHandles = 4096;

double draw(Rng& rng, const std::array<double, 20>& table) {
  const double u = rng.uniform();
  std::size_t i = 1;
  while (i + 1 < kQuantiles.size() && kQuantiles[i] < u) ++i;
  const double f = (u - kQuantiles[i - 1]) / (kQuantiles[i] - kQuantiles[i - 1]);
  return table[i - 1] + f * (table[i] - table[i - 1]);
}

/// Drives one engine through the tick_burst profile.  Each event captures
/// its own fire time, so neither engine's clock API is needed.
template <typename Engine>
struct TickBurst {
  Engine& engine;
  Rng rng{17};
  std::vector<typename Engine::Handle> recent =
      std::vector<typename Engine::Handle>(kRecentHandles);
  std::size_t next_recent = 0;
  std::uint64_t fired = 0;
  std::uint64_t ticks = 0;

  void schedule(double at) {
    if (rng.chance(kCancelShare)) recent[rng.below(kRecentHandles)].cancel();
    recent[next_recent++ % kRecentHandles] =
        engine.at(at, [this, at] { deliver(at); });
  }
  void deliver(double now) {
    ++fired;
    if (rng.chance(kFollowUpShare)) schedule(now + draw(rng, kDelayBetween));
  }
  void tick() {
    const double now = kTickPeriod * static_cast<double>(++ticks);
    const auto n = static_cast<std::size_t>(draw(rng, kBurst));
    for (std::size_t i = 0; i < n; ++i) schedule(now + draw(rng, kDelayInTick));
  }
  void run() {
    auto series = engine.every(kTickPeriod, kTickPeriod, [this] { tick(); });
    while (fired < g_burst_ops && engine.step()) {
    }
    series.cancel();
  }
};

struct RefEngine {
  using Handle = RefHandle;
  template <typename F>
  Handle at(double t, F&& fn) {
    return q.schedule(t, std::forward<F>(fn));
  }
  template <typename F>
  Handle every(double first, double period, F&& fn) {
    return q.schedule_every(first, period, std::forward<F>(fn));
  }
  bool step() { return q.run_next(&now); }
  RefQueue q;
  RefTime now = 0.0;
};

struct SlabEngine {
  using Handle = coolstream::sim::EventHandle;
  template <typename F>
  Handle at(double t, F&& fn) {
    return q.schedule(Time(t), std::forward<F>(fn));
  }
  template <typename F>
  Handle every(double first, double period, F&& fn) {
    return q.schedule_every(Time(first), Duration(period),
                            std::forward<F>(fn));
  }
  bool step() { return q.run_next(); }
  coolstream::sim::EventQueue q;
};

template <typename Engine>
Result tick_burst() {
  return time_workload(
      [] {
        Engine engine;
        TickBurst<Engine>{engine}.run();
      },
      g_burst_ops);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    const double pct = std::strtod(argv[1], nullptr);
    if (!(pct > 0.0 && pct <= 1000.0)) {
      std::fprintf(stderr, "usage: bench_micro_event_queue [ops_pct in (0, 1000]]\n");
      return 2;
    }
    for (std::uint64_t* ops :
         {&g_steady_ops, &g_periodic_fires, &g_timer_ops, &g_burst_ops}) {
      *ops = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(static_cast<double>(*ops) * pct / 100.0));
    }
  }
  struct Row {
    const char* name;
    Result ref;
    Result engine;
  };

  std::printf("workload          ops      seed ns/op   slab ns/op   speedup\n");
  Row rows[] = {
      {"schedule_fire", steady_ref(), steady_new()},
      {"periodic", periodic_ref(), periodic_new()},
      {"cancel_heavy", cancel_ref(), cancel_new()},
      {"tick_burst", tick_burst<RefEngine>(), tick_burst<SlabEngine>()},
  };
  for (const Row& r : rows) {
    std::printf("%-14s %9llu   %10.1f   %10.1f   %6.2fx\n", r.name,
                static_cast<unsigned long long>(r.ref.ops), r.ref.ns_per_op,
                r.engine.ns_per_op, r.ref.ns_per_op / r.engine.ns_per_op);
  }

  std::FILE* out = std::fopen("BENCH_event_engine.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_event_engine.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"event_engine\",\n  \"workloads\": [\n");
  const int n = static_cast<int>(sizeof(rows) / sizeof(rows[0]));
  for (int i = 0; i < n; ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"ops\": %llu, "
                 "\"seed_engine_ns_per_op\": %.2f, "
                 "\"slab_engine_ns_per_op\": %.2f, "
                 "\"speedup\": %.2f}%s\n",
                 r.name, static_cast<unsigned long long>(r.ref.ops),
                 r.ref.ns_per_op, r.engine.ns_per_op,
                 r.ref.ns_per_op / r.engine.ns_per_op, i + 1 < n ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return 0;
}
