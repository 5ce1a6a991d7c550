// Protocol hot-path trajectory bench.
//
// Two layers:
//   macro  — a full steady-state broadcast (default 2000 concurrent
//            viewers) timed over a post-warm-up window, reporting
//            ns/peer-tick and heap allocations/peer-tick.  A peer-tick is
//            one live node serviced by one System::tick.  Allocations are
//            split into those inside System::tick and those between ticks
//            (event dispatch: joins, leaves, deliveries, reports) by probe
//            events just before and right after every tick instant.  It
//            also reports the heap held at the end of the window per live
//            node (everything the run keeps: departed peers, event queue,
//            log lines), in malloc_usable_size bytes.
//   micro  — head-to-head loops over the control-plane primitives the
//            macro path is made of (BM broadcast, adaptation scan,
//            wire-size accounting), comparing the current implementation
//            against an in-file replica of the seed's vector-backed
//            BufferMap.
//
// Results go to BENCH_protocol_hotpath.json in the working directory;
// tools/bench_record.sh appends them to the checked-in trajectory file.
//
// Usage: bench_protocol_hotpath [seed] [scale_pct] [micro_pct]
//   scale_pct  scales the 2000-viewer macro population (10 = smoke run)
//   micro_pct  scales micro-bench iteration counts (10 = smoke run)
//
// This binary replaces global operator new/delete with counting versions
// so allocations/peer-tick and live heap bytes are measured, not estimated.
// Both are functions of the seed and scale alone (for a given C library),
// which is what lets CI gate them.
#include <algorithm>
#include <bit>
#include <chrono>  // bench wall-time measurement only
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include <malloc.h>  // malloc_usable_size

#include "bench_util.h"
#include "core/buffer_map.h"
#include "core/params.h"
#include "core/stream_types.h"
#include "logging/log_server.h"
#include "net/types.h"
#include "sim/simulation.h"
#include "workload/scenario.h"

namespace {

std::uint64_t g_allocations = 0;
/// Usable bytes of every block operator new handed out and not yet freed.
std::uint64_t g_live_heap_bytes = 0;

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  ++g_allocations;
  g_live_heap_bytes += malloc_usable_size(p);
  return p;
}

void* counted_alloc(std::size_t size) { return counted(std::malloc(size)); }

void* counted_alloc(std::size_t size, std::align_val_t align) {
  return counted(std::aligned_alloc(
      static_cast<std::size_t>(align),
      (size + static_cast<std::size_t>(align) - 1) &
          ~(static_cast<std::size_t>(align) - 1)));
}

void counted_free(void* p) noexcept {
  g_live_heap_bytes -= malloc_usable_size(p);  // 0 for nullptr
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace coolstream::bench {
namespace {

using Clock = std::chrono::steady_clock;  // lint:allow(wall-clock)

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

// ---------------------------------------------------------------------------
// Macro: full scenario, steady-state window
// ---------------------------------------------------------------------------

// Offset of the pre-tick probe before each tick instant, simulated s.
constexpr double kProbeLead = 1e-6;

struct MacroResult {
  std::size_t target_peers = 0;
  double window_s = 0.0;
  std::uint64_t peer_ticks = 0;
  double ns_per_peer_tick = 0.0;
  double allocs_per_peer_tick = 0.0;
  double tick_allocs_per_peer_tick = 0.0;     ///< inside System::tick
  double between_allocs_per_peer_tick = 0.0;  ///< the rest of the window
  double heap_bytes_per_live_peer = 0.0;      ///< at the end of the window
};

MacroResult run_macro(std::uint64_t seed, std::size_t target_peers,
                      double warm_s, double end_s) {
  sim::Simulation simulation(seed);
  logging::LogServer log;
  workload::Scenario scenario =
      workload::Scenario::steady(target_peers, units::Duration(end_s));
  scenario.end_time = end_s;
  peer_driven_servers(scenario, target_peers);
  workload::ScenarioRunner runner(simulation, scenario, &log);

  // Count peer-ticks alongside the System's own flow tick.
  std::uint64_t peer_ticks = 0;
  bool counting = false;
  const double dt = scenario.params.flow_tick;
  simulation.every(sim::Duration(dt), sim::Duration(dt), [&] {
    if (counting) peer_ticks += runner.system().live_nodes().size();
  });
  // Allocation split: the pre-tick probe marks the counter; the post-tick
  // probe, scheduled once the System has started (so it runs right after
  // the tick of the same instant), charges the difference to the tick.
  std::uint64_t tick_mark = 0;
  std::uint64_t tick_allocs = 0;
  simulation.every(sim::Duration(dt - kProbeLead), sim::Duration(dt),
                   [&] { tick_mark = g_allocations; });
  runner.run_until(0.0);  // starts the System and its periodic tick
  simulation.every(sim::Duration(dt), sim::Duration(dt), [&] {
    if (counting) tick_allocs += g_allocations - tick_mark;
  });

  runner.run_until(warm_s);  // joins, ramp-up, slab/vector capacity warm-up
  counting = true;
  const std::uint64_t allocs0 = g_allocations;
  const Clock::time_point t0 = Clock::now();
  runner.run_until(end_s);
  const double wall_ns = ns_since(t0);
  const std::uint64_t allocs = g_allocations - allocs0;
  const std::size_t live_peers = runner.system().live_nodes().size();

  MacroResult r;
  if (live_peers > 0) {
    r.heap_bytes_per_live_peer = static_cast<double>(g_live_heap_bytes) /
                                 static_cast<double>(live_peers);
  }
  r.target_peers = target_peers;
  r.window_s = end_s - warm_s;
  r.peer_ticks = peer_ticks;
  if (peer_ticks > 0) {
    r.ns_per_peer_tick = wall_ns / static_cast<double>(peer_ticks);
    r.allocs_per_peer_tick =
        static_cast<double>(allocs) / static_cast<double>(peer_ticks);
    r.tick_allocs_per_peer_tick =
        static_cast<double>(tick_allocs) / static_cast<double>(peer_ticks);
    r.between_allocs_per_peer_tick =
        static_cast<double>(allocs - tick_allocs) /
        static_cast<double>(peer_ticks);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Micro: control-plane primitives, packed vs seed-style reference
// ---------------------------------------------------------------------------

// In-file replica of the seed's vector-backed BufferMap: one heap vector
// per half of the 2K-tuple, sized at construction.  Kept minimal — just
// enough surface for the loops below to mirror the seed's hot paths.
class RefBufferMap {
 public:
  RefBufferMap() = default;
  explicit RefBufferMap(int k)
      : latest_(static_cast<std::size_t>(k), core::kNoSeq),
        subscribed_(static_cast<std::size_t>(k), false) {}

  core::SeqNum max_latest() const noexcept {
    core::SeqNum best = core::kNoSeq;
    for (const core::SeqNum v : latest_) best = std::max(best, v);
    return best;
  }

  std::vector<core::SeqNum> latest_;
  std::vector<bool> subscribed_;
};

/// Replica of the seed's per-partner record, as the adaptation scan saw it.
struct RefPartnerState {
  net::NodeId id = net::kInvalidNode;
  RefBufferMap bm;
  std::optional<core::Tick> bm_time;
};

struct MicroResult {
  const char* name = "";
  std::uint64_t iterations = 0;
  double ref_ns_per_op = 0.0;
  double new_ns_per_op = 0.0;
  double speedup = 0.0;
  double ref_allocs_per_op = 0.0;
  double new_allocs_per_op = 0.0;
};

// Fixture shared by the micro loops: K sub-streams, P partners, one
// parent assignment, plausibly-skewed head positions.  The seed side
// mirrors the seed's data layout (vector-backed heads and BMs, partner
// records found by linear scan); the packed side mirrors the current one.
struct MicroFixture {
  static constexpr int kSubstreams = 4;
  static constexpr std::size_t kPartners = 5;

  core::SeqNum heads[kSubstreams];
  net::NodeId parents[kSubstreams];
  net::NodeId partner_ids[kPartners];
  core::BufferMap own;
  core::BufferMap partner_bms[kPartners];
  bool partner_has_bm[kPartners];
  std::vector<core::SeqNum> ref_heads;  ///< the seed's SyncBuffer heads
  RefBufferMap ref_own;
  std::vector<RefPartnerState> ref_partners;

  MicroFixture() : own(kSubstreams), ref_own(kSubstreams) {
    ref_heads.assign(kSubstreams, core::kNoSeq);
    for (int j = 0; j < kSubstreams; ++j) {
      heads[j] = core::SeqNum(5000 + 7 * j);
      // Lane 3's parent just left (not in the partner set): the orphaned
      // lane every churn step produces somewhere in the overlay.
      parents[j] = j == 3 ? net::NodeId(99)
                          : net::NodeId(static_cast<std::uint32_t>(j + 1));
      own.set_latest(core::SubstreamId(j), heads[j]);
      ref_heads[static_cast<std::size_t>(j)] = heads[j];
      ref_own.latest_[static_cast<std::size_t>(j)] = heads[j];
    }
    ref_partners.resize(kPartners);
    for (std::size_t p = 0; p < kPartners; ++p) {
      partner_ids[p] = net::NodeId(static_cast<std::uint32_t>(p + 1));
      partner_bms[p] = core::BufferMap(kSubstreams);
      partner_has_bm[p] = true;
      ref_partners[p].id = partner_ids[p];
      ref_partners[p].bm = RefBufferMap(kSubstreams);
      ref_partners[p].bm_time = core::Tick{};
      for (int j = 0; j < kSubstreams; ++j) {
        // Partners run a little ahead, one lane per partner well ahead.
        const core::SeqNum v =
            heads[j] + core::BlockCount(static_cast<std::int64_t>(
                           3 + p + (static_cast<std::size_t>(j) == p % 4
                                        ? 40
                                        : 0)));
        partner_bms[p].set_latest(core::SubstreamId(j), v);
        ref_partners[p].bm.latest_[static_cast<std::size_t>(j)] = v;
      }
    }
  }
};

template <typename Fn>
double time_loop(std::uint64_t iterations, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) fn();
  return ns_since(t0) / static_cast<double>(iterations);
}

// BM broadcast: build the node's current map from the sync-buffer heads,
// then per partner the subscription word and the receiver's copy — the
// body of the periodic BM exchange (System::broadcast_bm plus its flush).
MicroResult micro_bm_broadcast(const MicroFixture& fx, std::uint64_t iters) {
  MicroResult r;
  r.name = "bm_broadcast";
  r.iterations = iters;
  std::uint64_t sink = 0;

  std::uint64_t a0 = g_allocations;
  r.ref_ns_per_op = time_loop(iters, [&] {
    RefBufferMap base(MicroFixture::kSubstreams);
    for (int j = 0; j < MicroFixture::kSubstreams; ++j) {
      base.latest_[static_cast<std::size_t>(j)] = fx.heads[j];
    }
    for (std::size_t p = 0; p < MicroFixture::kPartners; ++p) {
      RefBufferMap bm = base;
      for (int j = 0; j < MicroFixture::kSubstreams; ++j) {
        bm.subscribed_[static_cast<std::size_t>(j)] =
            fx.parents[j] == fx.partner_ids[p];
      }
      sink += static_cast<std::uint64_t>(
          bm.latest_[0].value());
    }
  });
  r.ref_allocs_per_op = static_cast<double>(g_allocations - a0) /
                        static_cast<double>(iters);

  a0 = g_allocations;
  r.new_ns_per_op = time_loop(iters, [&] {
    core::BufferMap base(MicroFixture::kSubstreams);
    for (int j = 0; j < MicroFixture::kSubstreams; ++j) {
      base.set_latest(core::SubstreamId(j), fx.heads[j]);
    }
    for (std::size_t p = 0; p < MicroFixture::kPartners; ++p) {
      std::uint32_t bits = 0;
      for (int j = 0; j < MicroFixture::kSubstreams; ++j) {
        bits |= static_cast<std::uint32_t>(fx.parents[j] == fx.partner_ids[p])
                << j;
      }
      core::BufferMap bm = base;
      bm.set_subscription_bits(bits);
      sink += static_cast<std::uint64_t>(
          bm.latest(core::SubstreamId(0)).value());
    }
  });
  r.new_allocs_per_op = static_cast<double>(g_allocations - a0) /
                        static_cast<double>(iters);

  if (sink == 0) std::printf("(impossible)\n");  // defeat dead-code elim
  r.speedup = r.ref_ns_per_op / r.new_ns_per_op;
  return r;
}

// Adaptation scan: evaluate Ineq. (1)/(2) for every sub-stream against the
// partner set and produce the reselect set.  The ref side transcribes the
// seed's run_adaptation body (per-lane branches, two find_partner scans
// per lane, vector-backed heads and BMs, the per-call to_fix vector); the
// new side transcribes the current batched mask scan.
MicroResult micro_adaptation_scan(const MicroFixture& fx,
                                  std::uint64_t iters) {
  MicroResult r;
  r.name = "adaptation_scan";
  r.iterations = iters;
  const core::BlockCount ts(30);
  const core::BlockCount tp(20);
  std::uint64_t sink = 0;

  std::uint64_t a0 = g_allocations;
  r.ref_ns_per_op = time_loop(iters, [&] {
    core::SeqNum own_max = core::kNoSeq;
    for (const core::SeqNum h : fx.ref_heads) own_max = std::max(own_max, h);
    core::SeqNum partner_max = core::kNoSeq;
    for (const RefPartnerState& ps : fx.ref_partners) {
      if (ps.bm_time) partner_max = std::max(partner_max, ps.bm.max_latest());
    }
    bool gated_work = false;
    std::vector<core::SubstreamId> to_fix;
    for (int j = 0; j < MicroFixture::kSubstreams; ++j) {
      const net::NodeId parent = fx.parents[j];
      // find_partner: linear scan, called twice per lane as the seed did.
      const RefPartnerState* found = nullptr;
      for (const RefPartnerState& cand : fx.ref_partners) {
        if (cand.id == parent) {
          found = &cand;
          break;
        }
      }
      if (parent == net::kInvalidNode || found == nullptr) {
        to_fix.push_back(core::SubstreamId(j));  // orphaned
        continue;
      }
      const RefPartnerState* ps = nullptr;
      for (const RefPartnerState& cand : fx.ref_partners) {
        if (cand.id == parent) {
          ps = &cand;
          break;
        }
      }
      const std::size_t sj = static_cast<std::size_t>(j);
      const bool ineq1_spread = own_max - fx.ref_heads[sj] >= ts;
      const bool ineq1_parent_lag =
          ps->bm_time && ps->bm.latest_[sj] - fx.ref_heads[sj] >= ts;
      const bool ineq2 =
          ps->bm_time && partner_max - ps->bm.latest_[sj] >= tp;
      if (ineq1_spread || ineq1_parent_lag || ineq2) {
        to_fix.push_back(core::SubstreamId(j));  // cool-down assumed open
        gated_work = true;
      }
    }
    sink += to_fix.size() + static_cast<std::uint64_t>(gated_work);
  });
  r.ref_allocs_per_op = static_cast<double>(g_allocations - a0) /
                        static_cast<double>(iters);

  a0 = g_allocations;
  r.new_ns_per_op = time_loop(iters, [&] {
    const core::BufferMap& own = fx.own;  // refreshed_bm(): a cache hit
    const core::SeqNum own_max = own.max_latest();
    core::SeqNum partner_max = core::kNoSeq;
    for (std::size_t p = 0; p < MicroFixture::kPartners; ++p) {
      if (fx.partner_has_bm[p]) {
        partner_max = std::max(partner_max, fx.partner_bms[p].max_latest());
      }
    }
    const std::uint32_t spread_mask = own.lag_mask(own_max, ts);
    std::uint32_t orphaned = 0;
    std::uint32_t violated = 0;
    for (int j = 0; j < MicroFixture::kSubstreams; ++j) {
      const std::uint32_t bit = 1u << j;
      const net::NodeId parent = fx.parents[j];
      const core::BufferMap* bm = nullptr;
      bool has_bm = false;
      for (std::size_t p = 0; p < MicroFixture::kPartners; ++p) {
        if (fx.partner_ids[p] == parent) {
          bm = &fx.partner_bms[p];
          has_bm = fx.partner_has_bm[p];
          break;
        }
      }
      if (bm == nullptr) {
        orphaned |= bit;
        continue;
      }
      bool trip = (spread_mask & bit) != 0;
      if (has_bm) {
        const core::SeqNum latest = bm->latest(core::SubstreamId(j));
        trip = trip || latest - own.latest(core::SubstreamId(j)) >= ts;
        trip = trip || partner_max - latest >= tp;
      }
      if (trip) violated |= bit;
    }
    const bool gated_work = violated != 0;  // cool-down assumed open
    const std::uint32_t to_fix = orphaned | violated;
    sink += static_cast<std::uint64_t>(std::popcount(to_fix)) +
            static_cast<std::uint64_t>(gated_work);
  });
  r.new_allocs_per_op = static_cast<double>(g_allocations - a0) /
                        static_cast<double>(iters);

  if (sink == 0) std::printf("(impossible)\n");
  r.speedup = r.ref_ns_per_op / r.new_ns_per_op;
  return r;
}

// Wire-size accounting: the seed rendered the full encode() string just to
// take its length; the packed map computes the byte count arithmetically.
MicroResult micro_wire_size(const MicroFixture& fx, std::uint64_t iters) {
  MicroResult r;
  r.name = "wire_size";
  r.iterations = iters;
  std::uint64_t sink = 0;

  std::uint64_t a0 = g_allocations;
  r.ref_ns_per_op = time_loop(iters, [&] {
    sink += fx.own.encode().size();
  });
  r.ref_allocs_per_op = static_cast<double>(g_allocations - a0) /
                        static_cast<double>(iters);

  a0 = g_allocations;
  r.new_ns_per_op = time_loop(iters, [&] { sink += fx.own.wire_size(); });
  r.new_allocs_per_op = static_cast<double>(g_allocations - a0) /
                        static_cast<double>(iters);

  if (sink == 0) std::printf("(impossible)\n");
  r.speedup = r.ref_ns_per_op / r.new_ns_per_op;
  return r;
}

// Need-set: "blocks I need that you have" — which of a partner's lanes are
// strictly ahead of ours.  The seed idiom materializes the lane list in a
// fresh vector; the packed map answers with one need_mask() word.
MicroResult micro_need_set(const MicroFixture& fx, std::uint64_t iters) {
  MicroResult r;
  r.name = "need_set";
  r.iterations = iters;
  std::uint64_t sink = 0;

  std::uint64_t a0 = g_allocations;
  r.ref_ns_per_op = time_loop(iters, [&] {
    for (const RefPartnerState& ps : fx.ref_partners) {
      std::vector<core::SubstreamId> need;
      for (int j = 0; j < MicroFixture::kSubstreams; ++j) {
        const std::size_t sj = static_cast<std::size_t>(j);
        if (ps.bm.latest_[sj] > fx.ref_own.latest_[sj]) {
          need.push_back(core::SubstreamId(j));
        }
      }
      sink += need.size();
    }
  });
  r.ref_allocs_per_op = static_cast<double>(g_allocations - a0) /
                        static_cast<double>(iters);

  a0 = g_allocations;
  r.new_ns_per_op = time_loop(iters, [&] {
    for (std::size_t p = 0; p < MicroFixture::kPartners; ++p) {
      sink += static_cast<std::uint64_t>(
          std::popcount(fx.partner_bms[p].need_mask(fx.own)));
    }
  });
  r.new_allocs_per_op = static_cast<double>(g_allocations - a0) /
                        static_cast<double>(iters);

  if (sink == 0) std::printf("(impossible)\n");
  r.speedup = r.ref_ns_per_op / r.new_ns_per_op;
  return r;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

void write_json(const MacroResult& macro,
                const std::vector<MicroResult>& micros) {
  std::FILE* f = std::fopen("BENCH_protocol_hotpath.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"protocol_hotpath\",\n");
  std::fprintf(f,
               "  \"macro\": {\"peers\": %zu, \"window_s\": %.0f, "
               "\"peer_ticks\": %llu, \"ns_per_peer_tick\": %.1f, "
               "\"allocs_per_peer_tick\": %.3f, "
               "\"tick_allocs_per_peer_tick\": %.3f, "
               "\"between_allocs_per_peer_tick\": %.3f, "
               "\"heap_bytes_per_live_peer\": %.0f},\n",
               macro.target_peers, macro.window_s,
               static_cast<unsigned long long>(macro.peer_ticks),
               macro.ns_per_peer_tick, macro.allocs_per_peer_tick,
               macro.tick_allocs_per_peer_tick,
               macro.between_allocs_per_peer_tick,
               macro.heap_bytes_per_live_peer);
  std::fprintf(f, "  \"micro\": [\n");
  for (std::size_t i = 0; i < micros.size(); ++i) {
    const MicroResult& m = micros[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"iterations\": %llu, "
                 "\"ref_ns_per_op\": %.2f, \"new_ns_per_op\": %.2f, "
                 "\"speedup\": %.2f, \"ref_allocs_per_op\": %.3f, "
                 "\"new_allocs_per_op\": %.3f}%s\n",
                 m.name, static_cast<unsigned long long>(m.iterations),
                 m.ref_ns_per_op, m.new_ns_per_op, m.speedup,
                 m.ref_allocs_per_op, m.new_allocs_per_op,
                 i + 1 < micros.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int run(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  const std::size_t peers = scaled(2000, args);
  double micro_scale = 1.0;
  if (argc > 3) {
    micro_scale = std::strtod(argv[3], nullptr) / 100.0;
    if (micro_scale <= 0.0) micro_scale = 1.0;
  }
  const auto micro_iters = [micro_scale](std::uint64_t base) {
    const auto v = static_cast<std::uint64_t>(
        static_cast<double>(base) * micro_scale);
    return v == 0 ? 1 : v;
  };
  // steady() sessions have ~10 min mean duration; the Little's-law
  // population needs ~3 means to converge, so measure 900..1500s.
  const double warm_s = 900.0;
  const double end_s = 1500.0;

  std::printf("protocol_hotpath: macro %zu peers, window %.0f..%.0fs\n", peers,
              warm_s, end_s);
  const MacroResult macro = run_macro(args.seed, peers, warm_s, end_s);
  std::printf("macro: %llu peer-ticks, %.1f ns/peer-tick, %.3f allocs/peer-tick "
              "(tick %.3f, between ticks %.3f), %.0f heap bytes/live peer\n",
              static_cast<unsigned long long>(macro.peer_ticks),
              macro.ns_per_peer_tick, macro.allocs_per_peer_tick,
              macro.tick_allocs_per_peer_tick,
              macro.between_allocs_per_peer_tick,
              macro.heap_bytes_per_live_peer);

  const MicroFixture fx;
  std::vector<MicroResult> micros;
  micros.push_back(micro_bm_broadcast(fx, micro_iters(2'000'000)));
  micros.push_back(micro_adaptation_scan(fx, micro_iters(2'000'000)));
  micros.push_back(micro_wire_size(fx, micro_iters(4'000'000)));
  micros.push_back(micro_need_set(fx, micro_iters(4'000'000)));
  for (const MicroResult& m : micros) {
    std::printf(
        "micro %-16s ref %8.2f ns/op (%.2f allocs)  new %8.2f ns/op "
        "(%.2f allocs)  speedup %.2fx\n",
        m.name, m.ref_ns_per_op, m.ref_allocs_per_op, m.new_ns_per_op,
        m.new_allocs_per_op, m.speedup);
  }
  write_json(macro, micros);
  return 0;
}

}  // namespace
}  // namespace coolstream::bench

int main(int argc, char** argv) { return coolstream::bench::run(argc, argv); }
