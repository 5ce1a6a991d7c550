// Shared helpers for the figure-reproduction bench binaries.
//
// Every bench accepts:   [seed] [scale]
//   seed   uint64 RNG seed (default 2006927 — the broadcast date)
//   scale  population multiplier in percent (default 100; e.g. 200 doubles
//          every population target for a bigger, slower run)
// (anything else exits with status 2), and prints the Table-I parameter
// block followed by the figure's series, with a "paper expectation" note
// so shapes can be eyeballed.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/table.h"
#include "core/params.h"
#include "core/system.h"
#include "logging/log_server.h"
#include "logging/sessions.h"
#include "sim/simulation.h"
#include "workload/scenario.h"

namespace coolstream::bench {

struct BenchArgs {
  std::uint64_t seed = 2006927;
  double scale = 1.0;
};

/// True when all of `text` is one number of type T.
template <typename T>
bool parse_whole(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [rest, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && rest == end && rest != text;
}

/// Parses `[seed] [scale]` from argv[first..].  Anything else (a flag, a
/// trailing character, a third argument, a scale that is not a positive
/// percent) prints the usage line to stderr and exits with status 2.
inline BenchArgs parse_args(int argc, char** argv, int first = 1) {
  BenchArgs args;
  double pct = 100.0;
  const int given = argc - first;
  const bool ok =
      given <= 2 && (given < 1 || parse_whole(argv[first], args.seed)) &&
      (given < 2 || (parse_whole(argv[first + 1], pct) &&
                     std::isfinite(pct) && pct > 0.0));
  if (!ok) {
    std::cerr << "usage:";
    for (int i = 0; i < first; ++i) std::cerr << ' ' << argv[i];
    std::cerr << " [seed] [scale_pct]\n";
    std::exit(2);
  }
  args.scale = pct / 100.0;
  return args;
}

/// Scales a population target.
inline std::size_t scaled(std::size_t base, const BenchArgs& args) {
  const auto v = static_cast<std::size_t>(
      static_cast<double>(base) * args.scale);
  return v == 0 ? 1 : v;
}

inline void print_header(const std::string& title, const BenchArgs& args,
                         const core::Params& params) {
  std::cout << "=====================================================\n"
            << title << "\n"
            << "seed " << args.seed << ", scale "
            << analysis::pct(args.scale, 0) << "\n"
            << "=====================================================\n"
            << params.describe();
}

inline void paper_note(const std::string& note) {
  std::cout << "\n[paper] " << note << "\n";
}

/// Provisions dedicated servers the way the real deployment did: the 24
/// servers' 2.4 Gbps covered ~8% of the 40,000-user peak demand, with the
/// peers carrying the rest.  Scales the per-server capacity to the
/// scenario's population so the peer-to-server ratio stays paper-like at
/// any bench scale.
inline void peer_driven_servers(workload::Scenario& scenario,
                                std::size_t expected_users,
                                int server_count = 6) {
  scenario.system.server_count = server_count;
  const double total = 0.08 * static_cast<double>(expected_users) *
                       scenario.params.stream_rate_bps;
  scenario.system.server_capacity_bps =
      std::max(2.0 * scenario.params.stream_rate_bps,
               total / server_count);
  // Cap server partners at what the uplink can feed at full stream rate:
  // an oversubscribed server would starve the only peers that sit at the
  // live edge and let the whole overlay slide backwards in B-sized steps.
  scenario.system.server_max_partners = static_cast<int>(std::clamp(
      scenario.system.server_capacity_bps / scenario.params.stream_rate_bps,
      2.0, 60.0));
}

/// Ground-truth playback-latency census over the live viewers of a
/// system: how far behind the broadcast clock players actually are.
/// Continuity alone hides this (stalled/resynced stretches are not
/// charged), so benches report both.
struct LagStats {
  std::size_t playing = 0;
  double p50 = 0.0;
  double p90 = 0.0;
};

inline LagStats measure_playback_lag(core::System& system) {
  std::vector<double> lags;
  const core::Tick now = system.now();
  const auto j0 = core::SubstreamId(0);
  const auto live = core::global_of(j0, system.source_head(j0, now),
                                    system.params().substream_count);
  for (net::NodeId id = 0;; ++id) {
    const core::Peer* p = system.peer(id);
    if (p == nullptr) break;
    if (p->kind() != core::PeerKind::kViewer || !p->alive() ||
        p->phase() != core::PeerPhase::kPlaying) {
      continue;
    }
    // Lag census reports raw seconds behind the broadcast clock.
    lags.push_back(
        static_cast<double>(
            (live - p->playhead()).value()) /
        system.params().block_rate);
  }
  LagStats out;
  out.playing = lags.size();
  if (!lags.empty()) {
    std::sort(lags.begin(), lags.end());
    out.p50 = lags[lags.size() / 2];
    out.p90 = lags[static_cast<std::size_t>(
        static_cast<double>(lags.size() - 1) * 0.9)];
  }
  return out;
}

/// Runs a scenario to completion and reconstructs the log.
struct ScenarioResult {
  logging::SessionLog sessions;
  std::size_t log_lines = 0;
  std::uint64_t users = 0;
};

inline ScenarioResult run_and_reconstruct(workload::ScenarioRunner& runner,
                                          logging::LogServer& log) {
  runner.run();
  ScenarioResult out;
  out.log_lines = log.size();
  out.users = runner.users_created();
  out.sessions = logging::reconstruct_sessions(log.parse_all());
  return out;
}

}  // namespace coolstream::bench
