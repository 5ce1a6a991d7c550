#include "workload/churn.h"

#include <cmath>
#include <cstdint>
#include <sstream>

#include "sim/stream_tags.h"

namespace coolstream::workload {
namespace {

// Tags for the driver's private Rng streams, from the shared registry so
// the per-peer tag namespace provably never collides with them.
constexpr std::uint64_t kInjectorStream = sim::kFaultStreamTag;
constexpr std::uint64_t kChurnStream = sim::kChurnStreamTag;

}  // namespace

std::string ChurnSchedule::to_text() const {
  std::ostringstream out;
  out.precision(17);
  for (const ChurnBurst& b : bursts) {
    out << "burst " << b.at << ' ' << b.arrivals << ' ' << b.spread << '\n';
  }
  for (const MassDeparture& d : departures) {
    out << "mass " << d.at << ' ' << d.fraction << ' '
        << (d.crash ? "crash" : "leave") << '\n';
  }
  out << faults.to_text();
  return out.str();
}

std::optional<ChurnSchedule> ChurnSchedule::parse(const std::string& text) {
  ChurnSchedule s;
  std::string fault_lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string verb;
    if (!(ls >> verb)) continue;
    if (verb == "burst") {
      double at = 0.0;
      double spread = 0.0;
      // Signed, so "-5" fails the range check instead of wrapping to a
      // huge unsigned count.
      std::int64_t arrivals = 0;
      if (!(ls >> at >> arrivals >> spread) || at < 0.0 || arrivals < 1 ||
          spread < 0.0) {
        return std::nullopt;
      }
      s.bursts.push_back(ChurnBurst{units::Tick(at),
                                    static_cast<std::size_t>(arrivals),
                                    units::Duration(spread)});
    } else if (verb == "mass") {
      double at = 0.0;
      double fraction = 0.0;
      std::string mode;
      if (!(ls >> at >> fraction >> mode) || at < 0.0 || fraction < 0.0 ||
          fraction > 1.0 || (mode != "crash" && mode != "leave")) {
        return std::nullopt;
      }
      s.departures.push_back(
          MassDeparture{units::Tick(at), fraction, mode == "crash"});
    } else {
      fault_lines += line;
      fault_lines += '\n';
    }
  }
  auto faults = sim::FaultSchedule::parse(fault_lines);
  if (!faults) return std::nullopt;
  s.faults = std::move(*faults);
  return s;
}

ChurnDriver::ChurnDriver(ScenarioRunner& runner, ChurnSchedule schedule,
                         std::uint64_t seed)
    : runner_(runner),
      schedule_(std::move(schedule)),
      seed_(seed),
      injector_(sim::Rng(seed).stream(kInjectorStream).seed(),
                schedule_.faults),
      rng_(sim::Rng(seed).stream(kChurnStream)) {}

ChurnDriver::~ChurnDriver() {
  // The injector dies with the driver; never leave the system holding a
  // dangling pointer.
  if (armed_) runner_.system().attach_faults(nullptr);
}

void ChurnDriver::arm() {
  if (armed_) return;
  armed_ = true;
  core::System& sys = runner_.system();
  sys.attach_faults(&injector_);
  sim::Simulation& sim = sys.simulation();
  for (const ChurnBurst& b : schedule_.bursts) {
    for (std::size_t i = 0; i < b.arrivals; ++i) {
      const double spread = b.spread.value();
      const auto offset =
          units::Duration(spread > 0.0 ? rng_.uniform(0.0, spread) : 0.0);
      sim.at(b.at + offset, [this] {
        runner_.inject_arrival();
        ++counters_.burst_arrivals;
      });
    }
  }
  for (const MassDeparture& d : schedule_.departures) {
    sim.at(d.at, [this, d] { execute_mass(d); });
  }
}

void ChurnDriver::execute_mass(const MassDeparture& d) {
  core::System& sys = runner_.system();
  // live_nodes() is in deterministic (join/swap) order, so the sampled
  // departure set is a pure function of the driver seed.
  std::vector<net::NodeId> viewers;
  for (net::NodeId id : sys.live_nodes()) {
    if (sys.peer(id)->kind() == core::PeerKind::kViewer) {
      viewers.push_back(id);
    }
  }
  const auto count = static_cast<std::size_t>(
      std::floor(d.fraction * static_cast<double>(viewers.size())));
  if (count == 0) return;
  std::vector<std::size_t> picks;
  rng_.sample_indices_into(viewers.size(), count, picks);
  for (std::size_t i : picks) {
    sys.leave(viewers[i], /*graceful=*/!d.crash);
    ++counters_.departures;
    if (d.crash) ++counters_.crashes;
  }
}

}  // namespace coolstream::workload
