#include "workload/trace.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "workload/arrivals.h"

namespace coolstream::workload {
namespace {

std::string num(double v) {
  if (std::isinf(v)) return "inf";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

bool parse_double_field(const std::string& text, double& out) {
  if (text == "inf") {
    out = std::numeric_limits<double>::infinity();
    return true;
  }
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

/// Join times and upload capacities must be real, non-negative numbers.
bool finite_non_negative(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace

std::vector<TraceRow> generate_trace(const Scenario& scenario,
                                     std::uint64_t seed) {
  sim::Rng rng(seed);
  ArrivalProcess arrivals(scenario.arrivals, scenario.crowds);
  std::vector<TraceRow> rows;
  double t = 0.0;
  std::uint64_t user = 1;
  for (;;) {
    t = arrivals.next_arrival(t, scenario.end_time, rng);
    if (t > scenario.end_time) break;
    TraceRow row;
    row.join_time = t;
    row.user_id = user;
    const core::PeerSpec spec = scenario.users.make_spec(user, rng);
    row.type = spec.type;
    row.address = spec.address;
    // Trace rows are the CSV wire format: raw bps.
    row.upload_bps = spec.upload_capacity.value();
    row.duration_s = scenario.sessions.draw_duration(rng);
    row.patience_s = scenario.sessions.draw_patience(rng);
    rows.push_back(row);
    ++user;
  }
  return rows;
}

bool save_trace(const std::string& path, const std::vector<TraceRow>& rows) {
  std::ofstream out(path);
  if (!out) return false;
  out << "join_time,user_id,type,address,upload_bps,duration_s,patience_s\n";
  for (const auto& r : rows) {
    out << num(r.join_time) << ',' << r.user_id << ','
        << net::to_string(r.type) << ',' << r.address.to_string() << ','
        << num(r.upload_bps) << ',' << num(r.duration_s) << ','
        << num(r.patience_s) << '\n';
  }
  return static_cast<bool>(out);
}

std::optional<std::vector<TraceRow>> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;  // header
  std::vector<TraceRow> rows;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::size_t pos = 0;
    while (pos <= line.size()) {
      std::size_t comma = line.find(',', pos);
      if (comma == std::string::npos) comma = line.size();
      fields.push_back(line.substr(pos, comma - pos));
      if (comma == line.size()) break;
      pos = comma + 1;
    }
    if (fields.size() != 7) return std::nullopt;
    TraceRow row;
    std::uint64_t uid = 0;
    double upload = 0.0;
    if (!parse_double_field(fields[0], row.join_time) ||
        !finite_non_negative(row.join_time)) {
      return std::nullopt;
    }
    {
      auto [ptr, ec] = std::from_chars(
          fields[1].data(), fields[1].data() + fields[1].size(), uid);
      if (ec != std::errc{} || ptr != fields[1].data() + fields[1].size()) {
        return std::nullopt;
      }
    }
    row.user_id = uid;
    if (!net::parse_connection_type(fields[2], row.type)) return std::nullopt;
    if (!net::Ipv4Address::parse(fields[3], row.address)) return std::nullopt;
    if (!parse_double_field(fields[4], upload) ||
        !finite_non_negative(upload)) {
      return std::nullopt;
    }
    row.upload_bps = upload;
    // Infinite spans are legal: a viewer who stays to program end, or one
    // who never gives up on startup.  A negative patience would schedule
    // its timer in the past.
    if (!parse_double_field(fields[5], row.duration_s) ||
        !(row.duration_s >= 0.0)) {
      return std::nullopt;
    }
    if (!parse_double_field(fields[6], row.patience_s) ||
        !(row.patience_s >= 0.0)) {
      return std::nullopt;
    }
    rows.push_back(row);
  }
  return rows;
}

TraceRunner::TraceRunner(sim::Simulation& simulation, Scenario scenario,
                         std::vector<TraceRow> rows,
                         logging::LogServer* log)
    : sim_(simulation),
      scenario_(std::move(scenario)),
      rows_(std::move(rows)),
      system_(simulation, scenario_.params, scenario_.system, log) {
  scenario_.validate();
  system_.observer = [this](net::NodeId node, core::SessionEvent event) {
    on_event(node, event);
  };
}

void TraceRunner::run() {
  system_.start();
  schedule_next_row();
  sim_.run_until(sim::Time(scenario_.end_time));
}

void TraceRunner::schedule_next_row() {
  if (next_row_ >= rows_.size()) return;
  const TraceRow& row = rows_[next_row_];
  if (row.join_time > scenario_.end_time) return;
  sim_.at(std::max(sim::Time(row.join_time), sim_.now()), [this] {
    const TraceRow row_now = rows_[next_row_];
    ++next_row_;
    start_session(row_now, scenario_.sessions.max_retries);
    schedule_next_row();
  });
}

void TraceRunner::start_session(const TraceRow& row, int retries_left) {
  core::PeerSpec spec;
  spec.user_id = row.user_id;
  spec.kind = core::PeerKind::kViewer;
  spec.type = row.type;
  spec.address = row.address;
  spec.upload_capacity = units::BitRate(row.upload_bps);
  const net::NodeId node = system_.join(spec);
  SessionCtl ctl;
  ctl.row = row;
  ctl.retries_left = retries_left;
  ctl.patience = sim_.after(units::Duration(row.patience_s), [this, node] {
    auto it = active_.find(node);
    if (it == active_.end()) return;
    const core::Peer* p = system_.live_peer(node);
    if (p == nullptr || p->phase() == core::PeerPhase::kPlaying) return;
    const TraceRow row_copy = it->second.row;
    const int left = it->second.retries_left;
    system_.leave(node, /*graceful=*/true);
    if (left > 0 && sim_.rng().chance(scenario_.sessions.retry_prob)) {
      const auto delay =
          units::Duration(scenario_.sessions.draw_retry_delay(sim_.rng()));
      sim_.after(delay, [this, row_copy, left] {
        if (sim_.now() < sim::Time(scenario_.end_time)) {
          start_session(row_copy, left - 1);
        }
      });
    }
  });
  active_.emplace(node, std::move(ctl));
}

void TraceRunner::on_event(net::NodeId node, core::SessionEvent event) {
  auto it = active_.find(node);
  if (it == active_.end()) return;
  switch (event) {
    case core::SessionEvent::kMediaReady: {
      it->second.patience.cancel();
      // Trace durations are raw seconds (CSV boundary); convert once.
      double leave_at =
          sim_.now().value() +
          it->second.row.duration_s;
      if (std::isfinite(scenario_.program_end)) {
        leave_at = std::min(
            leave_at, scenario_.program_end +
                          std::abs(sim_.rng().normal(
                              0.0, scenario_.program_end_jitter)));
      }
      if (std::isfinite(leave_at)) {
        const bool crash =
            sim_.rng().chance(scenario_.sessions.crash_fraction);
        sim_.at(std::max(sim::Time(leave_at), sim_.now()),
                [this, node, crash] {
                  system_.leave(node, /*graceful=*/!crash);
                });
      }
      break;
    }
    case core::SessionEvent::kLeft:
      it->second.patience.cancel();
      active_.erase(it);
      break;
    case core::SessionEvent::kJoined:
    case core::SessionEvent::kStartSubscription:
      break;
  }
}

}  // namespace coolstream::workload
