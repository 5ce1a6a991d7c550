// coolstream_logtool — offline analyzer for recorded broadcast logs.
//
// The paper's measurement workflow in one binary: the log server's file
// goes in, the figures' numbers come out.
//
//   coolstream_logtool summary    <log-file>
//   coolstream_logtool sessions   <log-file>          (CSV to stdout)
//   coolstream_logtool qos        <log-file>          (CSV to stdout)
//   coolstream_logtool continuity <log-file> [bucket-seconds]
//   coolstream_logtool types      <log-file>
//   coolstream_logtool retries    <log-file>
//
// Generate a log with examples/live_event_replay or any ScenarioRunner
// attached to a LogServer saved via LogServer::save().
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "analysis/continuity.h"
#include "analysis/csv.h"
#include "analysis/lorenz.h"
#include "analysis/session_analysis.h"
#include "analysis/table.h"
#include "bench_util.h"
#include "logging/log_server.h"
#include "logging/sessions.h"

namespace {

using namespace coolstream;

int usage() {
  std::cerr << "usage: coolstream_logtool "
               "{summary|sessions|qos|types|retries} <log-file>\n"
               "       coolstream_logtool continuity <log-file> "
               "[bucket-seconds]\n";
  return 2;
}

logging::SessionLog load(const std::string& path, std::size_t* lines,
                         std::size_t* malformed) {
  logging::LogServer server;
  if (!server.load(path)) {
    std::cerr << "cannot read " << path << '\n';
    std::exit(1);
  }
  if (lines != nullptr) *lines = server.size();
  const auto reports = server.parse_all(malformed);
  return logging::reconstruct_sessions(reports);
}

int cmd_summary(const std::string& path) {
  std::size_t lines = 0;
  std::size_t malformed = 0;
  const auto log = load(path, &lines, &malformed);
  std::size_t normal = 0;
  for (const auto& s : log.sessions) {
    if (s.is_normal()) ++normal;
  }
  const auto delays = analysis::startup_delays(log);
  const auto contrib = analysis::upload_contributions(log);
  const auto retries = analysis::retry_distribution(log);

  analysis::Table t({"metric", "value"});
  t.row({"log lines", std::to_string(lines)});
  t.row({"malformed lines", std::to_string(malformed)});
  t.row({"users", std::to_string(log.users.size())});
  t.row({"sessions", std::to_string(log.sessions.size())});
  t.row({"normal sessions", std::to_string(normal)});
  t.row({"avg continuity",
         analysis::pct(analysis::average_continuity(log), 2)});
  if (!delays.media_ready.empty()) {
    t.row({"ready p50/p90 (s)",
           analysis::fmt(delays.media_ready.quantile(0.5), 1) + " / " +
               analysis::fmt(delays.media_ready.quantile(0.9), 1)});
  }
  t.row({"sub-minute sessions",
         analysis::pct(analysis::short_session_fraction(log))});
  t.row({"upload Gini",
         analysis::fmt(analysis::gini(contrib.per_user_bytes), 3)});
  t.row({"top-30% upload share",
         analysis::pct(analysis::top_share(contrib.per_user_bytes, 0.3))});
  t.row({"users retrying", analysis::pct(retries.fraction_with_retries())});
  t.print(std::cout);
  return 0;
}

int cmd_continuity(const std::string& path, double bucket) {
  const auto log = load(path, nullptr, nullptr);
  const auto buckets = analysis::continuity_by_type_over_time(log, bucket);
  analysis::Table t(
      {"t (s)", "direct", "upnp", "nat", "firewall", "overall"});
  for (const auto& b : buckets) {
    bool any = false;
    for (auto d : b.due) any = any || d > 0;
    if (!any) continue;
    std::vector<std::string> cells = {analysis::fmt(b.start, 0)};
    for (int type = 0; type < net::kConnectionTypeCount; ++type) {
      const auto ct = static_cast<net::ConnectionType>(type);
      cells.push_back(b.due[static_cast<std::size_t>(type)] == 0
                          ? "-"
                          : analysis::pct(b.continuity(ct), 2));
    }
    cells.push_back(analysis::pct(b.overall(), 2));
    t.row(std::move(cells));
  }
  t.print(std::cout);
  return 0;
}

int cmd_types(const std::string& path) {
  const auto log = load(path, nullptr, nullptr);
  const auto dist = analysis::observed_type_distribution(log);
  const auto contrib = analysis::upload_contributions(log);
  analysis::Table t({"type", "users", "user share", "upload share"});
  for (int type = 0; type < net::kConnectionTypeCount; ++type) {
    const auto ct = static_cast<net::ConnectionType>(type);
    t.row({std::string(net::to_string(ct)),
           std::to_string(dist.counts[static_cast<std::size_t>(type)]),
           analysis::pct(dist.share(ct)),
           analysis::pct(contrib.type_share(ct))});
  }
  t.print(std::cout);
  return 0;
}

int cmd_retries(const std::string& path) {
  const auto log = load(path, nullptr, nullptr);
  const auto retries = analysis::retry_distribution(log);
  analysis::Table t({"retries before success", "users"});
  for (std::size_t r = 0; r < retries.users_by_retries.size(); ++r) {
    t.row({std::to_string(r), std::to_string(retries.users_by_retries[r])});
  }
  t.row({"never succeeded", std::to_string(retries.never_succeeded)});
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  if (cmd == "continuity") {
    // An optional bucket width in seconds, finite and > 0, with nothing
    // after the number.
    double bucket = 300.0;
    if (argc > 4 || (argc == 4 && !(bench::parse_whole(argv[3], bucket) &&
                                    std::isfinite(bucket) && bucket > 0.0))) {
      return usage();
    }
    return cmd_continuity(path, bucket);
  }
  if (argc > 3) return usage();
  if (cmd == "summary") return cmd_summary(path);
  if (cmd == "sessions") {
    analysis::write_sessions_csv(std::cout,
                                 load(path, nullptr, nullptr));
    return 0;
  }
  if (cmd == "qos") {
    analysis::write_qos_csv(std::cout, load(path, nullptr, nullptr));
    return 0;
  }
  if (cmd == "types") return cmd_types(path);
  if (cmd == "retries") return cmd_retries(path);
  return usage();
}
