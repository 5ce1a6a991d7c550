// Typed client reports, as described in §V-A of the paper.
//
// "Reports from peers can be divided into two classes.  The first class is
// activity report, which indicates the peer activities such as join and
// leave. ... The second class is status report, which indicates the
// internal state of peers sent out every 5 minutes periodically."
//
// Status reports come in three types: QoS, traffic and partner reports.
// Each report serializes to / parses from a log string (logging/log_string.h)
// whose first field is "type=".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "logging/log_string.h"
#include "net/types.h"

namespace coolstream::logging {

/// Session-level client activities (§V-C lists the four session events).
enum class Activity : unsigned char {
  kJoin = 0,               ///< connected to the boot-strap server
  kStartSubscription = 1,  ///< partnerships formed, receiving video data
  kMediaPlayerReady = 2,   ///< enough data buffered, playback started
  kLeave = 3,              ///< left the system
};

std::string to_string(Activity a);
bool parse_activity(std::string_view text, Activity& out);

/// Identity fields common to every report.
struct ReportHeader {
  std::uint64_t user_id = 0;     ///< stable per user across retries
  std::uint64_t session_id = 0;  ///< unique per join
  double time = 0.0;             ///< client clock at emission (sim seconds)
};

/// Activity report: sent immediately when the activity happens.
struct ActivityReport {
  ReportHeader header;
  Activity activity = Activity::kJoin;
  /// Dotted-quad source address, reported on join so the pipeline can do
  /// the private/public classification of §V-B.
  std::string address;
  /// On leave: whether the peer ever had incoming / outgoing partners
  /// during the session (inputs to observed-type classification).
  bool had_incoming = false;
  bool had_outgoing = false;
};

/// QoS status report: "records the perceived quality of service, for
/// example, the percentage of video data missing at the playback deadline".
struct QosReport {
  ReportHeader header;
  /// Blocks whose playback deadline fell in the report interval.
  std::uint64_t blocks_due = 0;
  /// Of those, blocks that had arrived by their deadline.
  std::uint64_t blocks_on_time = 0;

  /// Continuity index over the interval; 1.0 when no block was due.
  double continuity() const noexcept {
    return blocks_due == 0
               ? 1.0
               : static_cast<double>(blocks_on_time) /
                     static_cast<double>(blocks_due);
  }
};

/// Traffic status report: bytes moved since the previous report.
struct TrafficReport {
  ReportHeader header;
  std::uint64_t bytes_down = 0;
  std::uint64_t bytes_up = 0;
};

/// One partner change inside a compact partner report.
struct PartnerChange {
  net::NodeId partner = net::kInvalidNode;
  bool added = false;     ///< true: partnership established, false: dropped
  bool incoming = false;  ///< true when the partner initiated the connection
};

/// Partner status report: "a compact report that records a series of
/// activities to reduce log server's load".
struct PartnerReport {
  ReportHeader header;
  std::vector<PartnerChange> changes;
  /// Current number of partners at emission time.
  std::uint32_t partner_count = 0;
};

/// Any report.
using Report =
    std::variant<ActivityReport, QosReport, TrafficReport, PartnerReport>;

/// Serializes a report to its log string.
std::string serialize(const Report& report);

/// Parses a log string into a typed report.  Returns nullopt when the line
/// is malformed or the type is unknown.
std::optional<Report> parse_report(std::string_view line);

}  // namespace coolstream::logging
