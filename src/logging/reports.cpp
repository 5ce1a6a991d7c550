#include "logging/reports.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>

namespace coolstream::logging {
namespace {

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string format_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

bool parse_double(std::string_view text, double& out) {
  // std::from_chars for double is available in libstdc++ 11+.
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

void append_header(FieldList& fields, const ReportHeader& header) {
  fields.emplace_back("uid", format_u64(header.user_id));
  fields.emplace_back("sid", format_u64(header.session_id));
  fields.emplace_back("t", format_double(header.time));
}

bool read_header(const FieldList& fields, ReportHeader& header) {
  auto uid = find_field(fields, "uid");
  auto sid = find_field(fields, "sid");
  auto t = find_field(fields, "t");
  return uid && sid && t && parse_u64(*uid, header.user_id) &&
         parse_u64(*sid, header.session_id) && parse_double(*t, header.time);
}

/// Encodes a partner-change series as "id+i,id-o,...":
/// '+'/'-' for added/removed, 'i'/'o' for incoming/outgoing.
std::string encode_changes(const std::vector<PartnerChange>& changes) {
  std::string out;
  for (const auto& c : changes) {
    if (!out.empty()) out.push_back(',');
    out += format_u64(c.partner);
    out.push_back(c.added ? '+' : '-');
    out.push_back(c.incoming ? 'i' : 'o');
  }
  return out;
}

bool decode_changes(std::string_view text,
                    std::vector<PartnerChange>& out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view item = text.substr(pos, comma - pos);
    if (item.size() < 3) return false;
    const char dir = item[item.size() - 1];
    const char op = item[item.size() - 2];
    if ((dir != 'i' && dir != 'o') || (op != '+' && op != '-')) return false;
    std::uint64_t id = 0;
    if (!parse_u64(item.substr(0, item.size() - 2), id)) return false;
    out.push_back(PartnerChange{static_cast<net::NodeId>(id), op == '+',
                                dir == 'i'});
    pos = comma + 1;
  }
  return true;
}

}  // namespace

std::string to_string(Activity a) {
  switch (a) {
    case Activity::kJoin:
      return "join";
    case Activity::kStartSubscription:
      return "startsub";
    case Activity::kMediaPlayerReady:
      return "ready";
    case Activity::kLeave:
      return "leave";
  }
  return "unknown";
}

bool parse_activity(std::string_view text, Activity& out) {
  if (text == "join") {
    out = Activity::kJoin;
  } else if (text == "startsub") {
    out = Activity::kStartSubscription;
  } else if (text == "ready") {
    out = Activity::kMediaPlayerReady;
  } else if (text == "leave") {
    out = Activity::kLeave;
  } else {
    return false;
  }
  return true;
}

std::string serialize(const Report& report) {
  FieldList fields;
  std::visit(
      [&fields](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, ActivityReport>) {
          fields.emplace_back("type", "activity");
          append_header(fields, r.header);
          fields.emplace_back("ev", to_string(r.activity));
          if (!r.address.empty()) fields.emplace_back("ip", r.address);
          if (r.activity == Activity::kLeave) {
            fields.emplace_back("inc", r.had_incoming ? "1" : "0");
            fields.emplace_back("out", r.had_outgoing ? "1" : "0");
          }
        } else if constexpr (std::is_same_v<T, QosReport>) {
          fields.emplace_back("type", "qos");
          append_header(fields, r.header);
          fields.emplace_back("due", format_u64(r.blocks_due));
          fields.emplace_back("ontime", format_u64(r.blocks_on_time));
        } else if constexpr (std::is_same_v<T, TrafficReport>) {
          fields.emplace_back("type", "traffic");
          append_header(fields, r.header);
          fields.emplace_back("down", format_u64(r.bytes_down));
          fields.emplace_back("up", format_u64(r.bytes_up));
        } else if constexpr (std::is_same_v<T, PartnerReport>) {
          fields.emplace_back("type", "partner");
          append_header(fields, r.header);
          fields.emplace_back("n", format_u64(r.partner_count));
          fields.emplace_back("chg", encode_changes(r.changes));
        }
      },
      report);
  return encode_fields(fields);
}

std::optional<Report> parse_report(std::string_view line) {
  auto fields = decode_fields(line);
  if (!fields) return std::nullopt;
  auto type = find_field(*fields, "type");
  if (!type) return std::nullopt;

  ReportHeader header;
  if (!read_header(*fields, header)) return std::nullopt;

  if (*type == "activity") {
    ActivityReport r;
    r.header = header;
    auto ev = find_field(*fields, "ev");
    if (!ev || !parse_activity(*ev, r.activity)) return std::nullopt;
    if (auto ip = find_field(*fields, "ip")) r.address = std::string(*ip);
    if (auto inc = find_field(*fields, "inc")) r.had_incoming = (*inc == "1");
    if (auto out = find_field(*fields, "out")) r.had_outgoing = (*out == "1");
    return Report(r);
  }
  if (*type == "qos") {
    QosReport r;
    r.header = header;
    auto due = find_field(*fields, "due");
    auto ontime = find_field(*fields, "ontime");
    if (!due || !ontime || !parse_u64(*due, r.blocks_due) ||
        !parse_u64(*ontime, r.blocks_on_time)) {
      return std::nullopt;
    }
    return Report(r);
  }
  if (*type == "traffic") {
    TrafficReport r;
    r.header = header;
    auto down = find_field(*fields, "down");
    auto up = find_field(*fields, "up");
    if (!down || !up || !parse_u64(*down, r.bytes_down) ||
        !parse_u64(*up, r.bytes_up)) {
      return std::nullopt;
    }
    return Report(r);
  }
  if (*type == "partner") {
    PartnerReport r;
    r.header = header;
    auto n = find_field(*fields, "n");
    std::uint64_t count = 0;
    if (!n || !parse_u64(*n, count)) return std::nullopt;
    r.partner_count = static_cast<std::uint32_t>(count);
    if (auto chg = find_field(*fields, "chg")) {
      if (!decode_changes(*chg, r.changes)) return std::nullopt;
    }
    return Report(r);
  }
  return std::nullopt;
}

}  // namespace coolstream::logging
