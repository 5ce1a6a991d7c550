#include "sim/fault_injector.h"

#include <algorithm>
#include <sstream>

namespace coolstream::sim {
namespace {

bool matches(FaultNode entry, FaultNode from, FaultNode to) noexcept {
  return entry == kFaultAnyNode || entry == from || entry == to;
}

void put_node(std::ostream& os, FaultNode node) {
  if (node == kFaultAnyNode) {
    os << '*';
  } else {
    os << node;
  }
}

bool get_node(std::istream& is, FaultNode& out) {
  std::string tok;
  if (!(is >> tok)) return false;
  if (tok == "*") {
    out = kFaultAnyNode;
    return true;
  }
  try {
    std::size_t used = 0;
    const unsigned long v = std::stoul(tok, &used);
    if (used != tok.size() || v > 0xffffffffUL) return false;
    out = static_cast<FaultNode>(v);
    return true;
  } catch (...) {
    return false;
  }
}

bool get_window(std::istream& is, FaultWindow& w) {
  double start = 0.0;
  double end = 0.0;
  if (!(is >> start >> end)) return false;
  if (!(end >= start) || start < 0.0) return false;
  w.start = units::Tick(start);
  w.end = units::Tick(end);
  return true;
}

bool probability(double p) noexcept { return p >= 0.0 && p <= 1.0; }

}  // namespace

std::string FaultSchedule::to_text() const {
  std::ostringstream out;
  out.precision(17);
  for (const MessageFault& m : messages) {
    out << "msg " << m.window.start << ' ' << m.window.end << ' ';
    put_node(out, m.node);
    out << ' ' << m.drop << ' ' << m.dup << ' ' << m.jitter << ' '
        << m.max_jitter << '\n';
  }
  for (const CapacityFault& c : capacities) {
    out << "cap " << c.window.start << ' ' << c.window.end << ' ';
    put_node(out, c.node);
    out << ' ' << c.factor << '\n';
  }
  for (const FlapFault& f : flaps) {
    out << "flap " << f.window.start << ' ' << f.window.end << ' ';
    put_node(out, f.node);
    out << '\n';
  }
  return out.str();
}

std::optional<FaultSchedule> FaultSchedule::parse(const std::string& text) {
  FaultSchedule s;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string verb;
    if (!(ls >> verb)) continue;
    if (verb == "msg") {
      MessageFault m;
      double max_jitter = 0.0;
      if (!get_window(ls, m.window) || !get_node(ls, m.node) ||
          !(ls >> m.drop >> m.dup >> m.jitter >> max_jitter)) {
        return std::nullopt;
      }
      if (!probability(m.drop) || !probability(m.dup) ||
          !probability(m.jitter) || max_jitter < 0.0) {
        return std::nullopt;
      }
      m.max_jitter = units::Duration(max_jitter);
      s.messages.push_back(m);
    } else if (verb == "cap") {
      CapacityFault c;
      if (!get_window(ls, c.window) || !get_node(ls, c.node) ||
          !(ls >> c.factor) || c.factor < 0.0) {
        return std::nullopt;
      }
      s.capacities.push_back(c);
    } else if (verb == "flap") {
      FlapFault f;
      if (!get_window(ls, f.window) || !get_node(ls, f.node)) {
        return std::nullopt;
      }
      s.flaps.push_back(f);
    } else {
      return std::nullopt;
    }
  }
  return s;
}

FaultInjector::FaultInjector(std::uint64_t seed, FaultSchedule schedule)
    : schedule_(std::move(schedule)), rng_(seed), seed_(seed) {}

MessageDecision FaultInjector::on_message(units::Tick now, FaultNode from,
                                          FaultNode to) {
  MessageDecision d;
  bool seen = false;
  for (const MessageFault& m : schedule_.messages) {
    if (!m.window.contains(now) || !matches(m.node, from, to)) continue;
    if (!seen) {
      seen = true;
      ++counters_.messages_seen;
    }
    if (m.drop > 0.0 && rng_.chance(m.drop)) {
      d.drop = true;
      ++counters_.dropped;
      return d;  // a dropped message cannot also be duplicated or delayed
    }
    if (m.dup > 0.0 && !d.duplicate && rng_.chance(m.dup)) {
      d.duplicate = true;
      d.duplicate_delay =
          units::Duration(rng_.uniform(0.0, m.max_jitter.value()));
      ++counters_.duplicated;
    }
    if (m.jitter > 0.0 && rng_.chance(m.jitter)) {
      d.extra_delay +=
          units::Duration(rng_.uniform(0.0, m.max_jitter.value()));
      ++counters_.jittered;
    }
  }
  return d;
}

double FaultInjector::capacity_factor(units::Tick now,
                                      FaultNode node) const noexcept {
  double factor = 1.0;
  for (const CapacityFault& c : schedule_.capacities) {
    if (c.window.contains(now) && matches(c.node, node, node)) {
      factor *= c.factor;
    }
  }
  return std::max(factor, 0.0);
}

bool FaultInjector::inbound_blocked(units::Tick now,
                                    FaultNode node) const noexcept {
  for (const FlapFault& f : schedule_.flaps) {
    if (f.window.contains(now) && matches(f.node, node, node)) return true;
  }
  return false;
}

}  // namespace coolstream::sim
