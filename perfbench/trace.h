// Span recorder, timing summaries and the state digest of the simulator
// benchmark.  Header-only and free of simulator types so that
// trace_test.cpp can check the statistics without running a workload.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace perfbench {

/// p50 and tail of a sample set.  The tail is the highest order statistic
/// that still has at least kTailMargin samples above it, so it is never a
/// single outlier; with n <= kTailMargin no such statistic exists and the
/// tail falls back to the maximum (the caller reports n beside it).
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  std::size_t n = 0;
};

inline constexpr std::size_t kTailMargin = 10;

/// Index (into the sorted samples) of the tail statistic: quantile
/// (n - kTailMargin) / n.
inline std::size_t tail_index(std::size_t n) noexcept {
  return n > kTailMargin ? n - 1 - kTailMargin : n - 1;
}

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = samples[(s.n + 1) / 2 - 1];  // nearest rank
  s.tail = samples[tail_index(s.n)];
  return s;
}

/// Clock stamps one pass of a run took at fixed points: its start, every
/// tick probe, and its stage boundaries.  Repeats of one deterministic run
/// stamp the same points, so interval i does the same work in each.
using Stamps = std::vector<std::int64_t>;

/// Sum over intervals [first, last) of the fastest repeat of each
/// interval, in ns.  Interference from other work on the host comes in
/// stretches of seconds; a stretch that slows one repeat of an interval
/// rarely slows all of them.  Every repeat must hold more than `last`
/// stamps.
inline std::int64_t fastest_ns(const std::vector<const Stamps*>& repeats,
                               std::size_t first, std::size_t last) {
  std::int64_t total = 0;
  for (std::size_t i = first; i < last; ++i) {
    std::int64_t best = INT64_MAX;
    for (const Stamps* r : repeats) best = std::min(best, (*r)[i + 1] - (*r)[i]);
    total += best;
  }
  return total;
}

enum class SpanName : std::uint8_t {
  kRun,
  kSetup,
  kWindow,
  kTick,
  kBetween,
  kJoin,
  kLeave,
  kParse,
  kReconstruct,
  kAnalysis,
};

inline std::string_view to_string(SpanName n) noexcept {
  switch (n) {
    case SpanName::kRun: return "run";
    case SpanName::kSetup: return "setup";
    case SpanName::kWindow: return "window";
    case SpanName::kTick: return "tick";
    case SpanName::kBetween: return "between";
    case SpanName::kJoin: return "join";
    case SpanName::kLeave: return "leave";
    case SpanName::kParse: return "parse";
    case SpanName::kReconstruct: return "reconstruct";
    case SpanName::kAnalysis: return "analysis";
  }
  return "?";
}

/// One timed interval.  Ids are 1-based positions in the recorder; parent
/// 0 means a root span.  A truncated span was cut at a stage boundary
/// instead of ending at its own probe, so it is no whole sample.
struct Span {
  std::uint32_t parent = 0;
  SpanName name = SpanName::kRun;
  bool truncated = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// In-memory span log of one run.  Spans nest strictly: open() makes the
/// innermost open span the parent, close() ends the innermost one.  Clock
/// readings are passed in, so the recorder itself reads no clock.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::uint64_t run_id) : run_id_(run_id) {}

  std::uint32_t open(SpanName name, std::int64_t now_ns,
                     bool truncated = false) {
    Span s;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.name = name;
    s.truncated = truncated;
    s.start_ns = now_ns;
    s.end_ns = now_ns;
    spans_.push_back(s);
    const auto id = static_cast<std::uint32_t>(spans_.size());
    stack_.push_back(id);
    return id;
  }

  void close(std::int64_t now_ns) {
    if (stack_.empty()) return;
    spans_[stack_.back() - 1].end_ns = now_ns;
    stack_.pop_back();
  }

  /// Closes every span opened inside `id` (flagging them truncated) and
  /// leaves `id` itself open.
  void close_inside(std::uint32_t id, std::int64_t now_ns) {
    while (!stack_.empty() && stack_.back() != id) {
      spans_[stack_.back() - 1].truncated = true;
      close(now_ns);
    }
  }

  const Span& span(std::uint32_t id) const { return spans_[id - 1]; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of every span (indexed like spans()): its duration minus
  /// the durations of its direct children.
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].duration_ns();
      if (spans_[i].parent != 0) {
        self[spans_[i].parent - 1] -= spans_[i].duration_ns();
      }
    }
    return self;
  }

  /// One JSON object per line: run, id, parent, name, start/end (ns since
  /// the recorder's first span), truncated.
  void write_jsonl(std::ostream& out) const {
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"run\":" << run_id_ << ",\"id\":" << i + 1
          << ",\"parent\":" << s.parent << ",\"name\":\""
          << to_string(s.name) << "\",\"start_ns\":" << s.start_ns - t0
          << ",\"end_ns\":" << s.end_ns - t0
          << ",\"truncated\":" << (s.truncated ? "true" : "false") << "}\n";
    }
  }

 private:
  std::uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// FNV-1a fold of the deterministic state a run leaves behind.  Wall-clock
/// readings never enter it.
class Digest {
 public:
  Digest& add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(v >> (8 * i)));
    }
    return *this;
  }

  Digest& add(std::string_view s) noexcept {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<unsigned char>(c));
    return *this;
  }

  std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(unsigned char b) noexcept {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
