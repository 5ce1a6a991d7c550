// Tests of the benchmark's own statistics: tail selection, the
// fastest-interval sum, span self time, and the state digest.  Run with `python3 perfbench/run.py
// --selftest` or `ctest` in the benchmark's build directory.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "trace.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using perfbench::SpanName;
using perfbench::SpanRecorder;

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void tail_keeps_ten_samples_beyond() {
  // 100 samples 1..100: the tail is 90, with 91..100 (ten) above it.
  const auto s = perfbench::summarize(one_to(100));
  EXPECT(s.n == 100);
  EXPECT(s.p50 == 50.0);
  EXPECT(s.tail == 90.0);

  // 1000 samples: the tail is the 99th percentile.
  const auto big = perfbench::summarize(one_to(1000));
  EXPECT(big.tail == 990.0);

  // 11 samples: only the minimum has ten above it.
  EXPECT(perfbench::summarize(one_to(11)).tail == 1.0);

  // Ten or fewer: no statistic qualifies, the tail is the maximum.
  EXPECT(perfbench::summarize(one_to(10)).tail == 10.0);
  EXPECT(perfbench::summarize(one_to(1)).tail == 1.0);
  EXPECT(perfbench::summarize({}).n == 0);
}

void tail_ignores_input_order() {
  std::vector<double> v = one_to(50);
  std::reverse(v.begin(), v.end());
  const auto s = perfbench::summarize(v);
  EXPECT(s.p50 == 25.0);
  EXPECT(s.tail == 40.0);
}

void fastest_takes_each_interval_from_its_best_repeat() {
  // Intervals: a = 10 20 30, b = 15 10 30, c = 40 40 5.
  const perfbench::Stamps a = {0, 10, 30, 60};
  const perfbench::Stamps b = {100, 115, 125, 155};
  const perfbench::Stamps c = {7, 47, 87, 92};
  EXPECT(perfbench::fastest_ns({&a, &b, &c}, 0, 3) == 10 + 10 + 5);
  EXPECT(perfbench::fastest_ns({&a, &b, &c}, 1, 3) == 10 + 5);
  EXPECT(perfbench::fastest_ns({&a, &b, &c}, 0, 1) == 10);
  // One repeat is its own fastest: the sum is its total span.
  EXPECT(perfbench::fastest_ns({&b}, 0, 3) == 55);
  EXPECT(perfbench::fastest_ns({&a, &b}, 2, 2) == 0);
}

void self_time_subtracts_direct_children() {
  SpanRecorder r(7);
  const auto root = r.open(SpanName::kWindow, 0);
  const auto a = r.open(SpanName::kBetween, 10);
  r.open(SpanName::kJoin, 12);
  r.close(20);  // join: 8
  r.close(30);  // between: 20, self 12
  r.open(SpanName::kTick, 50);
  r.close(60);  // tick: 10
  r.close(100);  // window: 100, self 100 - 20 - 10 = 70
  const auto self = r.self_ns();
  EXPECT(self[root - 1] == 70);
  EXPECT(self[a - 1] == 12);
  EXPECT(self[2] == 8);
  EXPECT(self[3] == 10);
  EXPECT(r.span(a).parent == root);
  EXPECT(r.spans()[2].parent == a);
  EXPECT(r.spans()[3].parent == root);
}

void close_inside_truncates_only_children() {
  SpanRecorder r(1);
  const auto stage = r.open(SpanName::kSetup, 0);
  const auto between = r.open(SpanName::kBetween, 5);
  r.close_inside(stage, 9);
  EXPECT(r.span(between).truncated);
  EXPECT(r.span(between).end_ns == 9);
  EXPECT(!r.span(stage).truncated);
  // The stage is still the innermost open span: close() ends it.
  r.close(11);
  EXPECT(r.span(stage).duration_ns() == 11);
  EXPECT(!r.span(stage).truncated);
}

void spans_share_the_run_id() {
  SpanRecorder r(42);
  r.open(SpanName::kRun, 100);
  r.open(SpanName::kTick, 110);
  r.close(120);
  r.close(130);
  std::ostringstream out;
  r.write_jsonl(out);
  const std::string text = out.str();
  EXPECT(text ==
         "{\"run\":42,\"id\":1,\"parent\":0,\"name\":\"run\",\"start_ns\":0,"
         "\"end_ns\":30,\"truncated\":false}\n"
         "{\"run\":42,\"id\":2,\"parent\":1,\"name\":\"tick\",\"start_ns\":10,"
         "\"end_ns\":20,\"truncated\":false}\n");
}

void digest_equal_only_for_equal_state() {
  auto fold = [](std::uint64_t a, std::uint64_t b, const char* line) {
    perfbench::Digest d;
    d.add(a).add(b).add(std::string_view(line));
    return d.value();
  };
  EXPECT(fold(1, 2, "x") == fold(1, 2, "x"));
  EXPECT(fold(1, 2, "x") != fold(2, 1, "x"));
  EXPECT(fold(1, 2, "x") != fold(1, 2, "y"));
  // Strings are length-prefixed: a split line differs from the whole one.
  perfbench::Digest split;
  split.add(std::string_view("ab")).add(std::string_view("c"));
  perfbench::Digest whole;
  whole.add(std::string_view("a")).add(std::string_view("bc"));
  EXPECT(split.value() != whole.value());
}

}  // namespace

int main() {
  tail_keeps_ten_samples_beyond();
  tail_ignores_input_order();
  fastest_takes_each_interval_from_its_best_repeat();
  self_time_subtracts_direct_children();
  close_inside_truncates_only_children();
  spans_share_the_run_id();
  digest_equal_only_for_equal_state();
  if (failures == 0) std::printf("perfbench_tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
