#!/usr/bin/env python3
"""Compares two perfbench binaries, parent and change, in alternating pairs.

    python3 tools/perf_ab.py --parent A/.bench_build/perfbench/perfbench \\
        --change B/.bench_build/perfbench/perfbench \\
        --workload steady_peak --seed 1 --pairs 10
    python3 tools/perf_ab.py --selftest

Pair i runs both binaries back to back with the same arguments
(`--workload W --seed N --seconds S --trace 0`), parent first on even pairs
and change first on odd ones, so a drift in host speed hits both sides
alike. Each run must report `correct` with no failed output check, and both
sides must print the same window digests; the tool stops otherwise.

For each end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the pairs the change won, and the median of the paired
ratios change / parent with a distribution-free interval: the order
statistics [r(k), r(n-k+1)] of the sorted ratios, k the largest k with
P(Binom(n, 1/2) <= k-1) <= 2.5 %. At 10 pairs that is [r(2), r(9)],
which covers the median ratio with probability 97.9 % whatever the
ratios' distribution; below 6 pairs no such k exists and the verdict is
"too few pairs". The verdict reads "unresolved" when the interval
contains 1; at 10 pairs the interval excludes 1 only when at least 9 of
the 10 ratios fall on one side of it. The tool also says whether the
medians differ by more than the parent's interquartile range. Runs are
sequential; concurrent pinned runs are not implemented.

As a diagnostic, not a BENCHMARK.json metric, it also prints each side's
median user CPU per child (`ru_utime` from `os.wait4`, covering the
child's setup and every pass) and their paired ratio with the same
interval. Wall time on a shared host includes time the child waited
for a core; user CPU does not.

Calibration (4-vCPU Xeon VM on a shared host, 1 shard, --seconds 10;
ns_per_peer_tick in ns), A/A, steady_peak seed 1, 10 pairs, one binary
on both sides:
  ns_per_peer_tick  2515 [2481-2569] vs 2523 [2504-2576], "change" won
                    6 of 10, ratio 0.993 97.9% [0.954, 1.048]: unresolved
  setup_s           1.666 vs 1.685 s, won 3 of 10, ratio 1.021
                    [0.956, 1.087]: unresolved
  peak_rss_mb       29.68 vs 29.66 MB, won 6 of 10, ratio 0.999
                    [0.993, 1.002]: unresolved
Every interval contains 1 and every median gap is within the parent's
IQR. An earlier A/A on this host had the "change" side win 8 of 10 on
ns_per_peer_tick and setup_s while the host drifted from ~2 800 to
~3 900 ns; a percentile bootstrap then excluded 1 on both, while
[r(2), r(9)] with 2 ratios above 1 contains it.
"""
import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")
MAX_MISS = 0.025  # most probability each interval end may miss the median
DIGEST = re.compile(r"digest start (\S+) end (\S+)")
USER_CPU = "user_cpu_s"  # diagnostic only: not in BENCHMARK.json


def end_to_end(path):
    """[(name, lower_is_better)] from BENCHMARK.json's end_to_end list."""
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["better"] == "lower") for m in spec["end_to_end"]]


def quartiles(xs):
    """(q1, median, q3), interpolating between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def median_interval(ratios):
    """Distribution-free interval for the median of `ratios`.

    [r(k), r(n-k+1)] of the sorted values, with k the largest k for which
    P(Binom(n, 1/2) <= k-1) <= MAX_MISS; it covers the median with
    probability 1 - 2 P(Binom(n, 1/2) <= k-1), whatever the distribution.
    Returns (lo, hi, coverage), or None when n is too small for any k.
    """
    n = len(ratios)
    k, miss, tail = 0, 0.0, 0.0
    for j in range(n + 1):
        tail += math.comb(n, j) / 2 ** n
        if tail > MAX_MISS:
            break
        k, miss = j + 1, tail
    if k == 0:
        return None
    r = sorted(ratios)
    return r[k - 1], r[n - k], 1.0 - 2.0 * miss


def compare(parent, change, lower_is_better):
    """Statistics of one metric over paired runs (lists in pair order)."""
    assert len(parent) == len(change) and parent
    ratios = [c / p for p, c in zip(parent, change)]
    wins = sum((c < p) if lower_is_better else (c > p)
               for p, c in zip(parent, change))
    interval = median_interval(ratios)
    pq = quartiles(parent)
    cq = quartiles(change)
    if interval is None:
        verdict = "too few pairs"
    elif interval[0] <= 1.0 <= interval[1]:
        verdict = "unresolved"
    elif (interval[1] < 1.0) == lower_is_better:
        verdict = "change better"
    else:
        verdict = "change worse"
    return {
        "parent": pq,
        "change": cq,
        "wins": wins,
        "pairs": len(ratios),
        "ratio": statistics.median(ratios),
        "interval": interval,
        "verdict": verdict,
        "beyond_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
    }


def run_child(cmd):
    """(stdout, user CPU seconds) of one child, reaped with os.wait4."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd, out)
    return out, usage.ru_utime


def run_once(binary, args):
    out, user_cpu = run_child([binary] + args)
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"perf_ab: {binary} failed its output checks")
    digests = DIGEST.findall(out)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values[USER_CPU] = user_cpu
    return values, digests


def fmt(x):
    return f"{x:.4g}"


def report(name, s):
    p, c = s["parent"], s["change"]
    interval = ""
    if s["interval"] is not None:
        lo, hi, coverage = s["interval"]
        interval = f"  {100 * coverage:.1f}% [{lo:.3f}, {hi:.3f}]"
    print(f"{name}\n"
          f"  parent median {fmt(p[1])}  quartiles {fmt(p[0])}-{fmt(p[2])}\n"
          f"  change median {fmt(c[1])}  quartiles {fmt(c[0])}-{fmt(c[2])}\n"
          f"  change won {s['wins']} of {s['pairs']}; median ratio "
          f"{s['ratio']:.3f}{interval}  {s['verdict']}; "
          f"median gap {'exceeds' if s['beyond_parent_iqr'] else 'within'}"
          f" the parent's IQR")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--workload", default="steady_peak")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--pairs", type=int, default=10)
    a = ap.parse_args(argv)
    if a.selftest:
        return selftest()
    if not a.parent or not a.change:
        ap.error("--parent and --change are required")
    metrics = end_to_end(BENCHMARK)
    args = ["--workload", a.workload, "--seed", a.seed, "--seconds",
            a.seconds, "--trace", "0"]
    print(f"perf_ab {a.workload} seed {a.seed} seconds {a.seconds} "
          f"pairs {a.pairs} nproc {os.cpu_count()} (sequential, alternating)")
    runs = {"parent": [], "change": []}
    for i in range(a.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        digests = {}
        for side in order:
            values, digests[side] = run_once(getattr(a, side), args)
            runs[side].append(values)
        if digests["parent"] != digests["change"]:
            sys.exit(f"perf_ab: pair {i + 1}: window digests differ: "
                     f"parent {digests['parent']} change {digests['change']}")
        print(f"pair {i + 1}: " + "  ".join(
            f"{m} {fmt(runs['parent'][-1][m])} -> {fmt(runs['change'][-1][m])}"
            for m, _ in metrics), flush=True)
    for m, lower in metrics + [(USER_CPU, True)]:
        name = m if m != USER_CPU else (
            f"{USER_CPU} (diagnostic: user CPU per child, "
            f"not a BENCHMARK.json metric)")
        report(name, compare([r[m] for r in runs["parent"]],
                             [r[m] for r in runs["change"]], lower))
    return 0


def selftest():
    checks = []

    def check(what, cond):
        checks.append((what, cond))

    check("quartiles of 1..9", quartiles([5, 1, 9, 3, 7, 2, 8, 4, 6])
          == (3, 5, 7))
    check("quartiles of one value", quartiles([4.0]) == (4.0, 4.0, 4.0))
    ten = [0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99, 0.995]
    lo, hi, coverage = median_interval(list(reversed(ten)))
    check("10 pairs: [r(2), r(9)] covering 97.9 %",
          (lo, hi) == (0.92, 0.99) and coverage == 1 - 22 / 1024)
    check("6 pairs: [r(1), r(6)]", median_interval(ten[:6])[:2] == (0.91, 0.96))
    check("5 pairs: no interval", median_interval(ten[:5]) is None)

    # The recorded A/A's win count: 8 of 10 ratios below 1.
    eight = ten[:8] + [1.01, 1.02]
    check("8 of 10 below 1 is unresolved",
          compare([1.0] * 10, eight, lower_is_better=True)["verdict"]
          == "unresolved")
    check("10 of 10 below 1 resolves",
          compare([1.0] * 10, ten, lower_is_better=True)["verdict"]
          == "change better")
    check("5 pairs are too few",
          compare([1.0] * 5, ten[:5], lower_is_better=True)["verdict"]
          == "too few pairs")

    parent = [100, 102, 98, 101, 99, 103, 100, 97, 104, 100]
    faster = [90, 91, 89, 92, 88, 90, 91, 90, 93, 89]
    s = compare(parent, faster, lower_is_better=True)
    check("wins when lower is better", s["wins"] == 10)
    check("median ratio", abs(s["ratio"] - 0.9) < 0.01)
    check("interval below 1", s["interval"][1] < 1.0)
    check("faster side is better", s["verdict"] == "change better")
    check("gap beyond the parent's IQR", s["beyond_parent_iqr"])
    s = compare(parent, faster, lower_is_better=False)
    check("wins when higher is better", s["wins"] == 0)
    check("faster side is worse when higher is better",
          s["verdict"] == "change worse")

    same = compare(parent, list(reversed(parent)), lower_is_better=True)
    check("A/A-like data is unresolved", same["verdict"] == "unresolved")
    check("A/A-like gap within the IQR", not same["beyond_parent_iqr"])
    noisy = [100, 100, 100, 100, 100, 100]
    mixed = [95, 104, 97, 103, 99, 94]
    s = compare(noisy, mixed, lower_is_better=True)
    check("interval containing 1 is unresolved",
          s["interval"][0] <= 1.0 <= s["interval"][1]
          and s["verdict"] == "unresolved")
    check("end-to-end metrics load",
          ("ns_per_peer_tick", True) in end_to_end(BENCHMARK))
    check("user CPU is not an end-to-end metric",
          USER_CPU not in dict(end_to_end(BENCHMARK)))

    # A child that spins ~0.3 s of CPU: its own rusage, not the tool's.
    spin = ("import time\nt = time.process_time()\n"
            "while time.process_time() - t < 0.3: pass\nprint('spun')")
    out, user_cpu = run_child([sys.executable, "-c", spin])
    check("child stdout is read", out == "spun\n")
    check("child user CPU from wait4", 0.2 <= user_cpu < 5.0)
    try:
        run_child([sys.executable, "-c", "raise SystemExit(3)"])
        check("failing child raises", False)
    except subprocess.CalledProcessError as e:
        check("failing child raises", e.returncode == 3)

    failures = [what for what, ok in checks if not ok]
    for what in failures:
        print(f"FAIL {what}")
    print(f"perf_ab selftest: {len(checks) - len(failures)} of {len(checks)} "
          f"checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
