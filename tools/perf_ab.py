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
ratios change / parent with a bootstrap 95 % interval. The verdict reads
"unresolved" when that interval contains 1. It also says whether the
medians differ by more than the parent's interquartile range. Runs are
sequential; concurrent pinned runs are not implemented.

Calibration and first use (4-vCPU Xeon VM on a shared host, 1 shard,
--seconds 10, 10 pairs each; ns_per_peer_tick in ns):
  A/A, steady_peak seed 1, one binary on both sides:
    ns_per_peer_tick  medians 3353 vs 3104, "change" won 8 of 10, ratio
                      0.970 [0.936, 0.998]: the interval misses 1
    setup_s           won 8 of 10, ratio 0.942 [0.896, 0.999]: misses 1
    peak_rss_mb       won 4 of 10, ratio 1.001 [0.997, 1.003]: unresolved
  The host drifted from ~2 800 to ~3 900 ns within the run. With 10
  pairs the percentile bootstrap of the median is too narrow for that
  drift, so an interval that misses 1 is not enough to claim a gain. The
  A/A failed the claim rule (9 of 10 wins and a median gap beyond the
  parent's IQR) on every metric; hold a claim to that rule as well.
  A/B, steady_peak seed 1, peers in one id-ordered slab with inline
  lanes against its parent:
    ns_per_peer_tick  2959 [2789-3102] -> 2565 [2456-2739], won 10 of 10,
                      ratio 0.880 [0.857, 0.913]; gap exceeds parent IQR
    setup_s           1.875 -> 1.733 s, won 9 of 10, ratio 0.922
                      [0.875, 0.938]; gap within parent IQR
    peak_rss_mb       30.57 -> 29.65 MB, won 10 of 10, ratio 0.969
                      [0.967, 0.976]; gap exceeds parent IQR
  The same A/B at seed 2006927, not used while the change was written:
    ns_per_peer_tick  3508 [3383-3597] -> 3033 [3005-3097], won 10 of 10,
                      ratio 0.858 [0.834, 0.903]; gap exceeds parent IQR
"""
import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")
BOOTSTRAP_RESAMPLES = 10000
DIGEST = re.compile(r"digest start (\S+) end (\S+)")


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


def bootstrap_interval(ratios, resamples=BOOTSTRAP_RESAMPLES, seed=1):
    """95 % percentile-bootstrap interval of the median of `ratios`."""
    rng = random.Random(seed)
    n = len(ratios)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=n)) for _ in range(resamples))
    return medians[int(0.025 * resamples)], medians[int(0.975 * resamples) - 1]


def compare(parent, change, lower_is_better):
    """Statistics of one metric over paired runs (lists in pair order)."""
    assert len(parent) == len(change) and parent
    ratios = [c / p for p, c in zip(parent, change)]
    wins = sum((c < p) if lower_is_better else (c > p)
               for p, c in zip(parent, change))
    lo, hi = bootstrap_interval(ratios)
    pq = quartiles(parent)
    cq = quartiles(change)
    if lo <= 1.0 <= hi:
        verdict = "unresolved"
    elif (hi < 1.0) == lower_is_better:
        verdict = "change better"
    else:
        verdict = "change worse"
    return {
        "parent": pq,
        "change": cq,
        "wins": wins,
        "pairs": len(ratios),
        "ratio": statistics.median(ratios),
        "interval": (lo, hi),
        "verdict": verdict,
        "beyond_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
    }


def run_once(binary, args):
    out = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"perf_ab: {binary} failed its output checks")
    digests = DIGEST.findall(out)
    return {k: v["value"] for k, v in result["metrics"].items()}, digests


def fmt(x):
    return f"{x:.4g}"


def report(name, s):
    p, c = s["parent"], s["change"]
    lo, hi = s["interval"]
    print(f"{name}\n"
          f"  parent median {fmt(p[1])}  quartiles {fmt(p[0])}-{fmt(p[2])}\n"
          f"  change median {fmt(c[1])}  quartiles {fmt(c[0])}-{fmt(c[2])}\n"
          f"  change won {s['wins']} of {s['pairs']}; median ratio "
          f"{s['ratio']:.3f}  95% [{lo:.3f}, {hi:.3f}]  {s['verdict']}; "
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
    for m, lower in metrics:
        report(m, compare([r[m] for r in runs["parent"]],
                          [r[m] for r in runs["change"]], lower))
    return 0


def selftest():
    checks = []

    def check(what, cond):
        checks.append((what, cond))

    check("quartiles of 1..9", quartiles([5, 1, 9, 3, 7, 2, 8, 4, 6])
          == (3, 5, 7))
    check("quartiles of one value", quartiles([4.0]) == (4.0, 4.0, 4.0))
    check("bootstrap is seeded",
          bootstrap_interval([0.9, 1.1, 1.0, 0.95])
          == bootstrap_interval([0.9, 1.1, 1.0, 0.95]))
    check("bootstrap of a constant",
          bootstrap_interval([0.8] * 10) == (0.8, 0.8))

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
    noisy = [100, 100, 100, 100, 100]
    mixed = [95, 104, 97, 103, 99]
    s = compare(noisy, mixed, lower_is_better=True)
    check("interval containing 1 is unresolved",
          s["interval"][0] <= 1.0 <= s["interval"][1]
          and s["verdict"] == "unresolved")
    check("end-to-end metrics load",
          ("ns_per_peer_tick", True) in end_to_end(BENCHMARK))

    failures = [what for what, ok in checks if not ok]
    for what in failures:
        print(f"FAIL {what}")
    print(f"perf_ab selftest: {len(checks) - len(failures)} of {len(checks)} "
          f"checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
