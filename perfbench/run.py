#!/usr/bin/env python3
"""Builds and runs the simulator benchmark from the repository root.

    python3 perfbench/run.py --workload steady_peak --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark and the simulator sources are compiled (Release) into
.bench_build/perfbench under the current directory; the first run builds,
later runs only check that the build is up to date.  Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.  Traced
runs (--trace 1) write their spans to .bench_build/spans/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")


def build(target):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def option(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main(args):
    try:
        if args == ["--selftest"]:
            return subprocess.run([build("perfbench_tests")]).returncode
        binary = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if option(args, "--trace") == "1":
        spans = os.path.join(os.getcwd(), ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        name = f"{option(args, '--workload')}-seed{option(args, '--seed')}.jsonl"
        args = args + ["--spans", os.path.join(spans, name)]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
