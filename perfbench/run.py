#!/usr/bin/env python3
"""Run one stackroute benchmark workload and print its result line.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the benchmark binary (CMake, Release) under
.bench_build/perfbench on first use, runs the workload in a fresh process,
and prints the binary's context line followed, as the last stdout line, by
one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list; a listed metric the run did not produce makes the
result incorrect. A traced run also writes its chrome trace to
.bench_build/perfbench/trace-NAME.json and validates it with
tools/check_trace.py. Exits non-zero, printing no result, when the
checkout cannot be built or the run fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "stackroute_perfbench")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        die("no stackroute source tree at %s" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=600).returncode != 0:
            die("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
           "--target", "stackroute_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=840).returncode != 0:
        die("build failed")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        die("unknown workload %r (expected one of %s)"
            % (args.workload, ", ".join(sorted(whys))))
    # The goodput latency limit is part of the workload's why line.
    limit = re.search(r"goodput limit (\d+(?:\.\d+)?) ms", whys[args.workload])
    if limit is None:
        die("workload %r states no goodput limit" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    trace_out = os.path.join(BUILD, "trace-%s.json" % args.workload)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--goodput-limit-ms", limit.group(1), "--commit", commit()]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        die("workload %s timed out" % args.workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("benchmark binary exited %d" % proc.returncode)
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            print("perfbench: run produced no %s" % m["name"], file=sys.stderr)
            result["correct"] = False
            continue
        if got["unit"] != m["unit"]:
            print("perfbench: %s is in %s, BENCHMARK.json says %s"
                  % (m["name"], got["unit"], m["unit"]), file=sys.stderr)
            result["correct"] = False
        metrics[m["name"]] = got
    result["metrics"] = metrics

    if args.trace:
        checker = os.path.join(ROOT, "tools", "check_trace.py")
        check = subprocess.run([sys.executable, checker, trace_out],
                               stdout=sys.stderr, stderr=sys.stderr,
                               timeout=120)
        if check.returncode != 0:
            result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
