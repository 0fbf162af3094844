#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the nsdc libraries plus
the nsdc_perfbench program, RelWithDebInfo) into .bench_build/ on first use,
runs one workload, and prints as its last stdout line one JSON object with
the keys correct, attempted, failed and metrics. Untraced runs report the
end_to_end metrics of BENCHMARK.json, traced runs the per_layer ones; a
per-layer metric of a layer the workload does not reach reads 0.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "nsdc_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail("build step failed: " + " ".join(cmd))


def build():
    for needed in ("src/CMakeLists.txt", "nsdc_charlib_cache.txt",
                   "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail("missing %s: run from the root of a full checkout" % needed, 2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "nsdc_perfbench",
               "-j4"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]", 2)

    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("nsdc_perfbench exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("nsdc_perfbench printed no result line")

    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    metrics = {}
    unreached = []
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None:
            if args.trace == "0":
                fail("workload did not report end-to-end metric " + m["name"])
            unreached.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if unreached:
        print("  layers not reached by %s (reported as 0): %s"
              % (args.workload, ", ".join(unreached)), file=sys.stderr)
    print("  run wall time %.1f s" % (time.monotonic() - t0), file=sys.stderr)
    result = {"correct": bool(raw["correct"]),
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
