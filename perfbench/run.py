#!/usr/bin/env python3
"""Builds and runs the lbtrust benchmark for one workload and one seed.

Run from the root of an lbtrust checkout:

    python3 perfbench/run.py --workload exchange_rsa --seed 7 --seconds 12 --trace 0

The first run configures and builds perfbench/ (the library sources under
src/ plus the benchmark program) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only check that the build is current.
Build output goes to stderr. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the metrics are
the per-layer ones, and the Chrome trace and the per-layer table are written
to .bench_out/<workload>-<seed>.trace.json and .layers.txt.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("exchange_rsa", "authz_serve", "mesh_relay")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "lbtrust_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_base = None
    if args.trace:
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_base = os.path.join(out_dir,
                                  f"{args.workload}-{args.seed}")
        command += ["--trace-out", trace_base + ".trace.json"]
    try:
        done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
        return 1
    sys.stderr.write(done.stderr)
    if trace_base is not None:
        with open(trace_base + ".layers.txt", "w") as table:
            table.write(done.stderr)
    if done.returncode != 0:
        log(f"{args.workload} exited with {done.returncode}")
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no result line from the benchmark program")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line: " + lines[-1])
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
