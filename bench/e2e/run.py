#!/usr/bin/env python3
"""Build bench_e2e from this checkout and run one workload of it.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout. The first call configures and builds
bench/e2e (a standalone CMake project over the whole repository) into
build-bench/e2e; later calls only re-run the incremental build. The
binary's own report goes to standard output, and the last line is one JSON
object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0 and every
per_layer metric with --trace 1 (a plain plus a traced pass of the same
workload and seed; spans land in build-bench/traces/). An output check
that fails makes "correct" false. A missing source tree, a failed build,
a crash or a metric the binary did not print exits non-zero without a
result line. Standard library only.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_ROOT = os.path.join(ROOT, "build-bench")  # matched by build*/ in .gitignore
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700  # with RUN_TIMEOUT_S, under the 900 s first-run allowance


def fail(message):
    print(f"bench/e2e/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds bench_e2e; returns the binary path."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: bench_e2e builds the repository "
                 "it sits in, run it from a full checkout")
    out = os.path.join(BUILD_ROOT, "e2e")
    tmp = os.path.join(out, "tmp")  # compiler scratch stays in the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", out, "--target", "bench_e2e",
                      "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      env=env, timeout=BUILD_TIMEOUT_S,
                                      check=False)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if done.returncode != 0:
                fail(f"build failed: {' '.join(cmd)}")
    binary = os.path.join(out, "bench_e2e")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def parse_report(stdout):
    """The p2prm-bench-e2e/1 object: from the last line that is '{' on."""
    lines = stdout.splitlines()
    starts = [i for i, line in enumerate(lines) if line == "{"]
    if not starts:
        return None
    try:
        report = json.loads("\n".join(lines[starts[-1]:]))
    except json.JSONDecodeError:
        return None
    return report if report.get("schema") == "p2prm-bench-e2e/1" else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}"]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append(f"--trace={traces}/{args.workload}-{args.seed}.jsonl")
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    report = parse_report(done.stdout)
    # Exit 1 means an output check failed; the report is still complete.
    if done.returncode not in (0, 1) or report is None:
        fail(f"bench_e2e exited with {done.returncode} and no report")

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            fail(f"bench_e2e reported no value for {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} is in {got['unit']}, BENCHMARK.json says "
                 f"{m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {
        "correct": bool(report["correct"]) and done.returncode == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result, separators=(",", ": ")))


if __name__ == "__main__":
    main()
