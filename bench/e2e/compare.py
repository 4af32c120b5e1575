#!/usr/bin/env python3
"""A/B comparison of two bench_e2e builds, by the rules of README.md.

    python3 bench/e2e/compare.py BASE_BUILD CHANGE_BUILD [--workloads a,b]
                                 [--pairs 10] [--seconds 10] [--seed 42]
    python3 bench/e2e/compare.py --self BUILD [...]

A BUILD is a directory holding a bench_e2e binary (the CMake build tree of
bench/e2e, e.g. build-bench/e2e) or the binary itself. For every workload
it runs --pairs pairs of plain runs, every run on seed --seed, alternating
which build goes first. The two runs of a pair do the same work back to
back, so the pair's ratio change/base holds the machine's run-to-run noise
but not its drift from one pair to the next. For every end-to-end metric it
prints each side's median and quartiles, the median and quartiles of the
per-pair ratios, the fraction of pairs the change wins (ties count for
neither side) and a verdict.

Outcome metrics of the sim workloads (every workload but socket: goodput,
fail_rate, the admission and response percentiles, continuity) repeat
exactly for a seed, so any difference is a change of behaviour:

  improved    every pair that differs moves the better way
  worse       every pair that differs moves the worse way
  unresolved  pairs differ both ways
  unchanged   no pair differs

Every other metric:

  improved    every change run beats every base run, or the change wins at
              least 9 of 10 pairs and the medians differ by more than the
              base's own spread (its interquartile range)
  worse       the median per-pair ratio is worse than 1 by more than the
              metric's bound in BENCHMARK.json; a setup_s under 0.5 s may
              also grow by up to 0.05 s. Metrics without a bound (the extra
              ones on socket) are worse when the base wins at least 9 of 10
              pairs and the medians differ by more than the base's spread
  unresolved  the per-pair ratios' interquartile range is wider than the
              bound
  unchanged   otherwise

--self compares one build with itself; it should report nothing worse or
unresolved. Exit status: 0 when nothing is worse or unresolved, 1
otherwise, 2 on a usage error. Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170

# End-to-end metrics the binary prints beyond BENCHMARK.json, with the
# direction that counts as better.
EXTRA = {
    "fail_rate": "lower",
    "admit_p50_ms": "lower",
    "admit_p99_ms": "lower",
    "response_p50_s": "lower",
    "response_p99_s": "lower",
    "continuity": "higher",
}
# Outcome metrics that repeat exactly for a seed on every workload that is
# not wall-clock paced.
DETERMINISTIC = {"goodput"} | set(EXTRA)
WALL_PACED = {"socket"}
# A setup_s under SETUP_FLOOR_BELOW_S may grow by SETUP_FLOOR_S whatever
# its bound says.
SETUP_FLOOR_S = 0.05
SETUP_FLOOR_BELOW_S = 0.5


def binary_of(path):
    exe = os.path.join(path, "bench_e2e") if os.path.isdir(path) else path
    if not os.access(exe, os.X_OK):
        sys.exit(f"compare.py: no bench_e2e binary at {path}")
    return exe


def run_once(exe, workload, seed, seconds):
    cmd = [exe, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds:g}"]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.splitlines()
    starts = [i for i, line in enumerate(lines) if line == "{"]
    if done.returncode not in (0, 1) or not starts:
        sys.exit(f"compare.py: {' '.join(cmd)} exited {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    report = json.loads("\n".join(lines[starts[-1]:]))
    if not report["correct"]:
        failed = [c["name"] for c in report["checks"] if not c["ok"]]
        print(f"  warning: {workload} seed {seed}: checks failed: {failed}")
    return {k: v["value"] for k, v in report["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def exact_verdict(base, change, sign):
    """Verdict for a metric that repeats exactly for a seed."""
    moves = {sign * (c - b) > 0 for b, c in zip(base, change) if c != b}
    if not moves:
        return "unchanged"
    if len(moves) == 2:
        return "unresolved"
    return "improved" if moves == {True} else "worse"


def verdict(name, base, change, better, bound, exact):
    """Judges paired runs; returns (win fraction, verdict)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    win = wins / len(base)
    if exact:
        return win, exact_verdict(base, change, sign)
    b1, bmed, b3 = quartiles(base)
    gain = sign * (statistics.median(change) - bmed)  # > 0: change better
    if min(sign * c for c in change) > max(sign * b for b in base):
        return win, "improved"
    if bound is not None:
        r1, rmed, r3 = quartiles([c / b for b, c in zip(base, change)])
        allowed = bound
        if name == "setup_s" and bmed < SETUP_FLOOR_BELOW_S:
            allowed = max(bound, SETUP_FLOOR_S / bmed)
        if sign * (rmed - 1.0) < -allowed:
            return win, "worse"
        if r3 - r1 > bound:
            return win, "unresolved"
    if win >= 0.9 and gain > b3 - b1:
        return win, "improved"
    if bound is None and losses / len(base) >= 0.9 and -gain > b3 - b1:
        return win, "worse"
    return win, "unchanged"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("builds", nargs="*", help="BASE_BUILD CHANGE_BUILD")
    ap.add_argument("--self", dest="self_build", metavar="BUILD",
                    help="compare one build against itself")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    if args.self_build:
        if args.builds:
            ap.error("--self takes one build and no positional builds")
        base = change = binary_of(args.self_build)
    elif len(args.builds) == 2:
        base, change = (binary_of(b) for b in args.builds)
    else:
        ap.error("give BASE_BUILD CHANGE_BUILD, or --self BUILD")
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])

    bad = 0
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = [("base", base), ("change", change)]
            if i % 2:
                order.reverse()
            for side, exe in order:
                runs[side].append(
                    run_once(exe, workload, args.seed, args.seconds))
        print(f"\n{workload} ({args.pairs} pairs on seed {args.seed}, "
              f"{args.seconds:g} s)")
        print(f"  {'metric':16} {'base median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'change/base [q1, q3]':>28} "
              f"{'win':>5}  verdict")
        names = list(bounded) + [n for n in EXTRA if n in runs["base"][0]]
        for name in names:
            b = [r[name] for r in runs["base"]]
            c = [r[name] for r in runs["change"]]
            spec_m = bounded.get(name)
            better = spec_m["better"] if spec_m else EXTRA[name]
            exact = name in DETERMINISTIC and workload not in WALL_PACED
            win, v = verdict(name, b, c, better,
                             spec_m["bound"] if spec_m else None, exact)
            bad += v in ("worse", "unresolved")
            sides = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
                     for q in (quartiles(b), quartiles(c))]
            if all(x != 0 for x in b):
                q = quartiles([y / x for x, y in zip(b, c)])
                ratio = f"{q[1]:.4f} [{q[0]:.4f}, {q[2]:.4f}]"
            else:
                ratio = "-"
            print(f"  {name:16} {sides[0]:>32} {sides[1]:>32} {ratio:>28} "
                  f"{win:>5.2f}  {v}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
