#!/usr/bin/env python3
"""Benchmark regression gate over deterministic work counters.

Compares a freshly generated gate JSON (bench_e2_scalability --json=...)
against a committed baseline (BENCH_PR2.json) and fails when a named
counter regresses beyond the tolerance. Counters are simulation
quantities — vertices popped, candidates evaluated, cache hit rate — not
wall-clock, so the gate is robust on noisy shared CI runners.

Direction convention (see docs/BENCHMARKS.md):
  * keys ending in ``_rate`` or ``_reduction`` are higher-is-better;
  * every other numeric counter is lower-is-better.

Usage:
  scripts/bench_gate.py BASELINE.json CURRENT.json [--tolerance 0.25]

Exit status: 0 when no counter regresses past tolerance, 1 otherwise.
"""

import argparse
import json
import sys


def flatten(obj, prefix=""):
    """Flatten nested dicts into {"a.b.c": number} — non-numerics dropped."""
    out = {}
    for key, value in obj.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten(value, f"{path}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[path] = float(value)
    return out


def higher_is_better(key):
    leaf = key.rsplit(".", 1)[-1]
    return leaf.endswith("_rate") or leaf.endswith("_reduction")


# Configuration echoes (peers, queries, seed) describe the run, they are
# not performance counters; comparing them would gate on the harness.
SKIP_LEAVES = {"peers", "queries", "seed"}


def skipped_leaf(key):
    return key.rsplit(".", 1)[-1] in SKIP_LEAVES


def gate_counters(base, cur, tolerance):
    """Returns (rows, failures) for the flattened counter comparison."""
    rows = []
    failures = []
    for key in sorted(base):
        if skipped_leaf(key):
            continue
        if key not in cur:
            failures.append(f"counter missing from current run: {key}")
            continue
        b, c = base[key], cur[key]
        if b == 0.0:
            delta = 0.0 if c == 0.0 else float("inf")
        else:
            delta = (c - b) / abs(b)
        hib = higher_is_better(key)
        # Regression = movement in the bad direction beyond tolerance.
        bad = -delta if hib else delta
        status = "FAIL" if bad > tolerance else "ok"
        if status == "FAIL":
            failures.append(
                f"{key}: baseline {b:g} -> current {c:g} "
                f"({delta:+.1%}, {'higher' if hib else 'lower'}-is-better, "
                f"tolerance {tolerance:.0%})"
            )
        rows.append((key, b, c, delta, status))
    return rows, failures


def print_rows(rows):
    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'counter':<{width}}  {'baseline':>12}  {'current':>12}  {'delta':>8}  status")
    for key, b, c, delta, status in rows:
        print(f"{key:<{width}}  {b:>12g}  {c:>12g}  {delta:>+8.1%}  {status}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional counter regression (default 0.25 = 25%%)",
    )
    args = parser.parse_args()

    with open(args.baseline) as f:
        base_raw = json.load(f)
    with open(args.current) as f:
        cur_raw = json.load(f)

    rows, failures = gate_counters(
        flatten(base_raw), flatten(cur_raw), args.tolerance
    )
    print_rows(rows)

    if failures:
        print("\nREGRESSION GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\ngate passed: {len(rows)} counters within {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
