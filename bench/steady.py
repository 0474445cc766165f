#!/usr/bin/env python3
"""Steadiness check: two sets of untraced runs per workload, compared.

For every workload it runs ``--runs`` untraced runs (seeds 1..R), then a
second set (seeds 101..100+R), each in a fresh process, and prints for each
end-to-end metric the median and quartiles of each set, the spread
(Q3 - Q1) / median of each set, and how much worse the second median is
than the first, next to the metric's bound from BENCHMARK.json. The sets
are steady when every spread but that of setup_s, and the gap between the
medians in either direction, is within the metric's bound. The run length
and the workloads are those of BENCHMARK.json. One traced
run per workload gives the tracing overhead: untraced items_per_s against
the traced run's trace.items_per_s. The failed share of the two sets must
match exactly.

Usage (from the repository root):

    python3 bench/steady.py --runs 10
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect output: {workload} seed {seed}\n{done.stderr}")
    return result


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which the second median is worse than the first (< 0: better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    sets = {name: ([], []) for name in names}
    for index, base in enumerate((1, 101)):
        for name in names:
            for seed in range(base, base + args.runs):
                sets[name][index].append(run(name, seed, seconds, 0))
                print(f"set {index + 1} {name} seed {seed} done", file=sys.stderr)

    print(f"runs per set: {args.runs}, --seconds {seconds}\n")
    print("| workload | metric | set 1 median [Q1, Q3] | set 2 median [Q1, Q3] | spread 1 / 2 | 2 worse by | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    ok = True
    for name in names:
        first, second = sets[name]
        for metric in metrics:
            key = metric["name"]
            cols = []
            spreads = []
            medians = []
            for results in (first, second):
                values = [r["metrics"][key]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
                spreads.append((q3 - q1) / med)
                medians.append(med)
            worse = worse_by(medians[0], medians[1], metric["better"])
            bound = metric["bound"]
            # two sets of the same code must agree both ways; the spread of
            # setup_s is shown but not gated (see README.md, "Bounds")
            if abs(worse) > bound or (key != "setup_s" and max(spreads) > bound):
                ok = False
            print(
                f"| {name} | {key} | {cols[0]} | {cols[1]} | "
                f"{spreads[0]:.3f} / {spreads[1]:.3f} | {worse:+.3f} | {bound} |"
            )
        shares = [
            sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in (first, second)
        ]
        if shares[0] != shares[1]:
            ok = False
        print(f"| {name} | failed share | {shares[0]:.6g} | {shares[1]:.6g} | | | exact |")

    print("\n| workload | untraced items_per_s (median) | traced trace.items_per_s | overhead |")
    print("| --- | --- | --- | --- |")
    for name in names:
        untraced = statistics.median(
            r["metrics"]["items_per_s"]["value"] for r in sets[name][0] + sets[name][1]
        )
        traced = run(name, 1, seconds, 1)["metrics"]["trace.items_per_s"]["value"]
        print(f"| {name} | {untraced:.5g} | {traced:.5g} | {1 - traced / untraced:+.1%} |")
    print("\nsteady within bounds" if ok else "\nNOT steady within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
