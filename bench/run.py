#!/usr/bin/env python3
"""Benchmark for mhdlab: one workload per process, checked outputs, JSON result.

Usage (from the repository root):

    python3 bench/run.py --workload root_fit --seed 1 --seconds 10 --trace 0

--trace 0 runs the workload untraced and reports its end-to-end metrics:
items_per_s, setup_s (median over several fresh-process set-ups: NumPy and
mhdlab import plus input generation) and peak_rss_mb. Both times are taken
at a fixed host speed: each pass and each set-up is timed against the
reference computation in hostref.py, run next to it (see README.md).
--trace 1 wraps the package's public functions and reports the
per-layer metrics instead; each layer is read on the workload that exercises
it (see README.md), so a traced run also runs each of the other two
workloads, traced, in a fresh process of its own. The last line of standard
output is the JSON result.

The number of passes follows from --seconds (PASS_RATE passes per second,
sized so that a run measures about that long on a 2-core reference host), so
a run does the same work whatever the speed of the host.
"""
from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import hostref  # run.py's own directory is first on sys.path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("verdict_sweep", "root_fit", "mode_check")
PASS_RATE = {"verdict_sweep": 2.0, "root_fit": 3.0, "mode_check": 1.6}
MIN_PASSES = 5
SETUP_SAMPLES = 7


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, round(seconds * PASS_RATE[workload]))


def set_up(workload: str, seed: int, passes: int):
    """Import NumPy and mhdlab and generate every pass's inputs."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    return workloads.WORKLOADS[workload](seed, passes)


def probe_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh interpreter running this script's set-up, and
    the reference time it measured right after."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    setup_s, ref_s = done.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(ref_s)


def at_ref_speed(seconds: float, ref_s: float) -> float:
    """A time measured while the reference took ref_s, at the host speed
    at which it takes REF_S."""
    return seconds / ref_s * hostref.REF_S


def pass_rate(results, refs) -> float:
    """Items of one pass over the median pass time at reference speed; each
    pass is scaled by the mean of the reference times just before and just
    after it."""
    scaled = [at_ref_speed(r.seconds, (a + b) / 2) for r, a, b in zip(results, refs, refs[1:])]
    return results[0].items / statistics.median(scaled)


def run_checks(wl, results) -> bool:
    from oracle import CheckError

    try:
        wl.check(results)
    except CheckError as exc:
        print(f"check failed ({wl.name}): {exc}", file=sys.stderr)
        return False
    return True


def run_passes(wl, workdir: Path):
    """The workload's passes, with the reference timed before each pass and
    after the last: ``refs[i]`` and ``refs[i + 1]`` bracket pass i."""
    workdir.mkdir(parents=True)
    wl.prepare(workdir)
    refs = [hostref.warmed_reference()]
    results = []
    for i in range(wl.passes):
        results.append(wl.run_pass(i))
        refs.append(hostref.reference())
    print("pass_seconds = " + " ".join(f"{r.seconds:.4f}" for r in results), file=sys.stderr)
    print("ref_seconds = " + " ".join(f"{t:.4f}" for t in refs), file=sys.stderr)
    return results, refs


def plain_run(args, wl, setup: tuple[float, float], workdir: Path) -> dict:
    results, refs = run_passes(wl, workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_rate = results[0].items / statistics.median(r.seconds for r in results)
    print(f"unscaled items_per_s = {raw_rate:.6g} 1/s", file=sys.stderr)
    setups = [setup] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    correct = run_checks(wl, results)
    return {
        "correct": correct,
        "attempted": sum(r.items for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {
            "items_per_s": {"value": pass_rate(results, refs), "unit": "1/s"},
            "setup_s": {"value": statistics.median(at_ref_speed(*st) for st in setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


def traced_passes(wl, workdir: Path) -> dict:
    """One workload's passes under tracing: its own layers and checks."""
    import layers

    tracer = layers.Tracer()
    with layers.installed(tracer):
        results, refs = run_passes(wl, workdir)
    items = sum(r.items for r in results)
    metrics = layers.layer_metrics(tracer, items, wl.name)
    metrics["trace.items_per_s"] = pass_rate(results, refs)
    return {
        "correct": run_checks(wl, results),
        "attempted": items,
        "failed": sum(r.failed for r in results),
        "metrics": {
            name: {"value": value, "unit": layers.UNITS[name]} for name, value in sorted(metrics.items())
        },
    }


def traced_child(args, workload: str) -> dict:
    """Traced passes of another workload, in a fresh process of its own."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--own-layers", "--trace", "1",
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced_run(args, wl, workdir: Path) -> dict:
    """The named workload's layers from this process, every other
    workload's from a fresh process of its own, each with the same passes
    an untraced run of it makes: a layer's value does not depend on which
    workload was named (a process that has run other work first runs
    mode_check's NumPy temporaries without page faults, at about twice the
    speed)."""
    result = traced_passes(wl, workdir)
    if args.own_layers:
        return result
    for name in WORKLOAD_NAMES:
        if name == wl.name:
            continue
        other = traced_child(args, name)
        del other["metrics"]["trace.items_per_s"]
        result["metrics"].update(other["metrics"])
        result["correct"] = result["correct"] and other["correct"]
        result["attempted"] += other["attempted"]
        result["failed"] += other["failed"]
    result["metrics"] = dict(sorted(result["metrics"].items()))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--own-layers", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "mhdlab" / "__init__.py").is_file():
        print(f"error: no mhdlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    wl = set_up(args.workload, args.seed, passes_for(args.workload, args.seconds))
    setup_s = time.perf_counter() - START
    setup = (setup_s, hostref.warmed_reference())
    if args.setup_probe:
        print(*map(repr, setup))
        return 0

    workdir = BENCH / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = traced_run(args, wl, workdir)
        else:
            result = plain_run(args, wl, setup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
