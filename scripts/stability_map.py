#!/usr/bin/env python3
"""Verdict map over the (a_hat, a0_hat) plane for a collinear MHD state.

Sweeps the two interface coefficients on a rectangular grid, classifies every
cell, and writes the map as CSV. The a_hat > 0 half-plane is ill posed for
collinear fields; on the a_hat = 0 line the verdict switches on the sign of
a0_hat. Cell counts per verdict are printed as a quick sanity summary.

Usage:
    python3 scripts/stability_map.py --out map.csv
    python3 scripts/stability_map.py --resolution 41 --model CompressibleMHD
"""

import argparse
import collections
import csv
import sys

import numpy as np

from mhdlab.classifier import SweepSpec, sweep
from mhdlab.domain import BasicState, ModelKind


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", default="IncompressibleMHD",
                    choices=[m.value for m in ModelKind])
    ap.add_argument("--a-range", type=float, nargs=2, default=[-2.0, 2.0],
                    metavar=("LO", "HI"))
    ap.add_argument("--a0-range", type=float, nargs=2, default=[-1.0, 1.0],
                    metavar=("LO", "HI"))
    ap.add_argument("--resolution", type=int, default=21, help="points per axis")
    ap.add_argument("--vacuum-factor", type=float, default=2.0,
                    help="H_vacuum = factor * H_plasma (keeps the state collinear)")
    ap.add_argument("--out", default="-", help="CSV path, - for stdout")
    args = ap.parse_args(argv)

    model = ModelKind(args.model)
    if model.is_mhd:
        base = BasicState(H_plasma=(1.0, 0.0), H_vacuum=(args.vacuum_factor, 0.0))
    else:
        base = BasicState()
    grid = SweepSpec(
        base=base,
        axes=(
            ("a_hat", tuple(np.linspace(*args.a_range, args.resolution))),
            ("a0_hat", tuple(np.linspace(*args.a0_range, args.resolution))),
        ),
        max_points=args.resolution ** 2,
    )

    counts = collections.Counter()
    stream = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(stream)
    writer.writerow(["a_hat", "a0_hat", "verdict", "collinear"])
    for state, result in sweep(model, grid):
        counts[result.verdict.value] += 1
        writer.writerow([f"{state.a_hat:.17g}", f"{state.a0_hat:.17g}",
                         result.verdict.value, str(result.collinear).lower()])
    if stream is not sys.stdout:
        stream.close()
        print(f"wrote {args.resolution ** 2} cells to {args.out}")

    total = sum(counts.values())
    print(f"\n{model.value}, {args.resolution}x{args.resolution} grid:")
    for verdict, count in sorted(counts.items()):
        print(f"  {verdict:<24}{count:>6}  ({100.0 * count / total:.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
