#!/usr/bin/env python3
"""Growth-rate scaling study on the ill-posed family.

For collinear states with a_hat > 0 the fastest admissible growth rate along
the perpendicular direction follows Re s ~ sqrt(a_hat / rho_hat) / sqrt(n).
This script tabulates Re s over an n-grid for every model and a few
(a_hat, rho_hat) pairs, fits the power law, and writes one CSV with the raw
rates plus a fitted summary to stdout.

Usage:
    python3 scripts/growth_scaling_study.py --out rates.csv
    python3 scripts/growth_scaling_study.py --a-hat 0.5 2.0 --n-max-exp 6
"""

import argparse
import csv
import math
import sys

from mhdlab.domain import BasicState, ModelKind, Wavevector
from mhdlab.roots import dominant_root, fit_scaling, solve_dispersion

WITNESS = Wavevector(0.0, 1.0)  # perpendicular to the (1, 0)-aligned fields


def build_state(model, a_hat, rho_hat):
    kw = dict(a_hat=a_hat, rho_hat=rho_hat)
    if model.is_compressible:
        kw["c_hat"] = 2.0
    if model.is_mhd:
        kw["H_plasma"] = (1.0, 0.0)
        kw["H_vacuum"] = (2.0, 0.0)
    return BasicState(**kw)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a-hat", type=float, nargs="+", default=[0.25, 1.0, 4.0])
    ap.add_argument("--rho-hat", type=float, nargs="+", default=[1.0, 4.0])
    ap.add_argument("--n-min-exp", type=int, default=2, help="smallest n = 10**this")
    ap.add_argument("--n-max-exp", type=int, default=5, help="largest n = 10**this")
    ap.add_argument("--out", default="-", help="CSV path, - for stdout")
    args = ap.parse_args(argv)

    n_grid = [10 ** e for e in range(args.n_min_exp, args.n_max_exp + 1)]
    rows = []
    fits = []
    for model in ModelKind:
        for a_hat in args.a_hat:
            for rho_hat in args.rho_hat:
                state = build_state(model, a_hat, rho_hat)
                for n in n_grid:
                    best = dominant_root(solve_dispersion(model, state, WITNESS, n))
                    re_s = best.s.real if best is not None else float("nan")
                    rows.append((model.value, a_hat, rho_hat, n, re_s))
                fit = fit_scaling(model, state, WITNESS, n_grid)
                fits.append((model.value, a_hat, rho_hat, fit))

    stream = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(stream)
    writer.writerow(["model", "a_hat", "rho_hat", "n", "re_s"])
    for model, a_hat, rho_hat, n, re_s in rows:
        writer.writerow([model, a_hat, rho_hat, n, f"{re_s:.17g}"])
    if stream is not sys.stdout:
        stream.close()
        print(f"wrote {len(rows)} rows to {args.out}")

    print("\nfitted Re s ~ C n^-p  (target: p = 0.5, C = sqrt(a_hat/rho_hat))")
    print(f"{'model':<22}{'a_hat':>7}{'rho_hat':>9}{'p':>10}{'C':>12}{'target C':>12}")
    for model, a_hat, rho_hat, fit in fits:
        target = math.sqrt(a_hat / rho_hat)
        print(f"{model:<22}{a_hat:>7.3g}{rho_hat:>9.3g}"
              f"{fit.exponent:>10.4f}{fit.coefficient:>12.6f}{target:>12.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
