"""The benchmark's three workloads: seeded inputs, timed passes, checks.

Every workload runs a fixed number of passes. A pass has the same make-up
every time and its own inputs, drawn from (seed, workload, pass index) at
set-up, so no pass repeats another's inputs and a run's work does not depend
on how fast the host is. The program is reached only through the public
functions of ``mhdlab.cli``, ``classifier``, ``roots`` and ``hadamard``,
looked up on their modules at call time so that a traced run can wrap them.
"""
from __future__ import annotations

import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mhdlab import classifier, cli, hadamard, roots
from mhdlab.domain import BasicState, ModelKind, Wavevector

import oracle
from oracle import ILL, MODELS

WORKLOAD_IDS = {"verdict_sweep": 1, "root_fit": 2, "mode_check": 3}

FIT_N_GRID = (100, 1_000, 10_000, 100_000, 1_000_000)
MODE_N = (25, 100, 400)
MODE_T = 0.0
GROWTH_T = 1.0
# the mpmath oracle runs on these mode indices for a subset of root_fit cases
ORACLE_N = (100, 10_000, 1_000_000)
# root_fit solves again and checks every root of this many first passes;
# solving all passes again would double a run's length
ROOT_CHECK_PASSES = 8

A_ZERO_WARNING = "zero-detection threshold"


def pass_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    # SeedSequence entropy must be non-negative; any integer seed is accepted
    return np.random.default_rng([seed % 2**64, WORKLOAD_IDS[workload], index])


def is_defect_warning(w: warnings.WarningMessage) -> bool:
    """NumPy RuntimeWarnings and the classifier's near-zero a_hat warning."""
    if issubclass(w.category, RuntimeWarning):
        return True
    return issubclass(w.category, UserWarning) and A_ZERO_WARNING in str(w.message)


def report_failure(label: str, exc=None, caught=()) -> None:
    """Say on stderr why an operation counts as failed."""
    reasons = [repr(exc)] if exc is not None else []
    reasons += [f"{w.category.__name__}: {w.message}" for w in caught if is_defect_warning(w)]
    print(f"failed: {label}: {'; '.join(reasons)}", file=sys.stderr)


class recorded_warnings(warnings.catch_warnings):
    """Record every warning raised inside the block, repeats included."""

    def __init__(self):
        super().__init__(record=True)

    def __enter__(self):
        caught = super().__enter__()
        warnings.simplefilter("always")
        return caught


def state_dict(st: BasicState) -> dict:
    """The oracle's view of a state: plain floats, no package types."""
    return {
        "rho": st.rho_hat,
        "c": st.c_hat,
        "a": st.a_hat,
        "a0": st.a0_hat,
        "a1": st.a1_hat,
        "Hp": tuple(st.H_plasma),
        "Hv": tuple(st.H_vacuum),
    }


def _signed(rng, lo, hi, sign):
    return float(sign) * float(rng.uniform(lo, hi))


def _random_state(rng, model: str, kind: str) -> BasicState:
    """A state whose closed-form verdict is fixed by ``kind``.

    kind: ILL (collinear, a > 0), EXP (collinear, a = 0, a0 > 0),
    NEG (collinear, a < 0) or SKEW (non-collinear fields, a > 0; for the
    fluid models, which have no fields, a = 0 with a0 < 0 instead).
    Windows follow the package's property tests: rho in [0.5, 4], c in
    [1, 3], |a| in [0.5, 4], |a0| <= 2, |a1| <= 2, field sizes in [0.3, 2].
    """
    rho = float(rng.uniform(0.5, 4.0))
    c = float(rng.uniform(1.0, 3.0))
    a0 = float(rng.uniform(-2.0, 2.0))
    if kind == "ILL":
        a = float(rng.uniform(0.5, 4.0))
    elif kind == "EXP":
        a, a0 = 0.0, float(rng.uniform(0.1, 2.0))
    elif kind == "NEG":
        a = -float(rng.uniform(0.5, 4.0))
    elif model in oracle.MHD_MODELS:
        a = float(rng.uniform(0.5, 4.0))
    else:
        a, a0 = 0.0, -float(rng.uniform(0.1, 2.0))
    if model not in oracle.MHD_MODELS:
        return BasicState(rho_hat=rho, c_hat=c, a_hat=a, a0_hat=a0)
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    psi = theta + (float(rng.uniform(0.2, math.pi - 0.2)) if kind == "SKEW" else 0.0)
    p = _signed(rng, 0.3, 2.0, rng.choice((-1.0, 1.0)))
    v = _signed(rng, 0.3, 2.0, rng.choice((-1.0, 1.0)))
    return BasicState(
        rho_hat=rho,
        c_hat=c,
        a_hat=a,
        a0_hat=a0,
        a1_hat=float(rng.uniform(-2.0, 2.0)),
        H_plasma=(p * math.cos(theta), p * math.sin(theta)),
        H_vacuum=(v * math.cos(psi), v * math.sin(psi)),
    )


def _random_direction(rng) -> Wavevector:
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    return Wavevector(math.cos(theta), math.sin(theta))


# sampled directions keep this angle (rad) from the witness axis of a
# collinear MHD state: closer in, both field projections are so small that
# the fit over FIT_N_GRID still sees a sqrt(n) family of another coefficient
WITNESS_CLEARANCE = 0.2


def _sampled_direction(rng, state: BasicState) -> Wavevector:
    sd = state_dict(state)
    if not any(sd["Hp"] + sd["Hv"]) or not oracle.collinear("CompressibleMHD", sd["Hp"], sd["Hv"]):
        return _random_direction(rng)
    w2, w3 = oracle.witness(sd)
    axis = math.atan2(w3, w2)
    offset = float(rng.uniform(WITNESS_CLEARANCE, math.pi - WITNESS_CLEARANCE))
    theta = axis + offset + (math.pi if rng.random() < 0.5 else 0.0)
    return Wavevector(math.cos(theta), math.sin(theta))


@dataclass
class PassResult:
    seconds: float
    items: int
    failed: int
    outputs: list = field(default_factory=list)


class Workload:
    """Inputs for ``passes`` passes, generated in the constructor (set-up)."""

    name = ""

    def __init__(self, seed: int, passes: int):
        self.passes = passes
        self.inputs = [self.make_pass(pass_rng(seed, self.name, i)) for i in range(passes)]

    def make_pass(self, rng):
        raise NotImplementedError

    def prepare(self, workdir: Path) -> None:
        """Write whatever files the passes read; not part of set-up time."""

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def check(self, results) -> None:
        """Raise CheckError when an output disagrees with its check."""
        raise NotImplementedError


# ---------------------------------------------------------- verdict_sweep


class VerdictSweep(Workload):
    """``mhdlab sweep`` in process on a CompressibleMHD config, run with
    ``--jobs 1`` and ``--jobs`` = usable cores over the same grid.

    Grid: 21 a_hat values (one exactly 0, the rest of both signs) x 20
    a0_hat values of both signs x 20 H_vacuum_3 values, one of which makes
    the vacuum field collinear with the plasma field: 8400 points per call.
    """

    name = "verdict_sweep"
    AXES = ("a_hat", "a0_hat", "H_vacuum_3")
    SIZES = (21, 20, 20)

    def __init__(self, seed: int, passes: int):
        self.jobs = len(os.sched_getaffinity(0))
        self.workdir = None
        super().__init__(seed, passes)

    def make_pass(self, rng):
        hp2 = _signed(rng, 0.3, 2.0, rng.choice((-1.0, 1.0)))
        hp3 = float(rng.uniform(-2.0, 2.0))
        hv2 = _signed(rng, 0.3, 2.0, rng.choice((-1.0, 1.0)))
        base = {
            "rho_hat": float(rng.uniform(0.5, 4.0)),
            "c_hat": float(rng.uniform(1.0, 3.0)),
            "a_hat": 1.0,
            "a0_hat": 0.0,
            "a1_hat": float(rng.uniform(-2.0, 2.0)),
            "H_plasma_2": hp2,
            "H_plasma_3": hp3,
            "H_vacuum_2": hv2,
            "H_vacuum_3": 0.0,
        }
        n_a, n_a0, n_h = self.SIZES
        a_vals = [0.0] + [
            _signed(rng, 0.05, 4.0, s) for s in rng.choice((-1.0, 1.0), n_a - 1)
        ]
        a0_vals = [_signed(rng, 0.05, 2.0, s) for s in rng.choice((-1.0, 1.0), n_a0)]
        h_vals = [hv2 * hp3 / hp2]
        hp_norm = math.hypot(hp2, hp3)
        while len(h_vals) < n_h:
            hv3 = float(rng.uniform(-3.0, 3.0))
            gap = abs(oracle.cross((hp2, hp3), (hv2, hv3)))
            if gap >= 1e-2 * hp_norm * math.hypot(hv2, hv3):
                h_vals.append(hv3)
        axes = [list(rng.permutation(vals)) for vals in (a_vals, a0_vals, h_vals)]
        axes = [[float(v) for v in vals] for vals in axes]
        grid = ";".join(
            f"{name}={','.join(repr(v) for v in vals)}" for name, vals in zip(self.AXES, axes)
        )
        ini = "model = CompressibleMHD\n" + "".join(f"{k} = {v!r}\n" for k, v in base.items())
        return {"base": base, "axes": axes, "grid": grid, "ini": ini}

    def points_per_call(self) -> int:
        return math.prod(self.SIZES)

    def prepare(self, workdir: Path) -> None:
        self.workdir = workdir
        for i, inp in enumerate(self.inputs):
            (workdir / f"sweep{i}.ini").write_text(inp["ini"])

    def _paths(self, index):
        return (
            self.workdir / f"sweep{index}.ini",
            self.workdir / f"sweep{index}.jobs1.csv",
            self.workdir / f"sweep{index}.jobsN.csv",
        )

    def run_pass(self, index: int) -> PassResult:
        ini, out1, outn = self._paths(index)
        grid = self.inputs[index]["grid"]
        points = self.points_per_call()
        failed = 0
        codes = []
        with recorded_warnings() as caught:
            start = time.perf_counter()
            for jobs, out in ((1, out1), (self.jobs, outn)):
                codes.append(
                    cli.main(["sweep", str(ini), "--grid", grid, "--jobs", str(jobs), "--out", str(out)])
                )
            seconds = time.perf_counter() - start
        failed += points * sum(1 for code in codes if code != 0)
        failed += min(sum(1 for w in caught if is_defect_warning(w)), 2 * points - failed)
        if failed:
            report_failure(f"sweep pass {index}, exit codes {codes}", caught=caught)
        return PassResult(seconds, 2 * points, failed, [codes])

    def check(self, results) -> None:
        for index, res in enumerate(results):
            if res.failed:
                continue
            ini, out1, outn = self._paths(index)
            text = out1.read_bytes()
            oracle.require(
                text == outn.read_bytes(),
                f"pass {index}: --jobs 1 and --jobs {self.jobs} CSVs differ",
            )
            check_sweep_csv(text.decode(), self.inputs[index]["base"], self.inputs[index]["axes"])


def check_sweep_csv(text: str, base: dict, axes) -> None:
    """Row count, row-major order and per-row verdicts of one sweep CSV."""
    lines = text.splitlines()
    header = lines[0].split(",")
    oracle.require(
        header == list(VerdictSweep.AXES) + ["verdict", "collinear"],
        f"unexpected sweep header {header}",
    )
    a_vals, a0_vals, h_vals = axes
    expected = [(a, a0, h) for a in a_vals for a0 in a0_vals for h in h_vals]
    rows = lines[1:]
    oracle.require(
        len(rows) == len(expected), f"sweep wrote {len(rows)} rows for {len(expected)} points"
    )
    hp = (base["H_plasma_2"], base["H_plasma_3"])
    for row, (a, a0, h) in zip(rows, expected):
        cells = row.split(",")
        values = tuple(float(x) for x in cells[:3])
        oracle.require(values == (a, a0, h), f"row {row!r} out of grid order, expected {(a, a0, h)}")
        hv = (base["H_vacuum_2"], h)
        state = {"a": a, "a0": a0, "Hp": hp, "Hv": hv}
        want_verdict = oracle.expected_verdict("CompressibleMHD", state)
        want_col = "true" if oracle.collinear("CompressibleMHD", hp, hv) else "false"
        oracle.require(
            (cells[3], cells[4]) == (want_verdict, want_col),
            f"row {row!r}: expected verdict {want_verdict}, collinear {want_col}",
        )


# --------------------------------------------------------------- root_fit


class RootFit(Workload):
    """``numeric_classify`` over a mixed batch of states, n = 1e2 ... 1e6.

    Per pass and model: 4 ill-posed, 3 exponentially unstable, 3 with
    a < 0 and 2 "skew" states (non-collinear fields with a > 0 for MHD,
    a = 0 with a0 < 0 for Euler): 48 states, one sampled direction each;
    collinear MHD states also get the witness direction from the classifier,
    and their sampled direction keeps WITNESS_CLEARANCE from it.
    """

    name = "root_fit"
    KINDS = ("ILL",) * 4 + ("EXP",) * 3 + ("NEG",) * 3 + ("SKEW",) * 2

    def make_pass(self, rng):
        cases = []
        for model in MODELS:
            for kind in self.KINDS:
                state = _random_state(rng, model, kind)
                cases.append((ModelKind(model), state, _sampled_direction(rng, state)))
        return cases

    def run_pass(self, index: int) -> PassResult:
        cases = self.inputs[index]
        outputs = []
        failed = 0
        start = time.perf_counter()
        for model, state, omega in cases:
            exc = None
            with recorded_warnings() as caught:
                try:
                    out = classifier.numeric_classify(model, state, FIT_N_GRID, [omega])
                except Exception as err:  # a failed operation, counted and reported
                    exc = err
            if exc is not None or any(is_defect_warning(w) for w in caught):
                report_failure(f"numeric_classify {model.value} {state}", exc, caught)
                failed += 1
                out = None
            outputs.append(out)
        seconds = time.perf_counter() - start
        return PassResult(seconds, len(cases), failed, outputs)

    def check(self, results) -> None:
        for index, res in enumerate(results):
            for (model, state, omega), out in zip(self.inputs[index], res.outputs):
                if out is None:
                    continue
                check_classification(model.value, state, out)
                if index < ROOT_CHECK_PASSES:
                    check_roots(model, state, self.solve_directions(model, state, omega, out))
        self.check_oracle_subset(results)

    @staticmethod
    def solve_directions(model, state, omega, out):
        """The directions numeric_classify fitted: the sample, plus the witness."""
        dirs = [omega]
        if model.is_mhd and out.collinear:
            dirs.append(out.witness if out.witness is not None else Wavevector(*oracle.witness(state_dict(state))))
        return dirs

    def check_oracle_subset(self, results) -> None:
        """mpmath completeness check on one state of each verdict per model
        from the first pass, along every direction its fit solved (the
        sampled one and, for collinear MHD states, the witness).

        Oracle roots that double precision cannot be asked for, by
        oracle.beyond_double, may be missing: a root within rounding of
        s = 0, and a root beside a zero of g(s) or D(s) (see the FOUND lines
        in CHANGES.md). Every other root must be found.
        """
        first = {}
        for (model, state, omega), out in zip(self.inputs[0], results[0].outputs):
            key = (model, oracle.expected_verdict(model.value, state_dict(state)))
            if out is not None and key not in first:
                first[key] = (model, state, omega, out)
        for model, state, omega, out in first.values():
            sd = state_dict(state)
            for direction in self.solve_directions(model, state, omega, out):
                om = (direction.omega2, direction.omega3)
                for n in ORACLE_N:
                    found = [r.s for r in roots.solve_dispersion(model, state, direction, n)]
                    expected = oracle.oracle_roots(model.value, sd, om, n)
                    beyond = oracle.beyond_double(model.value, sd, om, n, expected)
                    oracle.compare_root_sets(
                        found, expected, f"{model.value} {sd} omega={om} n={n}", beyond
                    )


def check_classification(model: str, state: BasicState, out) -> None:
    """Verdict, collinear flag, fit and witness of one numeric_classify result."""
    sd = state_dict(state)
    label = f"{model} {sd}"
    want = oracle.expected_verdict(model, sd)
    oracle.require(out.verdict.value == want, f"{label}: verdict {out.verdict.value}, expected {want}")
    want_col = oracle.collinear(model, sd["Hp"], sd["Hv"])
    oracle.require(out.collinear == want_col, f"{label}: collinear {out.collinear}, expected {want_col}")
    if want == ILL:
        oracle.require(out.evidence is not None, f"{label}: ill-posed without a fit")
        oracle.check_fit(model, sd, FIT_N_GRID, out.evidence.exponent, out.evidence.coefficient)
    if want == ILL and model in oracle.MHD_MODELS:
        om = (out.witness.omega2, out.witness.omega3)
        wp, wm = oracle.projections(sd, om)
        size = math.hypot(*sd["Hp"]) + math.hypot(*sd["Hv"])
        oracle.require(
            abs(wp) <= 1e-12 * size and abs(wm) <= 1e-12 * size,
            f"{label}: witness {om} is not orthogonal to the fields",
        )


def check_roots(model: ModelKind, state: BasicState, directions) -> None:
    """Every root of every solve a fit made, solved again and checked."""
    sd = state_dict(state)
    for direction in directions:
        om = (direction.omega2, direction.omega3)
        for n in FIT_N_GRID:
            for root in roots.solve_dispersion(model, state, direction, n):
                oracle.check_root(model.value, sd, om, n, root.s, root.admissible)


# ------------------------------------------------------------- mode_check


class ModeCheck(Workload):
    """Ill-posed states of every model; each item builds the dominant mode
    at one n in MODE_N and checks it by finite differences on the mode's
    grid and on the refined grid. Each state also gets one growth_ratio
    call over MODE_N. Per pass: 4 states per model, 48 items.

    MHD modes run along the witness direction (orthogonal to the shared
    field axis, computed here); Euler modes along a sampled direction.
    """

    name = "mode_check"
    STATES_PER_MODEL = 4

    def make_pass(self, rng):
        cases = []
        for model in MODELS:
            for _ in range(self.STATES_PER_MODEL):
                state = _random_state(rng, model, "ILL")
                if model in oracle.MHD_MODELS:
                    omega = Wavevector(*oracle.witness(state_dict(state)))
                else:
                    omega = _random_direction(rng)
                cases.append((ModelKind(model), state, omega))
        return cases

    def run_pass(self, index: int) -> PassResult:
        outputs = []
        failed = 0
        items = 0
        start = time.perf_counter()
        for model, state, omega in self.inputs[index]:
            modes = []
            for n in MODE_N:
                items += 1
                exc = None
                with recorded_warnings() as caught:
                    try:
                        root = roots.dominant_root(roots.solve_dispersion(model, state, omega, n))
                        mode = hadamard.build_mode(model, state, omega, root)
                        grid = hadamard.grid_for_mode(mode)
                        coarse = hadamard.pde_residual_fd(mode, grid, MODE_T)
                        fine = hadamard.pde_residual_fd(mode, grid.refined(), MODE_T)
                        item = (n, root, coarse, fine)
                    except Exception as err:  # a failed operation, counted and reported
                        exc = err
                if exc is not None or any(is_defect_warning(w) for w in caught):
                    report_failure(f"mode {model.value} {state} n={n}", exc, caught)
                    failed += 1
                    item = None
                modes.append(item)
            exc = growth = None
            with recorded_warnings() as caught:
                try:
                    growth = hadamard.growth_ratio(model, state, omega, MODE_N, GROWTH_T)
                except Exception as err:  # a failed operation, counted and reported
                    exc = err
            if exc is not None or any(is_defect_warning(w) for w in caught):
                report_failure(f"growth_ratio {model.value} {state}", exc, caught)
                # the state's items count as failed when its growth table does
                failed += sum(1 for item in modes if item is not None)
                modes, growth = [None] * len(modes), None
            outputs.append((modes, growth))
        seconds = time.perf_counter() - start
        return PassResult(seconds, items, failed, outputs)

    def check(self, results) -> None:
        for index, res in enumerate(results):
            for (model, state, omega), (modes, growth) in zip(self.inputs[index], res.outputs):
                sd = state_dict(state)
                om = (omega.omega2, omega.omega3)
                label = f"{model.value} {sd} omega={om}"
                for item in modes:
                    if item is None:
                        continue
                    n, root, coarse, fine = item
                    oracle.check_root(model.value, sd, om, n, root.s, root.admissible)
                    oracle.check_fd_orders(coarse.interior, fine.interior, f"{label} n={n}")
                    oracle.check_boundary(coarse.boundary, f"{label} n={n}")
                if growth is None:
                    continue
                oracle.require(
                    all(e.admissible_found for e in growth), f"{label}: growth_ratio found no mode"
                )
                oracle.check_growth([e.log_ratio for e in growth], label)


WORKLOADS = {cls.name: cls for cls in (VerdictSweep, RootFit, ModeCheck)}
