"""Frozen-state stability verdicts and parameter sweeps.

The trichotomy implemented here: with both tangential fields collinear (an
empty condition for the purely fluid models) a positive interface
coefficient a > 0 produces frequencies growing like sqrt(n), i.e. genuine
ill-posedness; a = 0 with a0 > 0 leaves only the n-independent exponential
growth exp(a0 t); everything else shows no high-frequency growth at all.
The numeric path must reproduce the algebraic verdict or fail loudly.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from operator import attrgetter

from .domain import (
    FIELD_SLOTS, STATE_FIELDS, BasicState, Classification, ModelKind, Verdict, Wavevector,
    put_slot, require_valid
)
from .errors import ConfigError, ConflictError, FitError
from .roots import fit_scaling

COLLINEARITY_REL_TOL = 1e-9

# A nonzero a_hat counts as the exact a = 0 case when
# |a| <= _A_ZERO_TOL * (1 + |a|), that is |a| <= 1e-12 / (1 - 1e-12).
# The cutoff is absolute, about 1e-12 for every a_hat: it does not scale
# with rho_hat, the fields or the other determinant terms.
_A_ZERO_TOL = 1e-12


def is_collinear(state: BasicState) -> bool:
    """Cross-product collinearity test; zero fields count as collinear.

    |Hp x Hv| <= COLLINEARITY_REL_TOL * max(1, |Hp| |Hv|). Where a product
    overflows, the relative test is decided on each field scaled by a power
    of two to components of size about 1, which leaves it unchanged.
    """
    hp2, hp3 = state.H_plasma
    hv2, hv3 = state.H_vacuum
    cross = hp2 * hv3 - hp3 * hv2
    scale = math.hypot(hp2, hp3) * math.hypot(hv2, hv3)
    if math.isfinite(cross) and math.isfinite(scale):
        return abs(cross) <= COLLINEARITY_REL_TOL * max(1.0, scale)
    p = -math.frexp(max(abs(hp2), abs(hp3)))[1]
    v = -math.frexp(max(abs(hv2), abs(hv3)))[1]
    hp2, hp3 = math.ldexp(hp2, p), math.ldexp(hp3, p)
    hv2, hv3 = math.ldexp(hv2, v), math.ldexp(hv3, v)
    cross = hp2 * hv3 - hp3 * hv2
    return abs(cross) <= COLLINEARITY_REL_TOL * math.hypot(hp2, hp3) * math.hypot(hv2, hv3)


def _witness_direction(state: BasicState) -> Wavevector:
    """Unit direction orthogonal to the shared field axis ((1,0) if none)."""
    for vec in (state.H_plasma, state.H_vacuum):
        mag = math.hypot(*vec)
        if mag > 0:
            return Wavevector(-vec[1] / mag, vec[0] / mag)
    return Wavevector(1.0, 0.0)


# Every witness-free outcome, shared by all the states that reach it.
_ILL_POSED = Classification(Verdict.IllPosed, collinear=True, rt_sign_ok=False)
_EXPONENTIAL = Classification(Verdict.ExponentiallyUnstable, collinear=True, rt_sign_ok=False)
_NO_GROWTH = tuple(  # indexed [collinear][rt_sign_ok]
    tuple(Classification(Verdict.NoHadamardGrowth, c, r) for r in (False, True))
    for c in (False, True)
)


def _outcome(model: ModelKind, state: BasicState, collinear: bool) -> Classification:
    """The a_hat/a0_hat verdict table of a valid state of known collinearity;
    a near-zero a_hat warns at the line that called this function's caller."""
    a = state.a_hat
    if a and abs(a) <= _A_ZERO_TOL * (1.0 + abs(a)):
        msg = f"a_hat={a!r} is below the zero-detection threshold; classifying as the a = 0 case"
        warnings.warn(msg, stacklevel=3)
        a = 0.0
    if a == 0.0:
        return _EXPONENTIAL if collinear and state.a0_hat > 0.0 else _NO_GROWTH[collinear][False]
    if a < 0.0 or not collinear:
        return _NO_GROWTH[collinear][a < 0.0]
    if model.is_mhd:
        return Classification(Verdict.IllPosed, True, False, witness=_witness_direction(state))
    return _ILL_POSED


def classify_frozen(model: ModelKind, state: BasicState) -> Classification:
    """Algebraic stability verdict for one frozen state."""
    require_valid(model, state)
    return _outcome(model, state, is_collinear(state) if model.is_mhd else True)


def _reclassify(model: ModelKind, state: BasicState, collinear: bool) -> Classification:
    """classify_frozen for a state of decided collinearity. sweep calls both
    on one line, so that a near-zero a_hat warns from one place."""
    require_valid(model, state)
    return _outcome(model, state, collinear)


def numeric_classify(
    model: ModelKind,
    state: BasicState,
    n_grid,
    omega_samples,
) -> Classification:
    """Scaling-law confirmation of classify_frozen.

    Fits Re s against n for every sampled direction (plus the orthogonal
    witness direction when the fields are collinear). An exponent near 1/2
    with positive coefficient signals sqrt(n) frequency growth; that numeric
    finding must match the algebraic verdict exactly, otherwise a conflict
    error carrying all evidence is raised.
    """
    analytic = classify_frozen(model, state)
    directions = list(omega_samples)
    if model.is_mhd and analytic.collinear:
        directions.append(_witness_direction(state))
    if not directions:
        directions.append(Wavevector(1.0, 0.0))
    fits = []
    for omega in directions:
        try:
            fits.append(fit_scaling(model, state, omega, n_grid))
        except FitError:
            continue
    matching = [f for f in fits if abs(f.exponent - 0.5) <= 0.05 and f.coefficient > 0]
    numeric_illposed = bool(matching)
    if numeric_illposed != (analytic.verdict is Verdict.IllPosed):
        raise ConflictError(
            "numeric scaling disagrees with the algebraic verdict: "
            f"analytic={analytic.verdict.value}, numeric_illposed={numeric_illposed}, "
            f"fits={[(f.exponent, f.coefficient) for f in fits]}",
            analytic=analytic,
            fits=tuple(fits),
        )
    evidence = min(matching or fits, key=lambda f: f.rms_log_error, default=None)
    return replace(analytic, evidence=evidence)


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian grid over BasicState fields, row-major in axis order.

    Building it checks each axis value once, after the max_points check, by
    setting that one field on the base: BasicState checks each field on its
    own, so a value valid there is valid at every point. ``axes`` holds the
    converted floats; the first invalid value in axis order raises
    BasicState's own error.
    """

    base: BasicState
    axes: tuple  # ((field_name, (value, ...)), ...)
    max_points: int = 100_000

    def __post_init__(self):
        if not isinstance(self.base, BasicState):
            raise ConfigError(f"sweep base must be a BasicState, got {type(self.base).__name__}")
        try:
            names = [name for name, _ in self.axes]
            sizes = [len(values) for _, values in self.axes]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sweep axes must be (name, values) pairs: {exc}") from None
        unknown = [n for n in names if n not in STATE_FIELDS]
        if unknown:
            raise ConfigError(f"unknown sweep axes: {unknown}; valid: {sorted(STATE_FIELDS)}")
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate sweep axes in {names}")
        total = math.prod(sizes)
        if total > self.max_points:
            raise ConfigError(f"sweep has {total} points, exceeding max_points={self.max_points}")

        def checked(name, value):  # value as BasicState converts it, set on the base
            attr, index = slot = FIELD_SLOTS[name]
            fields = vars(self.base).copy()
            put_slot(fields, slot, value)
            got = getattr(BasicState(**fields), attr)
            return got if index is None else got[index]

        axes = tuple((name, tuple(checked(name, v) for v in values)) for name, values in self.axes)
        object.__setattr__(self, "axes", axes)

    def points(self):
        """States in row-major order (last axis varies fastest), built
        unchecked from the checked values: each row sets the outer axes'
        fields once, each point the last axis's one field."""
        if not self.axes:
            yield self.base
            return
        *outer, (last_name, last_values) = self.axes
        slots = [FIELD_SLOTS[name] for name, _ in outer]
        last = FIELD_SLOTS[last_name]
        fields = vars(self.base).copy()
        for row in itertools.product(*(values for _, values in outer)):
            for slot, value in zip(slots, row):
                put_slot(fields, slot, value)
            for value in last_values:
                put_slot(fields, last, value)
                state = object.__new__(BasicState)
                vars(state).update(fields)
                yield state


def sweep(model: ModelKind, grid: SweepSpec):
    """classify_frozen over every grid point, in grid order; building the grid
    checked every axis value. Each distinct (H_plasma, H_vacuum) value's
    collinearity is decided once, at its first point; later points reuse the
    flag with their own a_hat, a0_hat and witness. A fluid model has no
    collinearity to reuse, so it classifies each point directly.
    """
    if not model.is_mhd:
        return [(st, classify_frozen(model, st)) for st in grid.points()]
    # a field that no axis sets is the base's at every point
    varied = {FIELD_SLOTS[name][0] for name, _ in grid.axes} & {"H_plasma", "H_vacuum"}
    key = attrgetter(*sorted(varied) or ["H_plasma"])
    decided = {}
    out = []
    for st in grid.points():
        pair = key(st)
        flag = decided.get(pair)
        outcome = classify_frozen(model, st) if flag is None else _reclassify(model, st, flag)
        if flag is None:
            decided[pair] = outcome.collinear
        out.append((st, outcome))
    return out
