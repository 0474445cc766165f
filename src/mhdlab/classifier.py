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

from .domain import (
    FIELD_SLOTS, STATE_FIELDS, BasicState, Classification, ModelKind, Verdict, Wavevector,
    require_valid
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


def _a_is_zero(state: BasicState) -> bool:
    a = state.a_hat
    if a == 0.0:
        return True
    if abs(a) <= _A_ZERO_TOL * (1.0 + abs(a)):
        warnings.warn(
            f"a_hat={a!r} is below the zero-detection threshold; "
            "classifying as the a = 0 case",
            stacklevel=3,
        )
        return True
    return False


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


def classify_frozen(model: ModelKind, state: BasicState) -> Classification:
    """Algebraic stability verdict for one frozen state."""
    require_valid(model, state)
    collinear = is_collinear(state) if model.is_mhd else True
    if _a_is_zero(state):
        return _EXPONENTIAL if collinear and state.a0_hat > 0.0 else _NO_GROWTH[collinear][False]
    if state.a_hat < 0.0 or not collinear:
        return _NO_GROWTH[collinear][state.a_hat < 0.0]
    if model.is_mhd:
        return Classification(Verdict.IllPosed, True, False, witness=_witness_direction(state))
    return _ILL_POSED


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
    """Cartesian grid over BasicState fields, row-major in axis order."""

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

    def points(self):
        """States in row-major order (last axis varies fastest).

        Each point starts from the base state's fields and replaces only the
        swept ones; an H_*_2/3 axis rebuilds just that one tuple. BasicState
        checks each field on its own, so each axis value is checked once:
        a point that holds a value no earlier point held is built by
        BasicState, and every other point is made, unchecked, from the
        values those built states converted. Values are told apart by their
        index on the axis, never by ==, so 0.0 and -0.0 stay distinct. An
        invalid value fails on the first point that holds it, with
        BasicState's own error, after the points before it were yielded.
        """
        slots = [FIELD_SLOTS[name] for name, _ in self.axes]
        axes = [tuple(values) for _, values in self.axes]
        checked = [[] for _ in axes]  # per axis, the converted values by index
        fields = vars(self.base).copy()
        for indices in itertools.product(*(range(len(values)) for values in axes)):
            fresh = False
            for (attr, index), values, done, i in zip(slots, axes, checked, indices):
                if i < len(done):
                    value = done[i]
                else:
                    value, fresh = values[i], True
                if index is None:
                    fields[attr] = value
                else:
                    vec = fields[attr]
                    fields[attr] = (value, vec[1]) if index == 0 else (vec[0], value)
            if fresh:
                state = BasicState(**fields)
                fields = vars(state).copy()
                for (attr, index), done, i in zip(slots, checked, indices):
                    if i == len(done):
                        done.append(fields[attr] if index is None else fields[attr][index])
            else:
                state = object.__new__(BasicState)
                vars(state).update(fields)
            yield state


def sweep(model: ModelKind, grid: SweepSpec):
    """classify_frozen over every grid point, in deterministic grid order."""
    return [(st, classify_frozen(model, st)) for st in grid.points()]
