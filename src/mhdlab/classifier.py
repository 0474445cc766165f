"""Frozen-state stability verdicts and parameter sweeps.

The trichotomy implemented here: with both tangential fields collinear (an
empty condition for the purely fluid models) a positive interface
coefficient a > 0 produces frequencies growing like sqrt(n), i.e. genuine
ill-posedness; a = 0 with a0 > 0 leaves only the n-independent exponential
growth exp(a0 t); everything else shows no high-frequency growth at all.
The numeric path must reproduce the algebraic verdict or fail loudly.
sweep maps the verdict over a SweepSpec grid, a row (one value of every
outer axis) at a time, from what the verdict table reads of each axis value
(the sign of a_hat, whether a0_hat > 0, the exact tangential fields).
classify_frozen decides the first point of each row class and last-axis
value class; every later row of a class shares its first row's outcomes. A
point with a near-zero a_hat is never shared, so each such point warns.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

from .domain import (
    FIELD_SLOTS, STATE_FIELDS, BasicState, Classification, ModelKind, Verdict, Wavevector,
    assemble, put_slot, require_valid
)
from .errors import ConfigError, ConflictError, FitError
from .roots import fit_scaling
from .dispersion import mode_symbol

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
    return _relatively_collinear(hp2, hp3, hv2, hv3)


def _relatively_collinear(hp2: float, hp3: float, hv2: float, hv3: float) -> bool:
    """|Hp x Hv| <= COLLINEARITY_REL_TOL * |Hp| |Hv| with no floor, decided on each
    field scaled by a power of two to components of size about 1."""
    p = -math.frexp(max(abs(hp2), abs(hp3)))[1]
    v = -math.frexp(max(abs(hv2), abs(hv3)))[1]
    hp2, hp3 = math.ldexp(hp2, p), math.ldexp(hp3, p)
    hv2, hv3 = math.ldexp(hv2, v), math.ldexp(hv3, v)
    cross = hp2 * hv3 - hp3 * hv2
    return abs(cross) <= COLLINEARITY_REL_TOL * math.hypot(hp2, hp3) * math.hypot(hv2, hv3)


def _witness_direction(h_plasma, h_vacuum) -> Wavevector:
    """Unit direction orthogonal to the shared field axis ((1,0) if none)."""
    for vec in (h_plasma, h_vacuum):
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


def _near_zero(a: float) -> bool:
    """Whether a nonzero a_hat counts as the exact a = 0 case, with a warning."""
    return a != 0.0 and abs(a) <= _A_ZERO_TOL * (1.0 + abs(a))


def _witness_problem(model: ModelKind, state: BasicState):
    """(model, state, direction) of a collinear MHD state's witness fit. With the
    fields relatively collinear, wp = wm = 0 there and the determinant is rho s
    [n s^2 - a0 s - (a/rho) g(s)], the Euler one at the fast speed sqrt(alpha)."""
    omega = _witness_direction(state.H_plasma, state.H_vacuum)
    if not _relatively_collinear(*state.H_plasma, *state.H_vacuum):
        return model, state, omega
    c = math.sqrt(mode_symbol(model, state, omega).alpha) if model.is_compressible else state.c_hat
    euler = ModelKind.CompressibleEuler if model.is_compressible else ModelKind.IncompressibleEuler
    reduced = BasicState(rho_hat=state.rho_hat, c_hat=c, a_hat=state.a_hat, a0_hat=state.a0_hat)
    return euler, reduced, Wavevector(1.0, 0.0)


def classify_frozen(model: ModelKind, state: BasicState) -> Classification:
    """Algebraic stability verdict for one frozen state: the verdict table of
    its collinearity, the sign of a_hat and whether a0_hat > 0. A near-zero
    a_hat warns from the calling line and counts as a = 0; an ill-posed MHD
    state's witness comes from its tangential fields."""
    require_valid(model, state)
    collinear = is_collinear(state) if model.is_mhd else True
    a = state.a_hat
    if _near_zero(a):
        msg = f"a_hat={a!r} is below the zero-detection threshold; classifying as the a = 0 case"
        warnings.warn(msg, stacklevel=2)
        a = 0.0
    if a == 0.0:
        return _EXPONENTIAL if collinear and state.a0_hat > 0.0 else _NO_GROWTH[collinear][False]
    if a < 0.0 or not collinear:
        return _NO_GROWTH[collinear][a < 0.0]
    if model.is_mhd:
        witness = _witness_direction(state.H_plasma, state.H_vacuum)
        return Classification(Verdict.IllPosed, True, False, witness=witness)
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
    error carrying all evidence is raised. Where the fields are collinear
    relative to their sizes, the witness fit runs on the reduced Euler symbol
    (see _witness_problem), so the evidence may come from that symbol.
    """
    analytic = classify_frozen(model, state)
    problems = [(model, state, omega) for omega in omega_samples]
    if model.is_mhd and analytic.collinear:
        problems.append(_witness_problem(model, state))
    if not problems:
        problems.append((model, state, Wavevector(1.0, 0.0)))
    fits = []
    for problem in problems:
        try:
            fits.append(fit_scaling(*problem, n_grid))
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
    return assemble(Classification, {**vars(analytic), "evidence": evidence})


def _row_points(fields: dict, slot, values):
    """Each point of a grid row: ``fields`` with the last axis's slot set to
    each of its values in turn."""
    for value in values:
        put_slot(fields, slot, value)
        yield fields


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian grid over BasicState fields, row-major in axis order.

    Building it checks each axis value once, after the max_points check, by
    setting that one field on the base: BasicState checks each field on its
    own, so a value valid there is valid at every point. ``axes`` holds the
    converted floats; the first invalid value in axis order raises
    BasicState's own error. A grid with an empty axis has no point, so it
    checks no value and keeps every axis empty. ``max_points`` must be a
    whole number and an axis's values a sequence of numbers, not a string.
    """

    base: BasicState
    axes: tuple  # ((field_name, (value, ...)), ...)
    max_points: int = 100_000

    def __post_init__(self):
        if not isinstance(self.base, BasicState):
            raise ConfigError(f"sweep base must be a BasicState, got {type(self.base).__name__}")
        try:
            whole = int(self.max_points) == self.max_points
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise ConfigError(f"sweep max_points must be a whole number, got {self.max_points!r}")
        try:
            names = [name for name, _ in self.axes]
            sizes = [len(values) for _, values in self.axes]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sweep axes must be (name, values) pairs: {exc}") from None
        text = [name for name, values in self.axes if isinstance(values, (str, bytes))]
        if text:
            raise ConfigError(f"sweep axes {text} give their values as a string, not numbers")
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

        pairs = self.axes if total else ((name, ()) for name, _ in self.axes)
        axes = tuple((name, tuple(checked(name, v) for v in values)) for name, values in pairs)
        object.__setattr__(self, "axes", axes)

    def _rows(self):
        """The grid walk, one row (one value of every outer axis) at a time in
        row-major order: an iterator per row over the BasicState attributes of
        its points (the last axis varies), as one dict updated in place. Each
        row sets the outer axes' fields once, each point the last axis's one
        field; a row left unread draws no point."""
        fields = vars(self.base).copy()
        if not self.axes:
            yield iter((fields,))
            return
        *outer, (last_name, last_values) = self.axes
        slots = [FIELD_SLOTS[name] for name, _ in outer]
        last = FIELD_SLOTS[last_name]
        for row in itertools.product(*(values for _, values in outer)):
            for slot, value in zip(slots, row):
                put_slot(fields, slot, value)
            yield _row_points(fields, last, last_values)

    def points(self):
        """States in row-major order, the order of sweep()'s verdicts, built
        unchecked from the checked values of the grid walk."""
        for row in self._rows():
            for fields in row:
                yield assemble(BasicState, fields)


def _axis_parts(read: set, name: str, values) -> list:
    """What the verdict table reads of each value of the axis ``name``: the
    sign of a_hat (0.0 and -0.0 alike), or None where it is near zero and
    warns; whether a0_hat > 0; the exact value of a tangential field component
    or other field in ``read`` (a1_hat on a fluid model), a zero as an infinity
    of its sign so that signed zeros stay apart; 0 for rho_hat, c_hat and any
    other field. Points whose parts are equal on every axis get equal
    outcomes."""
    attr = FIELD_SLOTS[name][0]
    if attr == "a_hat":
        return [None if _near_zero(v) else (v > 0.0) - (v < 0.0) for v in values]
    if attr == "a0_hat":
        return [v > 0.0 for v in values]
    if attr in read:
        return [v or math.copysign(math.inf, v) for v in values]
    return [0] * len(values)


def sweep(model: ModelKind, grid: SweepSpec) -> list[Classification]:
    """One Classification per grid point, in ``grid.points()`` order: the list
    ``[classify_frozen(model, st) for st in grid.points()]``, on values checked
    when the grid was built.

    A point is decided by its parts on every axis (see _axis_parts).
    classify_frozen runs once per row class (the parts of a row's outer
    values) and part of the last axis: the first row of a class is decided
    point by point, sharing the outcome of its first point of each last-axis
    part, and every later row of the class extends the list with that row's
    outcome objects, so it draws no point from the walk. A point with a
    near-zero a_hat, on any axis or the base, is never shared, nor is its
    row, so each such point warns."""
    read = {"H_plasma", "H_vacuum"} if model.is_mhd else {"H_plasma", "H_vacuum", "a1_hat"}
    *outer, last = [_axis_parts(read, name, values) for name, values in grid.axes] or [[None]]
    if all(name != "a_hat" for name, _ in grid.axes) and _near_zero(grid.base.a_hat):
        last = [None] * len(last)  # every point takes the base's near-zero a_hat
    shared = None not in last  # else every row holds a near-zero a_hat point
    first = {}  # row class -> where its first row starts in out
    out = []
    for row, cls in zip(grid._rows(), itertools.product(*outer)):
        near = None in cls  # a near-zero outer a_hat: every point of the row warns
        if shared and not near:
            start = first.setdefault(cls, len(out))
            if start < len(out):
                out += out[start:start + len(last)]
                continue
        decided = {}  # last-axis part -> the outcome of its first point in the row
        for f, part in zip(row, itertools.repeat(None) if near else last):
            outcome = decided.get(part)
            if outcome is None:
                outcome = classify_frozen(model, assemble(BasicState, f))
                if part is not None:
                    decided[part] = outcome
            out.append(outcome)
    return out
