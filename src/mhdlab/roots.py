"""Root finding and growth-rate scaling fits.

Strategy: every determinant is either polynomial in s (incompressible
models) or becomes polynomial after clearing its single square root.
Candidates come from the companion matrix of that polynomial and, for
CompressibleMHD, from the large-n series of ModeSymbol.families (both in
dispersion; a symbol builds its series once, so the solves of one scaling
fit share them). Newton iteration on the original determinant
polishes them, and they survive only if the relative residual of the
ORIGINAL (unsquared) equation is below RESIDUAL_TOLERANCE. Squaring can only
add spurious roots, never lose real ones, so the gate is sound. The gate
reads the residual the polish computed for its best iterate.

Writing a compressible determinant as A + B g(s), the cleared polynomial
(A + B g)(A - B g) holds the roots of both branches. A polynomial candidate
that solves the other branch A - B g = 0 by a margin (|A + B g| greater than
_BRANCH_MARGIN times |A - B g|) cannot polish onto a root of A + B g = 0 and
is not polished. The branch test never drops an asymptotic seed, an exact
zero, a candidate of the incompressible models (which have no radical) or a
candidate where g(s) raises BranchPointError or overflows; those go through
Newton and the gate as before (an exact zero is polished only if it fails
the gate).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import ModeSymbol, _poly_candidates, _s0_candidates
from .dispersion import dispersion_eval, dispersion_scale, mode_symbol
from .domain import BasicState, ModeRoot, ModelKind, ScalingFit, Wavevector
from .errors import BranchPointError, DomainError, FitError

RESIDUAL_TOLERANCE = 1e-10
MAX_ITERATIONS = 100

# Newton stops when |step| < _STEP_TOL * (1 + |s|); candidates closer than
# _DEDUPE_TOL * (1 + |s|) are considered the same root.
_STEP_TOL = 1e-14
_DEDUPE_TOL = 1e-9
# a polynomial candidate this many times closer to the other branch
# A - B g = 0 than to A + B g = 0 is not polished
_BRANCH_MARGIN = 1e3
# a symbol keeps the root sets of this many n; the oldest goes first
_SOLVED_PER_SYMBOL = 8


@dataclass(frozen=True)
class S0Report:
    """Outcome of the imaginary-axis scan of the leading-order frequency."""

    max_re_s0: float
    per_sample: tuple
    tolerance: float
    passed: bool
    failures: tuple = ()


def _residual(sym: ModeSymbol, s: complex, n):
    """The determinant at s and its relative residual |D(s)|/scale(s), or
    (None, inf) where g(s) hits a branch point or overflows."""
    try:
        dv = dispersion_eval(sym, s, n)
        return dv, abs(dv.value) / dispersion_scale(sym, s, n)
    except (BranchPointError, OverflowError):
        return None, math.inf


def newton_refine(sym: ModeSymbol, s: complex, n: int) -> tuple[complex, float]:
    """Polish a root candidate by Newton iteration on the determinant.

    Returns the iterate with the smallest relative residual and that
    residual; the start and inf if no iterate could be evaluated.
    """
    s = complex(s)
    best, best_res = s, math.inf
    for _ in range(MAX_ITERATIONS):
        dv, res = _residual(sym, s, n)
        if dv is None:
            break
        if res < best_res:
            best, best_res = s, res
        if dv.jacobian_ds == 0:
            break
        step = dv.value / dv.jacobian_ds
        s = s - step
        if abs(step) < _STEP_TOL * (1.0 + abs(s)):
            res = _residual(sym, s, n)[1]
            if res < best_res:
                best, best_res = s, res
            break
    return best, best_res


def _wrong_branch(sym: ModeSymbol, s: complex, n: int) -> bool:
    """True when s plainly solves A - B g = 0 rather than the determinant
    A + B g = 0; never for incompressible models or where g raises."""
    if not sym.model.is_compressible:
        return False
    try:
        g = sym.g(s)[0]
    except (BranchPointError, OverflowError):
        return False
    if sym.model.is_mhd:
        A = (n * s - sym.a0) * (sym.rho * s * s + sym.wp * sym.wp)
        Bg = s * (n * sym.wm * sym.wm - sym.c1) * g
    else:
        A = n * s * s - sym.a0 * s
        Bg = -(sym.a / sym.rho) * g
    return abs(A + Bg) > _BRANCH_MARGIN * abs(A - Bg)


def _finish_root(sym: ModeSymbol, s: complex, residual: float, n) -> ModeRoot | None:
    # written so that a nan residual fails the gate too
    if not residual <= RESIDUAL_TOLERANCE:
        return None
    # a finite residual means g was evaluated at this very s, so lambda_plus
    # cannot hit a branch point
    lp = sym.lambda_plus(s)
    # the vacuum exponent is +1 on the magnetic models; Euler has no vacuum side
    lm = complex(1.0) if sym.model.is_mhd else complex(math.nan, math.nan)
    neutral = s == 0
    # only the plasma side can fail
    admissible = not neutral and s.real > 0.0 and lp.real < 0.0
    return ModeRoot(
        s=s, lambda_plus=lp, lambda_minus=lm, residual=residual, admissible=admissible, n=n,
        neutral=neutral,
    )


def root_sort_key(root: ModeRoot):
    s = root.s
    return (-s.real, -abs(s.imag), s.real, s.imag)


def solve_dispersion(model: ModelKind, state: BasicState, omega: Wavevector, n: int) -> list:
    """All residual-verified roots of the determinant, most unstable first;
    a repeated int n on one symbol returns a fresh list of its stored roots."""
    sym = mode_symbol(model, state, omega)
    if n < 1:
        raise DomainError(f"mode index must be >= 1, got {n}")
    try:
        float(n)
    except OverflowError:
        raise DomainError(f"mode index {n} overflows a float") from None
    # only an int n is stored, so 25.0 or True gets roots that carry it
    key = n if type(n) is int else None
    if key in sym.solved:
        return list(sym.solved[key])
    candidates = [
        c for c in _poly_candidates(sym.polynomial(n)) if c == 0 or not _wrong_branch(sym, c, n)
    ]
    if model is ModelKind.CompressibleMHD:
        # Asymptotic seeds guard against conditioning loss in the squared
        # polynomial at large n.
        candidates.extend(fam.evaluate(n) for fam in sym.families)
    roots: list[ModeRoot] = []
    for cand in candidates:
        # an exact zero is polished only when it fails the gate: then the
        # constant term underflowed or fell below the companion's rounding
        s, residual = cand, (_residual(sym, cand, n)[1] if cand == 0 else math.inf)
        if not residual <= RESIDUAL_TOLERANCE:
            s, residual = newton_refine(sym, cand, n)
        made = _finish_root(sym, s, residual, n)
        if made is None:
            continue
        tol = _DEDUPE_TOL * (1.0 + abs(made.s))
        dup = next((i for i, r in enumerate(roots) if abs(r.s - made.s) <= tol), None)
        if dup is None:
            roots.append(made)
        elif made.residual < roots[dup].residual:
            roots[dup] = made
    roots.sort(key=root_sort_key)
    if key is not None:
        if len(sym.solved) >= _SOLVED_PER_SYMBOL:
            del sym.solved[next(iter(sym.solved))]
        sym.solved[key] = tuple(roots)
    return roots


def _mode_indices(name: str, given) -> list:
    """The mode indices of a list as ints: a nonempty list of whole numbers,
    strictly increasing with every n >= 1, else DomainError."""
    given = list(given)
    try:
        ns = [int(n) for n in given]
    except (TypeError, ValueError, OverflowError):
        ns = None
    if not ns or ns != given or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise DomainError(
            f"{name} must be nonempty integers, strictly increasing with every n >= 1, got {given}"
        )
    return ns


def dominant_root(roots) -> ModeRoot | None:
    """Admissible root with the largest growth rate, or None."""
    adm = [r for r in roots if r.admissible]
    return min(adm, key=root_sort_key) if adm else None


def fit_scaling(model: ModelKind, state: BasicState, omega: Wavevector, n_grid) -> ScalingFit:
    """OLS fit of log(max admissible Re s) against log n: Re s ~ C n^{-p}."""
    ns = _mode_indices("n_grid", n_grid)
    if ns[-1] < 10 * ns[0]:
        raise DomainError(f"n_grid must span at least one decade, got {ns}")
    growth, failing = [], []
    for n in ns:
        best = dominant_root(solve_dispersion(model, state, omega, n))
        if best is None:
            failing.append(n)
        else:
            growth.append(best.s.real)
    if failing:
        raise FitError(f"no admissible root at n = {failing}", failing_n=tuple(failing))
    logn = np.log(np.array(ns, dtype=float))
    logg = np.log(np.array(growth))
    slope, intercept = np.polyfit(logn, logg, 1)
    resid = logg - (slope * logn + intercept)
    return ScalingFit(
        exponent=float(-slope),
        coefficient=float(math.exp(intercept)),
        n_range=(ns[0], ns[-1]),
        rms_log_error=float(np.sqrt(np.mean(resid**2))),
    )


def scan_s0(state: BasicState, omega_samples, tolerance: float) -> S0Report:
    """Scan the leading-order symbol for roots with positive real part.

    The well-posedness argument needs every leading-order frequency on the
    closed left half plane; this gathers numerical evidence over a batch of
    directions and reports the worst real part found.
    """
    samples = list(omega_samples)
    if not samples:
        raise ValueError("need at least one direction sample")
    per_sample = []
    failures = []
    for idx, omega in enumerate(samples):
        sym = mode_symbol(ModelKind.CompressibleMHD, state, omega)
        if sym.wp == 0 and sym.wm == 0:
            raise DomainError(
                "leading-order scan needs wp or wm nonzero (direction not orthogonal to both fields)"
            )
        try:
            roots = _s0_candidates(sym)
        except (np.linalg.LinAlgError, DomainError) as exc:
            failures.append(f"sample {idx}: polynomial solve failed ({exc})")
            per_sample.append(math.nan)
            continue
        per_sample.append(max((s.real for s in roots), default=0.0))
    finite = [v for v in per_sample if not math.isnan(v)]
    worst = max(finite) if finite else math.nan
    passed = bool(finite) and not failures and worst <= tolerance
    return S0Report(
        max_re_s0=worst, per_sample=tuple(per_sample), tolerance=float(tolerance),
        passed=passed, failures=tuple(failures),
    )
