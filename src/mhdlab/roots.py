"""Root finding and growth-rate scaling fits.

Strategy: every determinant is either polynomial in s (incompressible models)
or becomes polynomial after clearing its single square root. Candidates come
from the companion matrix of that polynomial and, for CompressibleMHD, from
the large-n series of ModeSymbol.families (both in dispersion; a symbol builds
its series once, so the solves of one scaling fit share them). Once a fit's
first n has an admissible root, the companions of its later n are solved in
one stacked eigenvalue call per size, and each solve takes its n's candidates
from the symbol. Newton iteration on the original determinant polishes them,
and they survive only if the relative residual of the ORIGINAL (unsquared)
equation is below RESIDUAL_TOLERANCE. Squaring can only add spurious roots,
never lose real ones, so the gate is sound. The gate reads the residual the
polish computed for its best iterate.

ModeSymbol._terms gives a compressible determinant's A and B in A + B g(s).
The cleared polynomial (A + B g)(A - B g) holds the roots of both branches. A
polynomial candidate that solves the other branch A - B g = 0 by a margin
(|A + B g| greater than _BRANCH_MARGIN times |A - B g|) cannot polish onto a
root of A + B g = 0 and is not polished. The branch test never drops an
asymptotic seed, an exact zero, an incompressible candidate (no radical) or a
candidate where g(s) raises BranchPointError or overflows; those go through
Newton and the gate as before. Each bit-distinct kept candidate is polished
once; an exact zero that is an exact root stops at its first evaluation.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .dispersion import ModeSymbol, _poly_candidates, _prime_candidates, _s0_candidates
from .dispersion import dispersion_eval, dispersion_scale, mode_symbol
from .domain import BasicState, ModeRoot, ModelKind, ScalingFit, Wavevector, _finite, assemble
from .domain import mode_indices
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


def newton_refine(sym: ModeSymbol, s: complex, n: int) -> tuple[complex, float]:
    """Polish a root candidate by Newton iteration on the determinant.

    Stops at an exact root, a zero derivative, a non-finite iterate, the
    iterate after a step below _STEP_TOL, or where g(s) hits a branch point
    or overflows: at most MAX_ITERATIONS evaluations. Returns the iterate of
    smallest relative residual and that residual; the start and inf if none.
    """
    s = complex(s)
    best, best_res = s, math.inf
    small_step = False
    for _ in range(MAX_ITERATIONS):
        try:
            value, jac = dispersion_eval(sym, s, n)
            res = abs(value) / dispersion_scale(sym, s, n)
        except (BranchPointError, OverflowError):
            break
        if res < best_res:
            best, best_res = s, res
        if small_step or value == 0 or jac == 0:
            break
        step = value / jac
        s = s - step
        if not cmath.isfinite(s):
            break
        small_step = abs(step) < _STEP_TOL * (1.0 + abs(s))
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
    A, B = sym._terms(s, n, False)
    return abs(A + B * g) > _BRANCH_MARGIN * abs(A - B * g)


def _finish_root(sym: ModeSymbol, s: complex, residual: float, n) -> ModeRoot:
    # the caller has gated the residual, so it is finite: g was evaluated at this
    # very s, so lambda_plus cannot hit a branch point; when s is the polish's
    # last iterate, it reads that g from the symbol's slot instead of computing it again
    lp = sym.lambda_plus(s)
    # the vacuum exponent is +1 on the magnetic models; Euler has no vacuum side
    lm = complex(1.0) if sym.model.is_mhd else complex(math.nan, math.nan)
    neutral = s == 0
    # only the plasma side can fail; value() has checked n, so ModeRoot's checks hold
    admissible = not neutral and s.real > 0.0 and lp.real < 0.0
    return assemble(
        ModeRoot, s=s, lambda_plus=lp, lambda_minus=lm, residual=residual,
        admissible=admissible, n=n, neutral=neutral,
    )


def root_sort_key(root: ModeRoot):
    s = root.s
    return (-s.real, -abs(s.imag), s.real, s.imag)


def solve_dispersion(model: ModelKind, state: BasicState, omega: Wavevector, n: int) -> list:
    """All residual-verified roots of the determinant, most unstable first;
    a repeated int n on one symbol returns a fresh list of its stored roots."""
    sym = mode_symbol(model, state, omega)
    # only an int n is stored, so 25.0 or True gets roots that carry it
    key = n if type(n) is int else None
    if key in sym.solved:
        return list(sym.solved[key])
    poly = sym.primed.pop(key, None) or _poly_candidates(sym.polynomial(n))
    seeds = []
    if model is ModelKind.CompressibleMHD:
        # Asymptotic seeds guard against conditioning loss in the squared
        # polynomial at large n.
        seeds = [fam.evaluate(n) for fam in sym.families]
    tried = []
    roots: list[ModeRoot] = []
    for i, cand in enumerate(poly + seeds):
        # the branch test leaves g(cand) in the symbol's slot for the polish
        if i < len(poly) and cand != 0 and _wrong_branch(sym, cand, n):
            continue
        # Newton is deterministic, so a repeat (== and, for signed zeros, repr) adds nothing
        if cand in tried and repr(cand) in map(repr, tried):
            continue
        tried.append(cand)
        s, residual = newton_refine(sym, cand, n)
        # written so that a nan residual fails the gate too
        if not residual <= RESIDUAL_TOLERANCE:
            continue
        tol = _DEDUPE_TOL * (1.0 + abs(s))
        dup = next((j for j, r in enumerate(roots) if abs(r.s - s) <= tol), None)
        if dup is None:
            roots.append(_finish_root(sym, s, residual, n))
        elif residual < roots[dup].residual:
            roots[dup] = _finish_root(sym, s, residual, n)
    roots.sort(key=root_sort_key)
    if key is not None:
        if len(sym.solved) >= _SOLVED_PER_SYMBOL:
            del sym.solved[next(iter(sym.solved))]
        sym.solved[key] = tuple(roots)
    return roots


def dominant_root(roots) -> ModeRoot | None:
    """Admissible root with the largest growth rate, or None."""
    adm = [r for r in roots if r.admissible]
    return min(adm, key=root_sort_key) if adm else None


def fit_scaling(model: ModelKind, state: BasicState, omega: Wavevector, n_grid) -> ScalingFit:
    """Closed-form least-squares line of math.log(max admissible Re s) against
    math.log n, every sum exact (math.fsum): Re s ~ C n^{-p}. rms_log_error is
    the RMS of the line's residuals in log Re s. Raises FitError at the first
    n of n_grid without an admissible root."""
    ns = mode_indices("n_grid", n_grid)
    if ns[-1] < 10 * ns[0]:
        raise DomainError(f"n_grid must span at least one decade, got {ns}")
    growth = []
    for n in ns:
        best = dominant_root(solve_dispersion(model, state, omega, n))
        if best is None:
            raise FitError(f"no admissible root at n = {n}", failing_n=(n,))
        if not growth:
            _prime_candidates(mode_symbol(model, state, omega), ns[1:])
        growth.append(best.s.real)
    m = len(ns)
    x = [math.log(n) for n in ns]
    y = [math.log(g) for g in growth]
    xbar, ybar = math.fsum(x) / m, math.fsum(y) / m
    dx = [xi - xbar for xi in x]
    slope = math.fsum(d * (yi - ybar) for d, yi in zip(dx, y)) / math.fsum(d * d for d in dx)
    intercept = ybar - slope * xbar
    resid2 = math.fsum((yi - (slope * xi + intercept)) ** 2 for xi, yi in zip(x, y))
    return assemble(  # the decade check above is ScalingFit's own
        ScalingFit, exponent=-slope, coefficient=math.exp(intercept), n_range=(ns[0], ns[-1]),
        rms_log_error=math.sqrt(resid2 / m),
    )


def scan_s0(state: BasicState, omega_samples, tolerance: float) -> S0Report:
    """Scan the leading-order symbol for roots with positive real part.

    The well-posedness argument needs every leading-order frequency on the
    closed left half plane; this gathers numerical evidence over a batch of
    directions and reports the worst real part found.
    """
    tolerance = _finite("tolerance", tolerance)
    samples = list(omega_samples)
    if not samples:
        raise DomainError("need at least one direction sample")
    per_sample, failures = [], []
    for idx, omega in enumerate(samples):
        sym = mode_symbol(ModelKind.CompressibleMHD, state, omega)
        if sym.wp == 0 and sym.wm == 0:
            raise DomainError(
                "leading-order scan needs wp or wm nonzero (direction not orthogonal to both fields)"
            )
        try:
            roots = _s0_candidates(sym)
        except DomainError as exc:
            failures.append(f"sample {idx}: polynomial solve failed ({exc})")
            per_sample.append(math.nan)
            continue
        per_sample.append(max((s.real for s in roots), default=0.0))
    finite = [v for v in per_sample if not math.isnan(v)]
    worst = max(finite) if finite else math.nan
    passed = bool(finite) and not failures and worst <= tolerance
    return S0Report(
        max_re_s0=worst, per_sample=tuple(per_sample), tolerance=tolerance,
        passed=passed, failures=tuple(failures),
    )
