"""Interface determinants, spatial exponents and the interface matrix.

All operations work at unit tangential wavevector: the stored Wavevector is
normalized internally and only its direction matters. Complex square roots
take the principal branch (Re sqrt >= 0) throughout, so the flow-side
exponent -sqrt(...) automatically has nonpositive real part.

The interface symbol of one (model, state, direction) is a ModeSymbol, built
once by mode_symbol(), the one public way into it: value(s, n), scale(s, n),
lambda_plus(s), matrix(s, n), families and polynomial(n). dispersion_eval
and dispersion_scale are value and scale under the module names the solver
calls them by, so that the benchmark can count them. Its determinant (s is
the frequency per unit mode index n) has one of two forms:

  Euler models   n s^2 - a0 s - (a/rho) g(s)
  MHD models     (n s - a0) P + s (n wm^2 - (a + i wm a1)) g(s)

with P = rho s^2 + wp^2 and wp/wm the plasma/vacuum field projections onto
the unit wavevector. ModeSymbol.g is the only place that knows whether the
flow is compressible: g = 1 for the incompressible models,
g(s) = sqrt(1 + (s/c)^2) for CompressibleEuler and g(s) = sqrt(1 + s^4 / D)
for CompressibleMHD, with D = (c^2 + cA^2) s^2 + c^2 wp^2/rho and cA the
Alfven speed. The flow-side exponent is -g(s). The incompressible forms are
the exact pointwise c -> infinity limits of the compressible ones and reduce
to the familiar density-scaled displays at rho = 1.

The large-n frequency series of a symbol, AsymptoticRoot families built from
the roots of its leading-order symbol, live here too: ModeSymbol.families
computes them on first use and keeps them, once per (state, direction).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .domain import BasicState, ModelKind, Wavevector, alfven_speed, require_valid, w_pair
from .errors import BranchPointError, DomainError, ResonanceError

# Relative threshold below which the g(s) radicand denominator counts as a
# genuine branch-point hit (only reachable when wp != 0).
_BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class DeterminantValue:
    """Determinant value and its analytic s-derivative, for Newton steps."""

    value: complex
    jacobian_ds: complex


@dataclass(frozen=True)
class ModeSymbol:
    """Interface symbol of one model, state and direction.

    Holds the state's scalars and the direction-dependent coefficients
    wp, wm, c1 = a + i wm a1, alpha = c^2 + cA^2 and beta = c^2 wp^2/rho.
    Methods take a complex s. Besides g, two methods branch on
    compressibility. value leaves the factor g = 1 out of the
    incompressible forms: in complex arithmetic a factor 1.0 flips signed
    zeros and turns inf into nan, so it would not reproduce the polynomial
    determinants. value also keeps the CompressibleEuler Jacobian in its
    own form K s/(c^2 g), and polynomial clears the radical, which changes
    the degree.
    """

    model: ModelKind
    rho: float
    a: float
    a0: float
    a1: float
    c: float
    wp: float
    wm: float
    c1: complex
    alpha: float
    beta: float
    # root sets solve_dispersion computed on this symbol, keyed by int n
    solved: dict = field(default_factory=dict, compare=False, repr=False)

    def g(self, s: complex):
        """Radical factor g(s) and dg/ds on the principal branch.

        For wp = 0 the MHD ratio s^4/D reduces analytically to s^2/alpha,
        which keeps the neutral frequency s = 0 regular (the apparent 0/0
        there is removable).
        """
        if not self.model.is_compressible:
            return 1.0, 0.0
        if not self.model.is_mhd:
            g = cmath.sqrt(1.0 + (s / self.c) ** 2)
            if g == 0:
                raise BranchPointError(f"spatial-exponent turning point at s={s!r}")
            return g, s / (self.c**2 * g)
        alpha, beta = self.alpha, self.beta
        if beta == 0.0:
            ratio = s * s / alpha
            g = cmath.sqrt(1.0 + ratio)
            if g == 0:
                raise BranchPointError(f"radical factor vanishes at s={s!r}")
            return g, s / (alpha * g)
        D = alpha * s * s + beta
        scale = alpha * abs(s) ** 2 + beta
        if abs(D) <= _BRANCH_TOL * scale:
            raise BranchPointError(
                f"branch point of the spatial exponent: (c^2+cA^2)s^2 + c^2 wp^2/rho = 0 at s={s!r}"
            )
        g = cmath.sqrt(1.0 + s**4 / D)
        if g == 0:
            raise BranchPointError(f"radical factor vanishes at s={s!r}")
        # two divisions by D, not one by D^2: D^2 can underflow for tiny beta
        dg = (s**3 / D) * ((alpha * s * s + 2.0 * beta) / D) / g
        return g, dg

    def lambda_plus(self, s: complex) -> complex:
        """Flow-side spatial exponent -g(s) of the decaying mode."""
        return complex(-self.g(s)[0])

    def _coupling(self, s: complex) -> complex:
        """P = rho s^2 + wp^2, raising ResonanceError where it vanishes."""
        P = self.rho * s * s + self.wp * self.wp
        scale = self.rho * abs(s) ** 2 + self.wp * self.wp
        if scale == 0.0 or abs(P) <= 1e-13 * scale:
            raise ResonanceError(
                f"pressure-velocity coupling resonance: rho s^2 + wp^2 = 0 at s={s!r}"
            )
        return P

    def value(self, s: complex, n: int) -> DeterminantValue:
        """The determinant and its s-derivative."""
        if n < 1:
            raise ValueError(f"mode index must be >= 1, got {n}")
        g, dg = self.g(s)
        a0, rho = self.a0, self.rho
        compressible = self.model.is_compressible
        if not self.model.is_mhd:
            K = self.a / rho
            value = n * s * s - a0 * s - K * g
            jac = 2.0 * n * s - a0
            if compressible:
                jac = jac - K * s / (self.c**2 * g)
            return DeterminantValue(value, jac)
        P = rho * s * s + self.wp * self.wp
        A = (n * s - a0) * P
        dA = n * P + (n * s - a0) * 2.0 * rho * s
        Bc = n * self.wm * self.wm - self.c1
        if not compressible:
            return DeterminantValue(A + s * Bc, dA + Bc)
        return DeterminantValue(A + s * Bc * g, dA + Bc * g + s * Bc * dg)

    def scale(self, s: complex, n: int) -> float:
        """Termwise magnitude of the determinant at s, for relative residuals."""
        gmag = abs(self.g(s)[0])
        if not self.model.is_mhd:
            return max(n * abs(s) ** 2 + abs(self.a0 * s) + abs(self.a / self.rho) * gmag, 1e-300)
        Pmag = self.rho * abs(s) ** 2 + self.wp * self.wp
        scale = (
            n * abs(s) * Pmag
            + abs(self.a0) * Pmag
            + abs(s) * (n * self.wm * self.wm + abs(self.c1)) * gmag
        )
        return max(scale, 1e-300)

    def polynomial(self, n: int) -> np.ndarray:
        """Polynomial whose root set contains every root of the determinant."""
        a, a0, rho = self.a, self.a0, self.rho
        compressible = self.model.is_compressible
        if not self.model.is_mhd:
            if not compressible:
                return np.array([n, -a0, -a / rho], dtype=complex)
            if a == 0:
                return np.array([n, -a0, 0.0], dtype=complex)
            K = a / rho
            # (ns^2 - a0 s)^2 = K^2 (1 + (s/c)^2)
            return np.array(
                [n * n, -2.0 * n * a0, a0 * a0 - (K / self.c) ** 2, 0.0, -K * K],
                dtype=complex,
            )
        P = np.array([rho, 0.0, self.wp * self.wp], dtype=complex)
        A = np.convolve(np.array([n, -a0], dtype=complex), P)
        Bc = n * self.wm * self.wm - self.c1
        if not compressible:
            # A + s(n wm^2 - c1) stays cubic
            return A + np.array([0.0, 0.0, Bc, 0.0], dtype=complex)
        if Bc == 0:
            return A
        D = np.array([self.alpha, 0.0, self.beta], dtype=complex)
        # A^2 D = B^2 (D + s^4) with B = Bc s: B^2 (D + s^4) is the degree-8
        # array Bc^2 [0, 0, 1, 0, alpha, 0, beta, 0, 0]
        B2 = np.array([0.0, 0.0, 1.0, 0.0, self.alpha, 0.0, self.beta, 0.0, 0.0], dtype=complex)
        return np.convolve(np.convolve(A, A), D) - Bc * Bc * B2

    def matrix(self, s: complex, n: int) -> np.ndarray:
        """Interface matrix in the unknowns (phi, q[, xi]). Its determinant is
        value times 1/s (Euler) or -n/P (MHD): the pressure column is oriented
        for that identity, so the solvability system, where the pressure enters
        the kinematic row as -v1(q), carries it with opposite sign."""
        a, a0, rho = self.a, self.a0, self.rho
        if not self.model.is_mhd:
            if s == 0:
                raise ResonanceError("kinematic coupling diverges at s = 0")
            g = self.g(s)[0]
            return np.array(
                [[n * s - a0, g / (rho * s)], [a, 1.0]], dtype=complex
            )
        P = self._coupling(s)
        g = self.g(s)[0]
        return np.array(
            [
                [n * s - a0, s * g / P, 0.0],
                [a, 1.0, 1j * n * self.wm],
                [self.a1 + 1j * n * self.wm, 0.0, -float(n)],
            ],
            dtype=complex,
        )

    @cached_property
    def families(self) -> tuple:
        """The large-n series families (see _series_families), built on first use."""
        return tuple(_series_families(self))


@dataclass(frozen=True)
class AsymptoticRoot:
    """Coefficients of the frequency series s = s0 + s1/sqrt(n) + s2/n + s3/n^{3/2}.

    s3 is the first coefficient beyond the displayed expansions; it is
    retained so that the truncated series meets the advertised
    O(n^{-3/2}) residual budget even when a0 != 0.
    """

    s0: complex
    s1: complex
    s2: complex
    s3: complex = 0j

    def evaluate(self, n: int) -> complex:
        rt = math.sqrt(n)
        return self.s0 + self.s1 / rt + self.s2 / n + self.s3 / (n * rt)


def _poly_candidates(coeffs) -> list:
    """Companion-matrix roots, with exact s = 0 factors deflated first. Leading
    coefficients up to 1e-300 times the largest are dropped (only exact zeros
    if it is inf or nan); the matrix and its eigenvalues are np.roots'. A
    companion with a coefficient that is not finite raises DomainError."""
    c = np.asarray(coeffs, dtype=complex)
    mags = np.abs(c)
    lead = mags.max()
    tiny = 1e-300 * lead if math.isfinite(lead) else 0.0
    mags = mags.tolist()
    first, end = 0, len(mags)
    while first < end - 1 and mags[first] <= tiny:
        first += 1
    out = []
    while end - first > 1 and mags[end - 1] == 0:
        out.append(0j)
        end -= 1
    if end - first > 1:
        if not math.isfinite(lead):
            bad = next(i for i, m in enumerate(mags) if not math.isfinite(m))
            raise DomainError(f"s^{len(mags) - 1 - bad} coefficient {complex(c[bad])} is not finite")
        companion = np.eye(end - first - 1, k=-1, dtype=complex)
        companion[0] = -c[first + 1 : end] / c[first]
        out.extend(np.linalg.eigvals(companion).tolist())
    return out


def _leading_symbol(sym: ModeSymbol, s: complex):
    """Leading-order symbol rho s^2 + wp^2 + wm^2 g(s), its derivative and
    its termwise magnitude."""
    g, dg = sym.g(s)
    rho, wp, wm = sym.rho, sym.wp, sym.wm
    phi = rho * s * s + wp * wp + wm * wm * g
    dphi = 2.0 * rho * s + wm * wm * dg
    scale = max(rho * abs(s) ** 2 + wp * wp + wm * wm * abs(g), 1e-300)
    return phi, dphi, scale


def _s0_candidates(sym: ModeSymbol) -> list:
    """Nonzero roots of the leading-order symbol, residual filtered."""
    rho, wp, wm = sym.rho, sym.wp, sym.wm
    if wp == 0 and wm == 0:
        return []
    if not sym.model.is_compressible:
        y = math.sqrt((wp * wp + wm * wm) / rho)
        return [complex(0.0, y), complex(0.0, -y)]
    if wm == 0:
        y = abs(wp) / math.sqrt(rho)
        return [complex(0.0, y), complex(0.0, -y)]
    alpha, beta = sym.alpha, sym.beta
    # Clear the radical: (rho u + wp^2)^2 (alpha u + beta) = wm^4 (alpha u + beta + u^2), u = s^2
    try:
        cubic = np.array([
            rho * rho * alpha, rho * rho * beta + 2.0 * rho * wp * wp * alpha - wm**4,
            2.0 * rho * wp * wp * beta + (wp**4 - wm**4) * alpha, (wp**4 - wm**4) * beta,
        ], dtype=complex)
    except OverflowError:
        raise DomainError(f"leading-order symbol overflows for wp={wp:g}, wm={wm:g}") from None
    out = []
    for u in _poly_candidates(cubic):
        if u == 0:
            continue
        root_u = cmath.sqrt(u)
        for s in (root_u, -root_u):
            try:
                phi, _, scale = _leading_symbol(sym, s)
            except (BranchPointError, OverflowError):
                continue
            if abs(phi) <= 1e-8 * scale:
                out.append(s)
    return out


def _series_families(sym: ModeSymbol) -> list:
    """Frequency series families for large n, one entry per root branch.

    W = wp^2 + wm^2 selects the regime: W = 0 with a/rho > 0 gives the
    sqrt(a/rho)/sqrt(n) branch, W = 0 with a/rho = 0 (a = 0, or a/rho below
    the smallest subnormal) gives the exact a0/n branch, W != 0 gives
    oscillatory leading order with an O(1/n) real part. Regimes with no
    growing branch have no family.
    """
    wp, wm = sym.wp, sym.wm
    a, a0, rho = sym.a, sym.a0, sym.rho
    if wp == 0 and wm == 0:
        if a < 0:
            return []
        K = a / rho
        if K == 0:
            return [AsymptoticRoot(0j, 0j, complex(a0), 0j)] if a0 != 0 else []
        s1 = math.sqrt(K)
        s2 = a0 / 2.0
        curv = K * K / (2.0 * sym.alpha) if sym.model.is_compressible else 0.0
        s3 = (a0 * s2 - s2 * s2 + curv) / (2.0 * s1)
        return [AsymptoticRoot(0j, complex(s1), complex(s2), complex(s3))]
    families = []
    for s0 in _s0_candidates(sym):
        try:
            _, dphi, _ = _leading_symbol(sym, s0)
            g0 = sym.g(s0)[0]
        except (BranchPointError, OverflowError):
            continue
        if abs(dphi) <= 1e-12 * max(1.0, rho * abs(s0)):
            continue
        P0 = rho * s0 * s0 + wp * wp
        s2 = (a0 * P0 / s0 + sym.c1 * g0) / dphi
        families.append(AsymptoticRoot(s0, 0j, s2, 0j))
    families.sort(key=lambda f: (-f.s0.imag, f.s2.real))
    return families


# The last symbol built and the (model, state, omega) objects it came from:
# the symbol carries the root sets solve_dispersion stored on it across
# public calls (growth_ratio reuses the solves of the modes it amplifies).
# Matched by identity, since states equal up to the sign of a zero field must
# not share a symbol; the held references keep ids from reuse.
_last_symbol = (None, None, None, None)


def mode_symbol(model: ModelKind, state: BasicState, omega: Wavevector) -> ModeSymbol:
    """Validate the state for the model and compute its coefficients once
    (given the same three objects as the last call, return its symbol)."""
    global _last_symbol
    last_model, last_state, last_omega, last = _last_symbol
    if model is last_model and state is last_state and omega is last_omega:
        return last
    require_valid(model, state)
    wp, wm = w_pair(state, omega)
    cA = alfven_speed(state)
    try:
        alpha, beta = state.c_hat**2 + cA**2, state.c_hat**2 * wp * wp / state.rho_hat
    except OverflowError:
        if model.is_compressible:
            raise DomainError(
                f"c_hat^2 + cA^2 overflows for c_hat={state.c_hat:g}, cA={cA:g}"
            ) from None
        alpha = beta = math.inf  # the incompressible models never read them
    sym = ModeSymbol(
        model=model, rho=state.rho_hat, a=state.a_hat, a0=state.a0_hat, a1=state.a1_hat,
        c=state.c_hat, wp=wp, wm=wm, c1=state.a_hat + 1j * wm * state.a1_hat,
        alpha=alpha, beta=beta,
    )
    _last_symbol = (model, state, omega, sym)
    return sym


# the solver's evaluations, dispersion_eval(sym, s, n) = sym.value(s, n) and
# likewise scale, under module names so that the benchmark can count them
dispersion_eval = ModeSymbol.value
dispersion_scale = ModeSymbol.scale
