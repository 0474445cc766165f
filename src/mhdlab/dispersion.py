"""Interface determinants, spatial exponents and the interface matrix.

All operations work at unit tangential wavevector: the stored Wavevector is
normalized internally and only its direction matters. Complex square roots
take the principal branch (Re sqrt >= 0) throughout, so the flow-side
exponent -sqrt(...) automatically has nonpositive real part.

The interface symbol of one (model, state, direction) is a ModeSymbol, built by
mode_symbol(), the one public way into it, which reuses the last one for the
same three objects: value(s, n), scale(s, n), lambda_plus(s), matrix(s, n),
families and polynomial(n). dispersion_eval and dispersion_scale are value and
scale under the module names the solver calls them by, so the benchmark can
count them. The determinant (s is the frequency per unit mode index n) is
A + B g(s), A and B written once, by ModeSymbol._terms, in one of two forms:

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

A compressible symbol keeps its last g result with the s object it was
computed at, in one attribute replaced in one store, and returns it when g is
next given that very object: the branch test, value, scale and lambda_plus at
one s share one radical. The large-n frequency series, AsymptoticRoot families
built from the roots of the leading-order symbol, live here too:
ModeSymbol.families builds them on first read into an attribute __init__ sets
to None, so every symbol keeps the one attribute layout __init__ gives it.
"""
from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .domain import BasicState, ModelKind, Wavevector, alfven_speed, require_valid, w_pair
from .domain import require_mode_index
from .errors import BranchPointError, DomainError, ResonanceError

# Relative threshold below which the g(s) radicand denominator counts as a
# genuine branch-point hit (only reachable when wp != 0).
_BRANCH_TOL = 1e-12


class ModeSymbol:
    """Interface symbol of one model, state and direction.

    Holds the state's scalars and the direction-dependent coefficients wp, wm,
    c1 = a + i wm a1, alpha = c^2 + cA^2 and beta = c^2 wp^2/rho, computed once
    here; they are read-only by convention, and symbols compare by identity.
    Methods take a complex s. value and the solver's branch test read A and B
    from _terms; scale keeps its own termwise sizes (faster) and polynomial its
    coefficients (bit for bit). value leaves the factor g = 1 out of the
    incompressible forms: in complex arithmetic a factor 1.0 flips signed zeros
    and turns inf into nan, so it would not reproduce the polynomial
    determinants. value keeps the CompressibleEuler Jacobian K s/(c^2 g), which
    B dg rounds differently, and polynomial clears the radical.
    """

    def __init__(self, model: ModelKind, state: BasicState, omega: Wavevector):
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
        if model.is_compressible and alpha == 0.0:
            raise DomainError(f"c_hat^2 + cA^2 underflows to 0 for c_hat={state.c_hat:g}, cA={cA:g}")
        self.model, self.rho, self.a, self.a0 = model, state.rho_hat, state.a_hat, state.a0_hat
        self.a1, self.c, self.wp, self.wm = state.a1_hat, state.c_hat, wp, wm
        self.c1, self.alpha, self.beta = state.a_hat + 1j * wm * state.a1_hat, alpha, beta
        self.solved = {}  # root sets solve_dispersion computed on this symbol, keyed by int n
        self.primed = {}  # see _prime_candidates
        self._last_g = (None, None)  # (s, (g, dg)) of the last compressible g call
        self._families = None  # see families

    def g(self, s: complex):
        """Radical factor g(s) and dg/ds on the principal branch.

        For wp = 0 the MHD ratio s^4/D reduces analytically to s^2/alpha,
        which keeps the neutral frequency s = 0 regular (the apparent 0/0
        there is removable). A compressible symbol returns its last result
        again when given the very same s object; equality would not do, as
        0j == -0j but their dg differ in the sign of zero.
        """
        if not self.model.is_compressible:
            return 1.0, 0.0
        last = self._last_g
        if last[0] is s:
            return last[1]
        if not self.model.is_mhd:
            z = s / self.c
            try:
                g = cmath.sqrt(1.0 + z**2)
            except OverflowError:  # z^2 overflows; off the axes it comes out nan
                g = math.nan
            if g != g:  # g = 2^p sqrt(4^-p + (z / 2^p)^2)
                p = math.frexp(max(abs(z.real), abs(z.imag)))[1]
                r = cmath.sqrt(math.ldexp(1.0, -2 * p) + (z * math.ldexp(1.0, -p)) ** 2)
                g = complex(math.ldexp(r.real, p), math.ldexp(r.imag, p))
            if g == 0:
                raise BranchPointError(f"spatial-exponent turning point at s={s!r}")
            dg = s / (self.c**2 * g)
        elif self.beta == 0.0:
            g = cmath.sqrt(1.0 + s * s / self.alpha)
            if g == 0:
                raise BranchPointError(f"radical factor vanishes at s={s!r}")
            dg = s / (self.alpha * g)
        else:
            alpha, beta = self.alpha, self.beta
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
        out = g, dg
        self._last_g = (s, out)
        return out

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

    def _terms(self, s: complex, n: int, slopes: bool = True):
        """A, dA/ds, B and dB/ds of the determinant A + B g at s; with slopes
        false, A and B alone."""
        a0, rho = self.a0, self.rho
        if not self.model.is_mhd:
            A, B = n * s * s - a0 * s, -self.a / rho
            return (A, 2.0 * n * s - a0, B, 0.0) if slopes else (A, B)
        P = rho * s * s + self.wp * self.wp
        u, Bc = n * s - a0, n * self.wm * self.wm - self.c1
        if not slopes:
            return u * P, s * Bc
        return u * P, n * P + u * 2.0 * rho * s, s * Bc, Bc

    def value(self, s: complex, n: int) -> tuple[complex, complex]:
        """The pair (D, dD/ds): the determinant and its s-derivative."""
        require_mode_index(n)
        g, dg = self.g(s)
        A, dA, B, dB = self._terms(s, n)
        if not self.model.is_mhd:
            # A - K g with K = -B: adding B g would flip signed zeros on the real axis
            K = -B
            jac = dA - K * s / (self.c**2 * g) if self.model.is_compressible else dA
            return A - K * g, jac
        if not self.model.is_compressible:
            return A + B, dA + dB
        return A + B * g, dA + dB * g + B * dg

    def scale(self, s: complex, n: int) -> float:
        """Termwise magnitude of the determinant at s, for relative residuals."""
        require_mode_index(n)
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
        require_mode_index(n)
        a, a0, rho = self.a, self.a0, self.rho
        compressible = self.model.is_compressible
        if not self.model.is_mhd:
            if not compressible:
                return np.array([n, -a0, -a / rho], dtype=complex)
            if a == 0:
                return np.array([n, -a0, 0.0], dtype=complex)
            K = a / rho
            try:
                Kc2 = (K / self.c) ** 2
            except OverflowError:
                raise DomainError(
                    f"(a/(rho c))^2 overflows for a_hat={a:g}, c_hat={self.c:g}"
                ) from None
            # (ns^2 - a0 s)^2 = K^2 (1 + (s/c)^2)
            try:
                return np.array([n * n, -2.0 * n * a0, a0 * a0 - Kc2, 0.0, -K * K], dtype=complex)
            except OverflowError:  # an int n^2 beyond a float
                raise DomainError(f"n^2 overflows a float for mode index n={n:.3g}") from None
        P = np.array([rho, 0.0, self.wp * self.wp], dtype=complex)
        A = np.convolve(np.array([n, -a0], dtype=complex), P)
        Bc = n * self.wm * self.wm - self.c1
        if not compressible:
            # A + s(n wm^2 - c1) stays cubic
            return A + np.array([0.0, 0.0, Bc, 0.0], dtype=complex)
        if Bc == 0:
            return A
        try:  # A^2 below holds n^2; an int n^2 beyond a float fails as on CompressibleEuler
            float(n * n)
        except OverflowError:
            raise DomainError(f"n^2 overflows a float for mode index n={n:.3g}") from None
        D = np.array([self.alpha, 0.0, self.beta], dtype=complex)
        # A^2 D = B^2 (D + s^4) with B = Bc s: B^2 (D + s^4) is the degree-8
        # array Bc^2 [0, 0, 1, 0, alpha, 0, beta, 0, 0]
        B2 = np.array([0.0, 0.0, 1.0, 0.0, self.alpha, 0.0, self.beta, 0.0, 0.0], dtype=complex)
        return np.convolve(np.convolve(A, A), D) - Bc * Bc * B2

    def matrix(self, s: complex, n: int) -> np.ndarray:
        """Boundary system in the unknowns (phi, q[, xi]), whose nullspace
        build_mode takes: the pressure enters the kinematic row as -v1(q).
        Its determinant is value times -1/s (Euler) or n/P (MHD)."""
        require_mode_index(n)
        a, a0, rho = self.a, self.a0, self.rho
        if not self.model.is_mhd:
            if s == 0:
                raise ResonanceError("kinematic coupling diverges at s = 0")
            g = self.g(s)[0]
            return np.array(
                [[n * s - a0, -g / (rho * s)], [a, -1.0]], dtype=complex
            )
        P = self._coupling(s)
        g = self.g(s)[0]
        return np.array(
            [
                [n * s - a0, -s * g / P, 0.0],
                [a, -1.0, 1j * n * self.wm],
                [self.a1 + 1j * n * self.wm, 0.0, -float(n)],
            ],
            dtype=complex,
        )

    @property
    def families(self) -> tuple:
        """The large-n series families (see _series_families), kept in _families."""
        if self._families is None:
            self._families = tuple(_series_families(self))
        return self._families


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
        require_mode_index(n)
        rt = math.sqrt(n)
        return self.s0 + self.s1 / rt + self.s2 / n + self.s3 / (n * rt)


@cache
def _subdiagonal(k: int):
    """np.eye(k, k=-1), read-only: _companion fills a copy of it."""
    template = np.eye(k, k=-1, dtype=complex)
    template.flags.writeable = False
    return template


def _companion(coeffs):
    """The exact s = 0 roots of a polynomial and np.roots' companion matrix of the rest
    (None below degree 1), leading coefficients up to 1e-300 times the largest dropped
    (only exact zeros if one is inf or nan). A non-finite one left raises DomainError."""
    c = np.asarray(coeffs, dtype=complex)
    mags = np.abs(c).tolist()
    finite = all(map(math.isfinite, mags))
    tiny = 1e-300 * max(mags) if finite else 0.0
    first, end = 0, len(mags)
    while first < end - 1 and mags[first] <= tiny:
        first += 1
    while end - first > 1 and mags[end - 1] == 0:
        end -= 1
    zeros = [0j] * (len(mags) - end)
    if end - first < 2:
        return zeros, None
    if not finite:
        bad = next(i for i, m in enumerate(mags) if not math.isfinite(m))
        raise DomainError(f"s^{len(mags) - 1 - bad} coefficient {complex(c[bad])} is not finite")
    k = end - first - 1
    companion = _subdiagonal(k).copy()
    companion[0] = -c[first + 1 : end] / c[first]
    return zeros, companion


def _eigvals(stack) -> list:
    """The eigenvalues of each companion of a stack, from one LAPACK call."""
    try:
        return np.linalg.eigvals(stack).tolist()
    except np.linalg.LinAlgError:
        raise DomainError("companion eigenvalues did not converge") from None


def _poly_candidates(coeffs) -> list:
    """Companion-matrix roots, exact s = 0 roots first, from a stack of one."""
    zeros, companion = _companion(coeffs)
    return zeros if companion is None else zeros + _eigvals(companion[None])[0]


def _prime_candidates(sym: ModeSymbol, ns) -> None:
    """Put the candidates of each n of ns that sym has not solved into sym.primed,
    from one eigenvalue call per companion size. Silent: NumPy's warnings are
    off, and an n whose polynomial, companion or size's call raises is left out."""
    sym.primed.clear()
    groups = {}
    with np.errstate(all="ignore"):
        for n in (n for n in ns if n not in sym.solved):
            with contextlib.suppress(DomainError):
                zeros, companion = _companion(sym.polynomial(n))
                if companion is not None:
                    groups.setdefault(len(companion), {})[n] = zeros, companion
        for group in groups.values():
            with contextlib.suppress(DomainError):
                values = _eigvals(np.array([companion for _, companion in group.values()]))
                sym.primed.update((n, zeros + v) for (n, (zeros, _)), v in zip(group.items(), values))


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
    """Nonzero roots of the leading-order symbol (wp or wm nonzero), residual filtered."""
    rho, wp, wm = sym.rho, sym.wp, sym.wm
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
    """The symbol of the three objects (the last call's symbol for the same objects)."""
    global _last_symbol
    last_model, last_state, last_omega, last = _last_symbol
    if model is last_model and state is last_state and omega is last_omega:
        return last
    sym = ModeSymbol(model, state, omega)
    _last_symbol = (model, state, omega, sym)
    return sym


dispersion_eval = ModeSymbol.value
dispersion_scale = ModeSymbol.scale
