"""Explicit exponential solutions and their finite-difference verification.

A mode is the separable solution amp * exp{n(s t + lambda x1 + i tau)},
tau the tangential phase along the unit direction of omega. build_mode
extracts the interface amplitudes from the nullspace of the boundary
system and reconstructs every interior amplitude from the bulk equations;
pde_residual_fd then re-checks the whole construction with second-order
finite differences that know nothing about the algebra.

Sampling is normalized: the arrays carry every factor of the mode except
the pure growth exp(n Re s t), which is returned as its log. Only
evaluate_field puts that factor back, multiplying the arrays by it or, where
it would overflow, converting them to log magnitudes. All residuals are
reported relative to the size of the equation's terms, which makes them
invariant under the growth factor, so pde_residual_fd works on the
normalized factors and cannot overflow by design. Every field is
amp * e(x1) * phase(tau), e the decay factor, so every interior residual is
(a e + b D1e) * phase(tau), with complex scalars a, b and D1e the x1
difference of e. e is geometric on the uniform x1 grid and |e| falls away from
the interface, so each sup sits on a row at an end of the grid: the check reads
e as numbers at the few points those rows' stencils use and builds no array.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .dispersion import mode_symbol
from .domain import BasicState, HadamardMode, ModeRoot, ModelKind, Wavevector, _finite
from .errors import GridError, NotARootError, ResonanceError
from .roots import _mode_indices, dominant_root, solve_dispersion

NULLSPACE_TOLERANCE = 1e-8
TRUNCATION_EPSILON = 1e-16
OVERFLOW_EXPONENT = 700.0

MHD_FIELD_NAMES = ("q", "v1", "v2", "v3", "H1", "H2", "H3", "xi", "phi")
EULER_FIELD_NAMES = ("q", "v1", "v2", "v3", "phi")


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid for one mode: two half-space depths and a tangential period.

    points_per_direction is (plasma x1 points, vacuum x1 points, tangential
    points); the tangential direction is sampled periodically, without a
    duplicated endpoint. pde_residual_fd needs the period to hold a whole
    number of wavelengths 2 pi/n; grid_for_mode uses one.
    """

    x1_extent_plus: float
    x1_extent_minus: float
    points_per_direction: tuple
    tangential_period: float

    def __post_init__(self):
        if not (0 < self.x1_extent_plus < math.inf and 0 < self.x1_extent_minus < math.inf):
            raise GridError("half-space extents must be finite and positive")
        if not 0 < self.tangential_period < math.inf:
            raise GridError("tangential period must be finite and positive")
        points = self.points_per_direction
        if not isinstance(points, tuple) or [type(m) for m in points] != [int, int, int]:
            raise GridError(f"points_per_direction must be a tuple of three ints, got {points!r}")
        mp, mm, mt = points
        if min(mp, mm) < 4 or mt < 4:
            raise GridError("need at least 4 points per direction")

    def refined(self) -> "GridSpec":
        """Same extents with every spacing halved."""
        mp, mm, mt = self.points_per_direction
        return replace(self, points_per_direction=(2 * mp - 1, 2 * mm - 1, 2 * mt))


@dataclass(frozen=True)
class FieldSample:
    """Sampled mode fields on a GridSpec at one time.

    When log_magnitude is set the arrays hold natural logs of |field|
    (the raw values would overflow double precision).
    """

    t: float
    x1_plasma: np.ndarray
    x1_vacuum: np.ndarray | None
    tangent: np.ndarray
    plasma: dict
    vacuum: dict
    log_magnitude: bool


@dataclass(frozen=True)
class ResidualReport:
    """Relative sup-norm residuals of every equation of the model."""

    interior: dict
    boundary: dict
    spacings: tuple  # (h1 plasma, h1 vacuum or nan, h tangential, dt)

    def worst_interior(self) -> float:
        return max(self.interior.values())

    def worst_boundary(self) -> float:
        return max(self.boundary.values())


@dataclass(frozen=True)
class GrowthEntry:
    """Sup-norm amplification of the dominant admissible mode at index n."""

    n: int
    log_ratio: float
    ratio: float
    admissible_found: bool


def build_mode(
    model: ModelKind,
    state: BasicState,
    omega: Wavevector,
    root: ModeRoot,
) -> HadamardMode:
    """Assemble the full amplitude vector of one exponential solution."""
    sym = mode_symbol(model, state, omega)
    if not (root.admissible or root.neutral):
        raise NotARootError("mode construction needs an admissible or neutral root")
    s, n = root.s, root.n
    if s != 0 and math.isinf(1.0 / abs(s)):
        # the amplitude relations divide by s
        raise ResonanceError(f"1/s overflows double precision at s={s!r}")
    # the symbol's matrix orients the pressure column for the determinant
    # identity; the solvability system carries -v1(q), so flip that column
    phys = sym.matrix(s, n)
    phys[:, 1] = -phys[:, 1]
    _, svals, vh = np.linalg.svd(phys)
    if svals[-1] > NULLSPACE_TOLERANCE * max(1.0, svals[0]):
        raise NotARootError(
            f"boundary system is numerically full rank at s={s!r} "
            f"(sigma_min={svals[-1]:.3e}, sigma_max={svals[0]:.3e})"
        )
    null = vh[-1].conj()
    if abs(null[0]) > 1e-8 * np.linalg.norm(null):
        null = null / null[0]
        normalization = "phi_unit"
    else:
        null = null / np.linalg.norm(null)
        normalization = "euclidean"
    phi_amp = complex(null[0])
    q_amp = complex(null[1])
    rho = state.rho_hat
    lam = sym.lambda_plus(s)
    o2, o3 = omega.unit()
    grad = np.array([lam, 1j * o2, 1j * o3], dtype=complex)

    if not model.is_mhd:
        v = -grad * q_amp / (rho * s)
        amps = (q_amp, v[0], v[1], v[2], phi_amp)
        names = EULER_FIELD_NAMES
    else:
        xi_amp = complex(null[2])
        wp = sym.wp
        P = rho * s * s + wp * wp
        if root.neutral:
            # at s = 0 the momentum balance alone fixes the magnetic
            # amplitude and forces the velocity to vanish
            v = np.zeros(3, dtype=complex)
            H = grad * q_amp / (1j * wp)
        else:
            # the div v amplitude is exactly 0 for IncompressibleMHD, where lam = -1
            Hhat = np.array([0.0, state.H_plasma[0], state.H_plasma[1]], dtype=complex)
            div_amp = -(lam * lam - 1.0) * q_amp / (rho * s)
            v = -(s * grad * q_amp + 1j * wp * Hhat * div_amp) / P
            H = (1j * wp * v - Hhat * div_amp) / s
        amps = (q_amp, v[0], v[1], v[2], H[0], H[1], H[2], xi_amp, phi_amp)
        names = MHD_FIELD_NAMES
    return HadamardMode(
        root=root,
        amplitudes=tuple(complex(a) for a in amps),
        names=names,
        normalization=normalization,
        model=model,
        state=state,
        omega=omega,
    )


def grid_for_mode(mode: HadamardMode, points_per_direction=(256, 256, 16)) -> GridSpec:
    """Depths from the decay rates: L = min(40/(n|Re lambda|), 20), for every |omega|."""
    n = mode.root.n
    lam_p = mode_symbol(mode.model, mode.state, mode.omega).lambda_plus(mode.root.s)
    cap = 20.0
    rate_p = n * abs(lam_p.real)
    if rate_p == 0:
        raise GridError("plasma-side mode does not decay; cannot truncate the half-space")
    L_plus = min(40.0 / rate_p, cap)
    # the vacuum exponent is +1
    L_minus = min(40.0 / n, cap) if mode.model.is_mhd else L_plus
    grid = GridSpec(L_plus, L_minus, tuple(points_per_direction), 2.0 * math.pi / n)
    _check_truncation(mode, grid, lam_p)
    return grid


def _check_truncation(mode: HadamardMode, grid: GridSpec, lam_p: complex) -> None:
    """Require the mode to have decayed below TRUNCATION_EPSILON at the far
    end of each half-space; the one truncation test of every grid."""
    n = mode.root.n
    exponent = n * lam_p.real * grid.x1_extent_plus
    if math.exp(exponent) > TRUNCATION_EPSILON:
        raise GridError(
            f"plasma truncation too lossy at n={n}: depth {grid.x1_extent_plus:.3g} keeps "
            f"exp({exponent:.3g}); increase n or relax the cap"
        )
    if mode.model.is_mhd and math.exp(-n * grid.x1_extent_minus) > TRUNCATION_EPSILON:
        raise GridError(f"vacuum truncation too lossy at n={n}")


def evaluate_field(mode: HadamardMode, grid: GridSpec, t: float) -> FieldSample:
    """Pointwise mode evaluation; switches to log magnitudes on overflow."""
    s, n = mode.root.s, mode.root.n
    lam_p = mode_symbol(mode.model, mode.state, mode.omega).lambda_plus(s)
    _check_truncation(mode, grid, lam_p)
    _finite("t", t)
    mp, mm, mt = grid.points_per_direction
    tfac = cmath.exp(1j * n * s.imag * t)
    coef = {k: a * tfac for k, a in zip(mode.names, mode.amplitudes) if k != "phi"}
    x1p = np.linspace(0.0, grid.x1_extent_plus, mp)
    x1m = np.linspace(-grid.x1_extent_minus, 0.0, mm) if mode.model.is_mhd else None
    tau = np.arange(mt) * (grid.tangential_period / mt)
    phase = np.exp(1j * n * tau)
    ep = np.exp(n * lam_p * x1p)[:, None]
    plasma = {k: a * ep * phase for k, a in coef.items() if k != "xi"}
    vacuum = {"xi": coef["xi"] * np.exp(n * 1.0 * x1m)[:, None] * phase} if x1m is not None else {}
    log_growth = n * s.real * t
    scale = math.exp(log_growth) if abs(log_growth) <= OVERFLOW_EXPONENT else None

    def rescale(arr):
        if scale is not None:
            return arr * scale
        mag = np.abs(arr)
        return np.where(mag > 0, np.log(np.where(mag > 0, mag, 1.0)), -math.inf) + log_growth

    return FieldSample(
        t=t,
        x1_plasma=x1p,
        x1_vacuum=x1m,
        tangent=tau,
        plasma={k: rescale(v) for k, v in plasma.items()},
        vacuum={k: rescale(v) for k, v in vacuum.items()},
        log_magnitude=scale is None,
    )


def _decay_ends(rate, start: float, stop: float, m: int, width: int, exp) -> dict:
    """exp(rate x1) on the first and the last `width` points of np.linspace(start,
    stop, m), placed as NumPy places them and keyed by row as NumPy indexes them."""
    step = (stop - start) / (m - 1)
    rows = (*range(width), *range(-width, 0))
    return {i: exp(rate * (stop if i % m == m - 1 else i % m * step + start)) for i in rows}


def _rel(sup: float, *scales) -> float:
    """Sup of the residual against the largest analytic term magnitude.

    The yardstick is grid independent on purpose: equations whose exact
    terms cancel almost completely (stiff balances at large n) would
    otherwise be normalized by their own differencing error, which hides
    the h^2 convergence of the numerator.
    """
    scale = max(map(abs, scales), default=0.0)
    return sup / max(scale, 1e-300)


def pde_residual_fd(mode: HadamardMode, grid: GridSpec, t: float) -> ResidualReport:
    """Second-order FD residuals of every equation, relative sup norms.

    x1 derivatives are one-sided at the interface rows; the tangential
    direction wraps periodically; time uses a centered difference with
    dt = htau / max(1, |s|), htau the tangential spacing: a step turns the
    mode by at most n htau radians in t, as in tau. Boundary conditions
    involve no differencing and must vanish at machine precision.

    Every plasma field is F e(x1) phase(tau) exp(n s t), with amplitude F,
    decay factor e = exp(n lambda x1) and phase = exp(i n tau). The x1 stencil
    acts on e, the periodic tau-stencils multiply the phase by numbers read at
    tau = 0, +-h, and Dt acts on the time factor. So every interior residual is
    (a e + b D1e) phase(tau), D1e the np.gradient stencil of e, with complex
    scalars a and b; as |phase| = 1 its sup is that of |a e + b D1e| over x1.
    e is geometric on the uniform grid, so D1e = kappa e on every interior row,
    and |e| falls with x1 (Re lambda < 0): the sup is on row 0, row 1 or the
    last. The vacuum Laplacian is F_xi (D2ev + dtau2 ev), ev = exp(n x1) rising
    to the interface: its sup is on row 0 or one of the last two. e and ev are
    computed only at the points those rows' stencils read.
    A wrong phase, sign or tangential amplitude changes a or b and shows.

    Interior equations in report order; [..] terms and the equations
    marked MHD belong to the magnetic models, Hhat = (0, H_plasma):
      momentum_i   rho Dt v_i [- wp d_tau H_i] + d_i q,  i = 1..3
      induction_i  Dt H_i - wp d_tau v_i [+ Hhat_i div v, if compressible]  (MHD)
      continuity   Dt (q [- Hhat_2 H_2 - Hhat_3 H_3]) + rho c^2 div v  (compressible)
      divergence   div v  (incompressible)
      magnetic_divergence  div H,  vacuum_laplace  Laplacian of xi  (MHD)
    """
    model = mode.model
    mhd = model.is_mhd
    sym = mode_symbol(model, mode.state, mode.omega)
    n, s = mode.root.n, mode.root.s
    lam_p = sym.lambda_plus(s)
    _check_truncation(mode, grid, lam_p)
    mp, mm, mt = grid.points_per_direction
    # the periodic tau-stencils wrap correctly only over whole wavelengths 2 pi / n
    waves = n * grid.tangential_period / (2.0 * math.pi)
    if not (0.5 <= waves < math.inf and math.isclose(waves, round(waves), rel_tol=1e-12)):
        raise GridError(
            f"tangential period {grid.tangential_period!r} holds {waves:.6g} wavelengths "
            f"2 pi/{n}; it must hold a whole number"
        )
    if mt < 8 * round(waves):
        raise GridError(
            f"{mt} tangential points resolve less than 8 points per wavelength; refine the grid"
        )
    h1p = grid.x1_extent_plus / (mp - 1)
    h1m = grid.x1_extent_minus / (mm - 1) if mhd else math.nan
    htau = grid.tangential_period / mt
    if abs(lam_p.imag) > 0:
        ppw = 2.0 * math.pi / (n * abs(lam_p.imag) * h1p)
        if ppw < 8:
            raise GridError(
                f"plasma x1 oscillation resolved by {ppw:.2f} < 8 points per wavelength"
            )
    _finite("t", t)
    tfac = cmath.exp(1j * n * s.imag * t)
    coef = {k: a * tfac for k, a in zip(mode.names, mode.amplitudes)}
    state = mode.state
    rho, c = state.rho_hat, state.c_hat
    o2, o3 = mode.omega.unit()
    wp, wm = sym.wp, sym.wm
    # the periodic tau-stencils of exp(i n tau) at tau = 0, +-htau and Dt are scalars
    fwd, back = cmath.exp(1j * n * htau), cmath.exp(-1j * n * htau)
    dtau = (fwd - back) / (2.0 * htau)
    dtau2 = (fwd - 2.0 + back) / (htau * htau)
    dt = htau / max(1.0, abs(s))
    Dt = (cmath.exp(n * s * dt) - cmath.exp(-n * s * dt)) / (2.0 * dt)

    # analytic per-term magnitudes: |e| <= 1, so |amp| is the sup of every field
    amp = mode.amplitude
    aq = abs(amp("q"))
    av = [abs(amp(f"v{i + 1}")) for i in range(3)]
    gmag = (abs(lam_p), abs(o2), abs(o3))
    div_scales = tuple(n * gmag[i] * av[i] for i in range(3))
    if mhd:
        aH = [abs(amp(f"H{i + 1}")) for i in range(3)]
        Hhat = (0.0, state.H_plasma[0], state.H_plasma[1])
    div_amp = 0.0  # |div v| amplitude: zero unless CompressibleMHD with s != 0
    if model is ModelKind.CompressibleMHD and not mode.root.neutral:
        div_amp = abs((lam_p * lam_p - 1.0) * amp("q") / (rho * s))

    # d_i (F e) as coefficients (a, b) of e and D1e: (0, F) for i = 1, else (td_i F, 0)
    td = (0.0, o2 * dtau, o3 * dtau)
    cq, cv = coef["q"], [coef[f"v{i + 1}"] for i in range(3)]
    cH = [coef[f"H{i + 1}"] for i in range(3)] if mhd else None
    rows = {}  # equation -> (a, b, yardsticks); its residual is a e + b D1e
    for i in range(3):
        a = rho * Dt * cv[i] + td[i] * cq
        scales = (rho * n * s * av[i],)
        if mhd:
            a -= wp * dtau * cH[i]
            scales += (n * wp * aH[i],)
        rows[f"momentum_{i + 1}"] = (a, cq if i == 0 else 0.0, scales + (n * gmag[i] * aq,))
    div_a, div_b = td[1] * cv[1] + td[2] * cv[2], cv[0]
    if mhd:
        for i in range(3):
            a, b = Dt * cH[i] - wp * dtau * cv[i], 0.0
            scales = (n * s * aH[i], n * wp * av[i])
            if model.is_compressible:
                a, b = a + Hhat[i] * div_a, Hhat[i] * div_b
                scales += (Hhat[i] * n * div_amp, Hhat[i] * max(div_scales))
            rows[f"induction_{i + 1}"] = (a, b, scales)
    if model.is_compressible:
        K = rho * c * c
        tot = cq - Hhat[1] * cH[1] - Hhat[2] * cH[2] if mhd else cq
        scales = (n * s * abs(tot), K * n * div_amp, K * max(div_scales))
        rows["continuity"] = (Dt * tot + K * div_a, K * div_b, scales)
    else:
        rows["divergence"] = (div_a, div_b, div_scales)
    if mhd:
        div_H = td[1] * cH[1] + td[2] * cH[2]
        rows["magnetic_divergence"] = (div_H, cH[0], tuple(n * gmag[i] * aH[i] for i in range(3)))
    # e and D1e on the rows that carry the sup: 0, 1 and the last
    e = _decay_ends(n * lam_p, 0.0, grid.x1_extent_plus, mp, 3, cmath.exp)
    e0, d0 = e[0], -1.5 / h1p * e[0] + 2.0 / h1p * e[1] + -0.5 / h1p * e[2]
    e1, d1 = e[1], (e[2] - e[0]) / (2.0 * h1p)
    ez, dz = e[-1], 0.5 / h1p * e[-3] + -2.0 / h1p * e[-2] + 1.5 / h1p * e[-1]
    interior = {
        name: _rel(max(abs(a * e0 + b * d0), abs(a * e1 + b * d1), abs(a * ez + b * dz)), *scales)
        for name, (a, b, scales) in rows.items()
    }
    if mhd:
        # D2ev + dtau2 ev on the rows that carry the sup: 0, the last but one and the last
        ev = _decay_ends(n * 1.0, -grid.x1_extent_minus, 0.0, mm, 4, math.exp)
        hh = h1m * h1m
        lap = max(
            abs((2.0 * ev[0] - 5.0 * ev[1] + 4.0 * ev[2] - ev[3]) / hh + dtau2 * ev[0]),
            abs((ev[-1] - 2.0 * ev[-2] + ev[-3]) / hh + dtau2 * ev[-2]),
            abs((2.0 * ev[-1] - 5.0 * ev[-2] + 4.0 * ev[-3] - ev[-4]) / hh + dtau2 * ev[-1]),
        )
        interior["vacuum_laplace"] = _rel(abs(coef["xi"]) * lap, n * n * abs(amp("xi")))

    # boundary conditions: purely algebraic in the amplitudes
    a, a0, a1 = state.a_hat, state.a0_hat, state.a1_hat
    phi, q0, v10 = amp("phi"), amp("q"), amp("v1")
    boundary = {"kinematic": _rel(abs(n * s * phi - v10 - a0 * phi), n * s * phi, v10, a0 * phi)}
    if mhd:
        xi0 = amp("xi")
        pres = q0 - 1j * n * wm * xi0 - a * phi
        boundary["pressure"] = _rel(abs(pres), q0, n * wm * xi0, a * phi)
        vac = n * xi0 - (a1 + 1j * n * wm) * phi
        boundary["vacuum_neumann"] = _rel(abs(vac), n * xi0, (a1 + 1j * n * wm) * phi)
    else:
        boundary["pressure"] = _rel(abs(q0 - a * phi), q0, a * phi)
    return ResidualReport(interior=interior, boundary=boundary, spacings=(h1p, h1m, htau, dt))


def growth_ratio(
    model: ModelKind,
    state: BasicState,
    omega: Wavevector,
    n_list,
    t: float,
):
    """Sup-norm amplification factors of the dominant mode per index n.

    The ratio of sup norms between times t and 0 for one exponential mode
    is exactly exp(n Re s t); log_ratio carries that value even when the
    ratio itself overflows (ratio is then inf).
    """
    ns = _mode_indices("n_list", n_list)
    _finite("t", t)
    out = []
    for n in ns:
        top = dominant_root(solve_dispersion(model, state, omega, n))
        if top is None:
            out.append(GrowthEntry(n=n, log_ratio=0.0, ratio=1.0, admissible_found=False))
            continue
        log_ratio = n * top.s.real * t
        ratio = math.exp(log_ratio) if log_ratio <= OVERFLOW_EXPONENT else math.inf
        out.append(GrowthEntry(n=n, log_ratio=log_ratio, ratio=ratio, admissible_found=True))
    return out
