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
amp * decay(x1) * phase(tau), so every residual is r(x1) * phase(tau): the
check differences the x1 factor and the sampled phase, never an x1-by-tau
array.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import mode_symbol
from .domain import BasicState, HadamardMode, ModeRoot, ModelKind, Wavevector
from .errors import GridError, NotARootError, ResonanceError
from .roots import dominant_root, solve_dispersion

NULLSPACE_TOLERANCE = 1e-8
TRUNCATION_EPSILON = 1e-16
OVERFLOW_EXPONENT = 700.0

MHD_FIELD_NAMES = ("q", "v1", "v2", "v3", "H1", "H2", "H3", "xi", "phi")
EULER_FIELD_NAMES = ("q", "v1", "v2", "v3", "phi")


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid for one mode: two half-space depths and one wavelength.

    points_per_direction is (plasma x1 points, vacuum x1 points, tangential
    points); the tangential direction is sampled periodically, without a
    duplicated endpoint.
    """

    x1_extent_plus: float
    x1_extent_minus: float
    points_per_direction: tuple
    tangential_period: float

    def __post_init__(self):
        if not (self.x1_extent_plus > 0 and self.x1_extent_minus > 0):
            raise GridError("half-space extents must be positive")
        if self.tangential_period <= 0:
            raise GridError("tangential period must be positive")
        mp, mm, mt = self.points_per_direction
        if min(mp, mm) < 4 or mt < 4:
            raise GridError("need at least 4 points per direction")

    def refined(self) -> "GridSpec":
        """Same extents with every spacing halved."""
        mp, mm, mt = self.points_per_direction
        return GridSpec(
            self.x1_extent_plus,
            self.x1_extent_minus,
            (2 * mp - 1, 2 * mm - 1, 2 * mt),
            self.tangential_period,
        )


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


@dataclass(frozen=True)
class FluxIdentityReport:
    """Both sides of the interface energy-flux identity and their gap."""

    max_discrepancy: float
    tolerance: float
    passed: bool


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
    if root.neutral and not model.is_mhd:
        raise ResonanceError("the neutral frequency has no fluid mode (1/s pole)")
    # boundary_matrix orients the pressure column for the determinant
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
        elif model is ModelKind.IncompressibleMHD:
            v = -s * grad * q_amp / P
            H = 1j * wp * v / s
        else:
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
    """Depths from the decay rates: L = min(40/(n|Re lambda|), 20/|omega|)."""
    n = mode.root.n
    lam_p = mode_symbol(mode.model, mode.state, mode.omega).lambda_plus(mode.root.s)
    cap = 20.0 / mode.omega.norm
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


def _factors(mode: HadamardMode, grid: GridSpec, t: float, lam_p: complex):
    """The 1-D factors of every sampled field, amp * tfac * decay(x1) * phase(tau),
    and the log n Re s t of the growth factor they leave out."""
    s, n = mode.root.s, mode.root.n
    mp, mm, mt = grid.points_per_direction
    x1p = np.linspace(0.0, grid.x1_extent_plus, mp)
    tau = np.arange(mt) * (grid.tangential_period / mt)
    tfac = cmath.exp(1j * n * s.imag * t)
    coef = {name: mode.amplitude(name) * tfac for name in mode.names if name != "phi"}
    decay = {"plasma": np.exp(n * lam_p * x1p)}
    x1m = None
    if mode.model.is_mhd:
        x1m = np.linspace(-grid.x1_extent_minus, 0.0, mm)
        decay["vacuum"] = np.exp(n * 1.0 * x1m)
    return x1p, x1m, tau, (coef, decay, np.exp(1j * n * tau)), n * s.real * t


def evaluate_field(mode: HadamardMode, grid: GridSpec, t: float) -> FieldSample:
    """Pointwise mode evaluation; switches to log magnitudes on overflow."""
    lam_p = mode_symbol(mode.model, mode.state, mode.omega).lambda_plus(mode.root.s)
    _check_truncation(mode, grid, lam_p)
    x1p, x1m, tau, (coef, decay, phase), log_growth = _factors(mode, grid, t, lam_p)
    plasma = {k: a * decay["plasma"][:, None] * phase for k, a in coef.items() if k != "xi"}
    vacuum = {"xi": coef["xi"] * decay["vacuum"][:, None] * phase} if "xi" in coef else {}
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


def _d1(arr: np.ndarray, h: float) -> np.ndarray:
    """np.gradient(arr, h, axis=0, edge_order=2), term for term."""
    out = np.empty_like(arr)
    out[1:-1] = (arr[2:] - arr[:-2]) / (2.0 * h)
    out[0] = -1.5 / h * arr[0] + 2.0 / h * arr[1] + -0.5 / h * arr[2]
    out[-1] = 0.5 / h * arr[-3] + -2.0 / h * arr[-2] + 1.5 / h * arr[-1]
    return out


def _d2_edge(arr: np.ndarray, h: float) -> np.ndarray:
    """Second derivative in x1, O(h^2) including one-sided rows."""
    out = np.empty_like(arr)
    out[1:-1] = (arr[2:] - 2.0 * arr[1:-1] + arr[:-2]) / (h * h)
    out[0] = (2.0 * arr[0] - 5.0 * arr[1] + 4.0 * arr[2] - arr[3]) / (h * h)
    out[-1] = (2.0 * arr[-1] - 5.0 * arr[-2] + 4.0 * arr[-3] - arr[-4]) / (h * h)
    return out


def _sup(arr) -> float:
    return float(np.max(np.abs(arr)))


def _rel(sup: float, *scales) -> float:
    """Sup of the residual against the largest analytic term magnitude.

    The yardstick is grid independent on purpose: equations whose exact
    terms cancel almost completely (stiff balances at large n) would
    otherwise be normalized by their own differencing error, which hides
    the h^2 convergence of the numerator.
    """
    scale = max((abs(x) for x in scales), default=0.0)
    return sup / max(scale, 1e-300)


def pde_residual_fd(mode: HadamardMode, grid: GridSpec, t: float) -> ResidualReport:
    """Second-order FD residuals of every equation, relative sup norms.

    x1 derivatives are one-sided at the interface rows; the tangential
    direction wraps periodically; time uses a centered difference with
    dt equal to the tangential spacing. Boundary conditions involve no
    differencing and must vanish at machine precision.

    Every field is amp * decay(x1) * phase(tau) * exp(n s t), and each stencil
    acts on one factor: x1 differences on the decay factor, the periodic
    tangential stencils on the sampled phase and Dt on the time factor, which
    makes Dt a scalar. A periodic centred stencil of a sampled exponential is
    that exponential times one number, its value at tau = 0, where the phase
    is 1. So every residual is r(x1) * phase(tau) with |phase| = 1, and its
    sup is the sup of r, the residual of the tau = 0 column computed here. A
    wrong phase, sign or tangential amplitude changes the stencil values and
    shows in r.

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
    if mt < 8:
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
    coef, decay, phase = _factors(mode, grid, t, lam_p)[3]
    state = mode.state
    rho, c = state.rho_hat, state.c_hat
    o2, o3 = mode.omega.unit()
    wp, wm = sym.wp, sym.wm
    # the tangential stencils read at tau = 0; Dt with dt = htau is a scalar
    dtau = (phase[1] - phase[-1]) / (2.0 * htau)
    dtau2 = (phase[1] - 2.0 * phase[0] + phase[-1]) / (htau * htau)
    Dt = (cmath.exp(n * s * htau) - cmath.exp(-n * s * htau)) / (2.0 * htau)

    # analytic per-term magnitudes; arrays are normalized to the amplitude
    # scale, so |amp| is the exact sup of every sampled field
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

    def d(i, F):  # d_i F on the tau = 0 column
        return _d1(F, h1p) if i == 0 else (o2, o3)[i - 1] * dtau * F

    def div(F):
        return d(0, F[0]) + d(1, F[1]) + d(2, F[2])

    q = coef["q"] * decay["plasma"]
    v = [coef[f"v{i + 1}"] * decay["plasma"] for i in range(3)]
    H = [coef[f"H{i + 1}"] * decay["plasma"] for i in range(3)] if mhd else None
    interior = {}
    for i in range(3):
        res = rho * Dt * v[i]
        scales = (rho * n * s * av[i],)
        if mhd:
            res -= wp * dtau * H[i]
            scales += (n * wp * aH[i],)
        res += d(i, q)
        interior[f"momentum_{i + 1}"] = _rel(_sup(res), *scales, n * gmag[i] * aq)
    div_v = div(v)
    if mhd:
        for i in range(3):
            res = Dt * H[i] - wp * dtau * v[i]
            scales = (n * s * aH[i], n * wp * av[i])
            if model.is_compressible:
                res += Hhat[i] * div_v
                scales += (Hhat[i] * n * div_amp, Hhat[i] * max(div_scales))
            interior[f"induction_{i + 1}"] = _rel(_sup(res), *scales)
    if model.is_compressible:
        tot_amp = amp("q")
        if mhd:
            tot_amp = tot_amp - Hhat[1] * amp("H2") - Hhat[2] * amp("H3")
        K = rho * c * c
        res = Dt * (q - Hhat[1] * H[1] - Hhat[2] * H[2] if mhd else q) + K * div_v
        scales = (n * s * abs(tot_amp), K * n * div_amp, K * max(div_scales))
        interior["continuity"] = _rel(_sup(res), *scales)
    else:
        interior["divergence"] = _rel(_sup(div_v), *div_scales)
    if mhd:
        interior["magnetic_divergence"] = _rel(
            _sup(div(H)), *(n * gmag[i] * aH[i] for i in range(3))
        )
        xi = coef["xi"] * decay["vacuum"]
        lap = _d2_edge(xi, h1m) + dtau2 * xi
        interior["vacuum_laplace"] = _rel(_sup(lap), n * n * abs(amp("xi")))

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
    return ResidualReport(interior=interior, boundary=boundary, spacings=(h1p, h1m, htau, htau))


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
    ns = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
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


def boundary_flux_check(mode: HadamardMode, t: float, samples: int = 256) -> FluxIdentityReport:
    """Interface identity -q v1 = j phi v1 - (Hv . grad xi) v1 with j = -a.

    Both sides are evaluated pointwise (real parts) over one tangential
    period; the common growth factor cancels in the relative gap.
    """
    if not mode.model.is_mhd:
        raise ResonanceError("the flux identity involves the vacuum field")
    n, s = mode.root.n, mode.root.s
    state = mode.state
    wm = mode_symbol(mode.model, state, mode.omega).wm
    tau = np.arange(samples) * (2.0 * math.pi / (n * samples))
    phase = np.exp(1j * (n * tau + n * s.imag * t))
    q = np.real(mode.amplitude("q") * phase)
    v1 = np.real(mode.amplitude("v1") * phase)
    phi = np.real(mode.amplitude("phi") * phase)
    # tangential vacuum-field trace: Hv . grad xi = i n wm xi at x1 = 0
    hcal = np.real(1j * n * wm * mode.amplitude("xi") * phase)
    lhs = -q * v1
    rhs = -state.a_hat * phi * v1 - hcal * v1
    scale = max(_sup(q * v1), _sup(state.a_hat * phi * v1), _sup(hcal * v1), 1e-300)
    gap = _sup(lhs - rhs) / scale
    return FluxIdentityReport(max_discrepancy=gap, tolerance=1e-10, passed=gap <= 1e-10)
