"""Determinant values, spatial exponents and their cross-consistency."""
import cmath
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import MHD_MODELS, bounded, model_state_pairs, states, wavevectors
from mhdlab.dispersion import mode_symbol
from mhdlab.domain import BasicState, ModelKind, Wavevector, alfven_speed, w_pair
from mhdlab.errors import BranchPointError, ResonanceError, UnsupportedModelError
from mhdlab.roots import solve_dispersion

OM = Wavevector(1.0, 0.0)


def complex_s(re_lo=-1.5, re_hi=1.5):
    return st.builds(complex, bounded(re_lo, re_hi), bounded(-1.5, 1.5))


def radicand(model, state, omega, s):
    """The radicand of g(s); None for models without a radical and where
    the radicand's denominator nearly vanishes."""
    if model is ModelKind.CompressibleEuler:
        return complex(1 + (s / state.c_hat) ** 2)
    if model is not ModelKind.CompressibleMHD:
        return None
    wp, _ = w_pair(state, omega)
    alpha = state.c_hat**2 + alfven_speed(state) ** 2
    beta = state.c_hat**2 * wp * wp / state.rho_hat
    D = alpha * s * s + beta
    if abs(D) <= 0.05 * (alpha * abs(s) ** 2 + beta):
        return None
    return complex(1 + s * s / alpha if beta == 0 else 1 + s**4 / D)


def smooth_point(model, state, omega, s):
    """True when s is comfortably away from the radical's branch structure."""
    if not model.is_compressible:
        return True
    rad = radicand(model, state, omega, s)
    if rad is None or abs(rad) < 0.05:
        return False
    # principal-branch cut: conjugation and smoothness arguments fail there
    return not (rad.real < 0 and abs(rad.imag) <= 1e-9 * abs(rad))


def same_sheet(model, state, omega, s, points):
    """True when the principal root of the radicand at every point continues
    the one at s: no point lies across the branch cut from s. Needs
    smooth_point at s and at every point."""
    if not model.is_compressible:
        return True
    root = cmath.sqrt(radicand(model, state, omega, s))
    for p in points:
        other = cmath.sqrt(radicand(model, state, omega, p))
        if abs(other - root) >= abs(other + root):
            return False
    return True


# ---------------------------------------------------------------- exponents


def test_flow_side_exponent_closed_forms():
    st0 = BasicState(c_hat=2.0)
    assert mode_symbol(ModelKind.CompressibleEuler, st0, OM).lambda_plus(0.0) == -1.0
    st1 = BasicState(H_plasma=(1.0, 0.0), H_vacuum=(1.0, 0.0))
    assert mode_symbol(ModelKind.CompressibleMHD, st1, OM).lambda_plus(0.0) == -1.0
    assert mode_symbol(ModelKind.IncompressibleMHD, st1, OM).lambda_plus(0.7 + 0.2j) == -1.0
    assert mode_symbol(ModelKind.IncompressibleEuler, BasicState(), OM).lambda_plus(5.0) == -1.0


@given(states(model=ModelKind.CompressibleEuler), complex_s())
def test_flow_side_exponent_has_nonpositive_real_part(state, s):
    try:
        lam = mode_symbol(ModelKind.CompressibleEuler, state, OM).lambda_plus(s)
    except BranchPointError:
        assume(False)
    assert lam.real <= 0.0


@given(states(), wavevectors(), complex_s())
def test_magnetic_flow_side_exponent_has_nonpositive_real_part(state, omega, s):
    try:
        lam = mode_symbol(ModelKind.CompressibleMHD, state, omega).lambda_plus(s)
    except BranchPointError:
        assume(False)
    assert lam.real <= 0.0


def test_flow_side_exponent_reports_branch_point():
    state = BasicState(H_plasma=(1.0, 0.0), H_vacuum=(0.0, 0.0), c_hat=1.0)
    # (c^2 + cA^2) s^2 + c^2 wp^2 / rho = 0 at s = i wp c / sqrt(rho (c^2+cA^2))
    s = 1j * 1.0 / math.sqrt(2.0)
    with pytest.raises(BranchPointError):
        mode_symbol(ModelKind.CompressibleMHD, state, OM).lambda_plus(s)


BRANCH_POINTS = [
    (ModelKind.CompressibleEuler, BasicState(c_hat=2.0, a_hat=1.0), 2j),
    (ModelKind.CompressibleEuler, BasicState(c_hat=2.0, a_hat=1.0), -2j),
    (ModelKind.CompressibleMHD, BasicState(H_plasma=(1.0, 0.0)), 1j / math.sqrt(2.0)),
]
AT_S = {
    "lambda_plus": lambda model, state, s: mode_symbol(model, state, OM).lambda_plus(s),
    "dispersion_eval": lambda model, state, s: mode_symbol(model, state, OM).value(s, 10),
    "dispersion_scale": lambda model, state, s: mode_symbol(model, state, OM).scale(s, 10),
    "matrix": lambda model, state, s: mode_symbol(model, state, OM).matrix(s, 10),
}


@pytest.mark.parametrize("model, state, s", BRANCH_POINTS)
@pytest.mark.parametrize("name", sorted(AT_S))
def test_every_evaluation_rejects_a_branch_point(model, state, s, name):
    """s = +-i c for CompressibleEuler and D(s) = 0 for CompressibleMHD."""
    with pytest.raises(BranchPointError):
        AT_S[name](model, state, s)


def test_vacuum_side_exponent_and_euler_rejection():
    state = BasicState(H_plasma=(1.0, 0.0), H_vacuum=(1.0, 0.0), a_hat=1.0)
    for model in MHD_MODELS:
        roots = solve_dispersion(model, state, OM, 10)
        assert roots and all(r.lambda_minus == 1.0 for r in roots)
    roots = solve_dispersion(ModelKind.CompressibleEuler, BasicState(a_hat=1.0), OM, 10)
    assert roots and all(cmath.isnan(r.lambda_minus) for r in roots)
    magnetized = BasicState(H_plasma=(1.0, 0.0))
    with pytest.raises(UnsupportedModelError):
        mode_symbol(ModelKind.CompressibleEuler, magnetized, OM).scale(0.5, 10)


def test_mode_symbol_is_reused_only_for_the_same_objects():
    euler = ModelKind.IncompressibleEuler
    state = BasicState(a0_hat=0.0)
    sym = mode_symbol(euler, state, OM)
    assert mode_symbol(euler, state, OM) is sym
    # an equal state whose zero field has the other sign gets its own symbol
    negative = BasicState(a0_hat=-0.0)
    assert negative == state
    assert math.copysign(1.0, mode_symbol(euler, negative, OM).a0) == -1.0
    assert mode_symbol(ModelKind.IncompressibleMHD, negative, OM).model is ModelKind.IncompressibleMHD
    assert mode_symbol(euler, state, OM) is not sym


@pytest.mark.parametrize(
    "model, state, branch_point",
    [
        (ModelKind.CompressibleEuler, BasicState(c_hat=2.0, a_hat=1.0), 2j),
        # wp = 0: dg = s / (alpha g) carries the signed zeros of s
        (ModelKind.CompressibleMHD, BasicState(c_hat=2.0, H_vacuum=(1.0, 0.0)), 2j),
        (ModelKind.CompressibleMHD, BasicState(H_plasma=(1.0, 0.0)), 1j / math.sqrt(2.0)),
    ],
)
def test_g_gives_a_fresh_symbols_result_at_every_call(model, state, branch_point):
    """A symbol reuses its last g only for the very same s object: equal
    zeros of other signs, and an equal s that is another object, get what a
    fresh symbol computes, and a branch point raises on every call."""
    sym = mode_symbol(model, state, OM)

    def fresh(s):
        return repr(mode_symbol(model, replace(state), OM).g(s))

    zeros = [0j, complex(0.0, -0.0), complex(-0.0, 0.0)]
    s, twin = complex(0.3, 0.7), complex(0.3, 0.7)
    assert s is not twin
    if sym.beta == 0.0:
        # an s == 0 match would return a wrong sign of zero here
        assert len({fresh(z) for z in zeros}) > 1
    calls = [s, twin, *zeros, s, zeros[1], zeros[1], zeros[0], twin, twin, zeros[2], s, zeros[0]]
    for z in calls:
        assert repr(sym.g(z)) == fresh(z), z
    for _ in range(3):
        with pytest.raises(BranchPointError):
            sym.g(branch_point)
    assert repr(sym.g(s)) == fresh(s)
    with pytest.raises(BranchPointError):
        sym.g(branch_point)


@pytest.mark.parametrize("model", MHD_MODELS)
def test_cleared_polynomial_matches_hand_expansion(model):
    state = BasicState(
        rho_hat=1.3, c_hat=2.0, a_hat=1.0, a0_hat=0.2, a1_hat=0.7,
        H_plasma=(0.6, 0.8), H_vacuum=(1.2, -0.5),
    )
    omega = Wavevector(0.6, 0.8)
    n = 37
    rho, a0 = state.rho_hat, state.a0_hat
    wp, wm = w_pair(state, omega)
    bc = n * wm * wm - (state.a_hat + 1j * wm * state.a1_hat)
    # A = (n s - a0)(rho s^2 + wp^2), highest power first
    p3, p2, p1, p0 = n * rho, -a0 * rho, n * wp * wp, -a0 * wp * wp
    if model is ModelKind.IncompressibleMHD:
        # the cubic A + bc s
        expected = [p3, p2, p1 + bc, p0]
    else:
        # A^2 D - bc^2 s^2 (D + s^4) with D = alpha s^2 + beta
        alpha = state.c_hat**2 + alfven_speed(state) ** 2
        beta = state.c_hat**2 * wp * wp / rho
        a2 = [
            p3 * p3, 2 * p3 * p2, p2 * p2 + 2 * p3 * p1, 2 * (p3 * p0 + p2 * p1),
            p1 * p1 + 2 * p2 * p0, 2 * p1 * p0, p0 * p0,
        ]
        expected = [alpha * x for x in a2] + [0.0, 0.0]
        for k, x in enumerate(a2):
            expected[k + 2] += beta * x
        expected[2] -= bc * bc
        expected[4] -= bc * bc * alpha
        expected[6] -= bc * bc * beta
    got = mode_symbol(model, state, omega).polynomial(n)
    assert got.dtype == complex and len(got) == len(expected)
    scale = max(abs(x) for x in expected)
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * scale)


def convolution_polynomial(sym, n):
    """The cleared polynomial written out term by term: B^2 and s^4 as their
    own arrays, the shorter term of each sum padded as np.polyadd pads it."""
    a, a0, rho = sym.a, sym.a0, sym.rho
    if not sym.model.is_mhd:
        if not sym.model.is_compressible:
            return np.array([n, -a0, -a / rho], dtype=complex)
        if a == 0:
            return np.array([n, -a0, 0.0], dtype=complex)
        K = a / rho
        return np.array(
            [n * n, -2.0 * n * a0, a0 * a0 - (K / sym.c) ** 2, 0.0, -K * K], dtype=complex
        )
    P = np.array([rho, 0.0, sym.wp * sym.wp], dtype=complex)
    A = np.convolve(np.array([n, -a0], dtype=complex), P)
    Bc = n * sym.wm * sym.wm - sym.c1
    if not sym.model.is_compressible:
        quad = np.zeros(4, dtype=complex)
        quad[2] = Bc
        return A + quad
    if Bc == 0:
        return A
    D = np.array([sym.alpha, 0.0, sym.beta], dtype=complex)
    lhs = np.convolve(np.convolve(A, A), D)
    B2 = np.array([Bc * Bc, 0.0, 0.0], dtype=complex)
    s4 = np.array([1.0, 0, 0, 0, 0], dtype=complex)
    pad = np.zeros(2, dtype=complex)
    rhs = np.concatenate((pad, np.convolve(B2, D))) + np.convolve(B2, s4)
    return lhs - np.concatenate((pad, rhs))


@pytest.mark.parametrize("model", list(ModelKind))
def test_polynomial_is_the_term_by_term_form_bit_for_bit(model):
    # signed zeros, unit values and negative Bc included: the bytes must agree
    rng = np.random.default_rng(18)

    def draw(lo, hi):
        pick = rng.integers(6)
        return [0.0, -0.0, 1.0, -1.0][pick] if pick < 4 else float(rng.uniform(lo, hi))

    checked = 0
    while checked < 300:
        kw = dict(rho_hat=float(rng.uniform(0.1, 3.0)), c_hat=float(rng.uniform(0.1, 3.0)),
                  a_hat=draw(-3.0, 3.0), a0_hat=draw(-2.0, 2.0))
        if model.is_mhd:
            kw.update(a1_hat=draw(-2.0, 2.0), H_plasma=(draw(-2, 2), draw(-2, 2)),
                      H_vacuum=(draw(-2, 2), draw(-2, 2)))
        state = BasicState(**kw)
        for omega in (Wavevector(1.0, 0.0), Wavevector(0.0, 1.0),
                      Wavevector(*rng.uniform(-1.0, 1.0, size=2))):
            sym = mode_symbol(model, state, omega)
            for n in (1, 7, 100, 10**4, 10**6):
                assert sym.polynomial(n).tobytes() == convolution_polynomial(sym, n).tobytes()
        checked += 1



@pytest.mark.parametrize("model", list(ModelKind))
def test_polynomial_is_the_clearing_of_the_terms(model):
    """polynomial(n) and ModeSymbol._terms are the determinant's two writings:
    at any s the polynomial is A + B (incompressible), A^2 - B^2 (1 + (s/c)^2)
    (CompressibleEuler) or A^2 D - B^2 (D + s^4) (CompressibleMHD), or A itself
    where B = 0, to rounding relative to the termwise size."""
    rng = np.random.default_rng(36)

    def draw(lo, hi):
        pick = rng.integers(6)
        return [0.0, -0.0, 1.0, -1.0][pick] if pick < 4 else float(rng.uniform(lo, hi))

    for _ in range(200):
        kw = dict(rho_hat=float(rng.uniform(0.1, 3.0)), c_hat=float(rng.uniform(0.1, 3.0)),
                  a_hat=draw(-3.0, 3.0), a0_hat=draw(-2.0, 2.0))
        if model.is_mhd:
            kw.update(a1_hat=draw(-2.0, 2.0), H_plasma=(draw(-2, 2), draw(-2, 2)),
                      H_vacuum=(draw(-2, 2), draw(-2, 2)))
        state = BasicState(**kw)
        sym = mode_symbol(model, state, Wavevector(*rng.uniform(-1.0, 1.0, size=2)))
        rho, a, a0, wp, wm = sym.rho, sym.a, sym.a0, sym.wp, sym.wm
        for n in (1, 7, 100, 10**4, 10**6):
            s = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-2.0, 2.0)
            r = abs(s)
            A, _, B, _ = sym._terms(s, n)
            # termwise sizes of A and B, written out from the state
            if model.is_mhd:
                Asize = (n * r + abs(a0)) * (rho * r * r + wp * wp)
                Bsize = r * (n * wm * wm + abs(a + 1j * wm * state.a1_hat))
            else:
                Asize, Bsize = n * r * r + abs(a0) * r, abs(a / rho)
            if not model.is_compressible:
                cleared, size = A + B, Asize + Bsize
            elif B == 0:
                cleared, size = A, Asize
            elif not model.is_mhd:
                cleared = A * A - B * B * (1.0 + (s / sym.c) ** 2)
                size = Asize**2 + Bsize**2 * (1.0 + (r / sym.c) ** 2)
            else:
                D = sym.alpha * s * s + sym.beta
                Dsize = sym.alpha * r * r + sym.beta
                cleared = A * A * D - B * B * (D + s**4)
                size = Asize**2 * Dsize + Bsize**2 * (Dsize + r**4)
            got = np.polyval(sym.polynomial(n), s)
            assert abs(got - cleared) <= 1e-12 * size, (state, n, s, got, cleared)

# ------------------------------------------------------------- determinants

SCALE_STATE = BasicState(
    rho_hat=1.3, c_hat=2.0, a_hat=1.0, a0_hat=-0.2, a1_hat=0.7,
    H_plasma=(0.6, 0.8), H_vacuum=(1.2, -0.5),
)
SCALE_OMEGA = Wavevector(0.6, 0.8)


def termwise_magnitude(model, state, omega, s, n):
    """The determinant's termwise magnitude, written out term by term."""
    rho, c, a, a0, a1 = state.rho_hat, state.c_hat, state.a_hat, state.a0_hat, state.a1_hat
    wp, wm = w_pair(state, omega)
    if model is ModelKind.CompressibleEuler:
        g = cmath.sqrt(1.0 + (s / c) ** 2)
    elif model is ModelKind.CompressibleMHD:
        alpha = c**2 + alfven_speed(state) ** 2
        g = cmath.sqrt(1.0 + s**4 / (alpha * s * s + c**2 * wp * wp / rho))
    else:
        g = 1.0
    if not model.is_mhd:
        return max(n * abs(s) ** 2 + abs(a0 * s) + abs(a / rho) * abs(g), 1e-300)
    P = rho * abs(s) ** 2 + wp * wp
    Bmag = n * wm * wm + abs(a + 1j * wm * a1)
    return max(n * abs(s) * P + abs(a0) * P + abs(s) * Bmag * abs(g), 1e-300)


@pytest.mark.parametrize("model", list(ModelKind))
def test_scale_is_the_termwise_magnitude(model):
    fluid = replace(SCALE_STATE, a1_hat=0.0, H_plasma=(0.0, 0.0), H_vacuum=(0.0, 0.0))
    state = SCALE_STATE if model.is_mhd else fluid
    for s in (0.3 + 0.2j, -0.7j, 1.5 + 0j, 1e-3 + 2.0j, -4.0 - 0.5j, 0j):
        for n in (1, 7, 100, 10**6):
            want = termwise_magnitude(model, state, SCALE_OMEGA, s, n)
            assert mode_symbol(model, state, SCALE_OMEGA).scale(s, n) == want


def test_determinant_worked_values():
    dv = mode_symbol(ModelKind.IncompressibleEuler, BasicState(a_hat=1.0), OM).value(0.1, 100)
    assert abs(dv[0]) < 1e-14
    assert dv[1] == pytest.approx(20.0)
    quiet = BasicState(H_plasma=(1.0, 0.0), H_vacuum=(1.0, 0.0))
    perp = Wavevector(0.0, 1.0)  # orthogonal to both fields: wp = wm = 0
    dv2 = mode_symbol(ModelKind.IncompressibleMHD, quiet, perp).value(0.3, 7)
    assert dv2[0] == pytest.approx(0.189, rel=1e-12)


@given(states(collinear=True), complex_s())
def test_aligned_fields_reduce_determinant_to_scalar_form(state, s):
    """With both field projections zero the 3x3 determinant factors as
    rho * s * (scalar dispersion function with combined sound speed)."""
    hp = math.hypot(*state.H_plasma)
    assume(hp > 1e-6)
    ux, uy = state.H_plasma[0] / hp, state.H_plasma[1] / hp
    perp = Wavevector(-uy, ux)
    alpha = state.c_hat**2 + hp * hp / state.rho_hat
    scalar = 7 * s * s - state.a0_hat * s - (state.a_hat / state.rho_hat) * cmath.sqrt(1 + s * s / alpha)
    try:
        full = mode_symbol(ModelKind.CompressibleMHD, state, perp).value(s, 7)[0]
    except BranchPointError:
        assume(False)
    expected = state.rho_hat * s * scalar
    assert cmath.isclose(full, expected, rel_tol=1e-12, abs_tol=1e-12)


@given(model_state_pairs(), wavevectors(), complex_s(), st.integers(min_value=1, max_value=10**4))
# a second-order difference is off by h^2 f'''(s)/6 = 4e-12 here, above the bound
@example((ModelKind.IncompressibleMHD, BasicState(a0_hat=1.0)), OM, 1e-6j, 4)
def test_jacobian_matches_finite_differences(pair, omega, s, n):
    """The analytic derivative against a fourth-order central difference,
    where that difference is a sound reference: every stencil point smooth
    and on the sheet of the radical at s, and rounding no more than a tenth
    of the bound."""
    model, state = pair
    h = 1e-6 * (1.0 + abs(s))
    stencil = [s - 2.0 * h, s - h, s + h, s + 2.0 * h]
    assume(all(smooth_point(model, state, omega, p) for p in [s] + stencil))
    assume(same_sheet(model, state, omega, s, stencil))
    dv = mode_symbol(model, state, omega).value(s, n)
    fm2, fm1, fp1, fp2 = (mode_symbol(model, state, omega).value(p, n)[0] for p in stencil)
    fd = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    scale = max(abs(dv[1]), abs(fd))
    assume(scale > 1e-6)  # away from critical points the test is meaningful
    bound = 2e-6 * scale
    fmax = max(abs(f) for f in (fm2, fm1, dv[0], fp1, fp2))
    assume(sys.float_info.epsilon * fmax / h <= 0.1 * bound)
    assert abs(dv[1] - fd) <= bound


@given(states(), bounded(0.25, 4.0), wavevectors(), complex_s(), st.integers(min_value=1, max_value=1000))
def test_determinant_depends_only_on_field_projections(state, stretch, omega, s, n):
    scaled = Wavevector(stretch * omega.omega2, stretch * omega.omega3)
    try:
        a = mode_symbol(ModelKind.CompressibleMHD, state, omega).value(s, n)[0]
        b = mode_symbol(ModelKind.CompressibleMHD, state, scaled).value(s, n)[0]
    except BranchPointError:
        assume(False)
    assert cmath.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_determinant_matches_under_projection_preserving_reflection():
    # Collinear fields: reflecting the direction across the field axis
    # preserves both projections, so the determinant cannot change.
    state = BasicState(H_plasma=(1.3, 0.0), H_vacuum=(-0.7, 0.0), a_hat=0.4, a0_hat=0.2, a1_hat=0.1)
    om_up = Wavevector(0.6, 0.8)
    om_dn = Wavevector(0.6, -0.8)
    for model in MHD_MODELS:
        a = mode_symbol(model, state, om_up).value(0.37 + 0.21j, 50)[0]
        b = mode_symbol(model, state, om_dn).value(0.37 + 0.21j, 50)[0]
        assert cmath.isclose(a, b, rel_tol=1e-12)


@given(model_state_pairs(), wavevectors(), complex_s(), st.integers(min_value=1, max_value=1000))
def test_real_coefficient_determinants_commute_with_conjugation(pair, omega, s, n):
    model, state = pair
    if model.is_mhd:
        state = replace(state, a1_hat=0.0)
    assume(smooth_point(model, state, omega, s))
    direct = mode_symbol(model, state, omega).value(s.conjugate(), n)[0]
    mirrored = mode_symbol(model, state, omega).value(s, n)[0].conjugate()
    assert cmath.isclose(direct, mirrored, rel_tol=1e-12, abs_tol=1e-12)


@given(states(), wavevectors(), complex_s(), st.integers(min_value=1, max_value=1000))
def test_large_sound_speed_recovers_incompressible_determinant(state, omega, s, n):
    stiff = replace(state, c_hat=1e6)
    wp, _ = w_pair(state, omega)
    # the limit is not uniform at the leading-order resonance s^2 = -wp^2/rho
    assume(abs(s * s + wp * wp / state.rho_hat) > 1e-3)
    comp = mode_symbol(ModelKind.CompressibleMHD, stiff, omega).value(s, n)[0]
    inc = mode_symbol(ModelKind.IncompressibleMHD, stiff, omega).value(s, n)[0]
    assert abs(comp - inc) <= 1e-4 * max(1.0, abs(inc))


@given(states(model=ModelKind.CompressibleEuler), complex_s(), st.integers(min_value=1, max_value=1000))
def test_large_sound_speed_recovers_incompressible_euler(state, s, n):
    stiff = replace(state, c_hat=1e6)
    comp = mode_symbol(ModelKind.CompressibleEuler, stiff, OM).value(s, n)[0]
    inc = mode_symbol(ModelKind.IncompressibleEuler, stiff, OM).value(s, n)[0]
    assert abs(comp - inc) <= 1e-4 * max(1.0, abs(inc))


# ---------------------------------------------------------- boundary matrix


def test_boundary_matrix_entries_euler():
    state = BasicState(a_hat=0.8, a0_hat=0.3)
    n, s = 12, 0.25
    mat = mode_symbol(ModelKind.IncompressibleEuler, state, OM).matrix(s, n)
    assert mat.shape == (2, 2)
    assert mat[0, 0] == pytest.approx(n * s - 0.3)
    assert mat[0, 1] == pytest.approx(-1.0 / s)
    assert mat[1, 0] == pytest.approx(0.8)
    assert mat[1, 1] == pytest.approx(-1.0)


def test_boundary_matrix_third_row_magnetic():
    state = BasicState(H_plasma=(1.0, 0.0), H_vacuum=(0.6, 0.8), a1_hat=0.5)
    omega = Wavevector(1.0, 0.0)
    n = 9
    mat = mode_symbol(ModelKind.IncompressibleMHD, state, omega).matrix(0.4, n)
    wm = 0.6
    assert mat.shape == (3, 3)
    assert mat[2, 0] == pytest.approx(0.5 + 1j * n * wm)
    assert mat[2, 1] == 0.0
    assert mat[2, 2] == pytest.approx(-9.0)


@given(model_state_pairs(), wavevectors(), complex_s(), st.integers(min_value=1, max_value=500))
def test_matrix_determinant_proportional_to_dispersion(pair, omega, s, n):
    model, state = pair
    assume(abs(s) > 0.05)
    try:
        mat = mode_symbol(model, state, omega).matrix(s, n)
        dv = mode_symbol(model, state, omega).value(s, n)
    except (ResonanceError, BranchPointError):
        assume(False)
    det = complex(np.linalg.det(mat))
    if model.is_mhd:
        wp, _ = w_pair(state, omega)
        prefactor = n / (state.rho_hat * s * s + wp * wp)
    else:
        prefactor = -1.0 / s
    assert cmath.isclose(det, prefactor * dv[0], rel_tol=1e-9, abs_tol=1e-9 * abs(prefactor))
