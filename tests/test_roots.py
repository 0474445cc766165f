"""Root finding, asymptotic series and scaling-law fits."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import MHD_MODELS, bounded, model_state_pairs, states, wavevectors
from mhdlab.dispersion import dispersion_eval, dispersion_scale
from mhdlab.domain import BasicState, ModelKind, Wavevector, w_pair
from mhdlab.errors import ConvergenceError, DomainError, FitError
from mhdlab.roots import (
    RESIDUAL_TOLERANCE,
    AsymptoticRoot,
    asymptotic_root,
    dominant_root,
    fit_scaling,
    newton_refine,
    scan_s0,
    solve_dispersion,
)

OM = Wavevector(1.0, 0.0)
PERP = Wavevector(0.0, 1.0)

# Frozen reference values from independent solvers (quadratic formula with
# compensated arithmetic; long-double bisection of the scalar equation).
QUADRATIC_ROOTS_N100 = (0.10512492197250393, -0.09512492197250393)
STIFF_REAL_ROOT_N1E4 = 0.010000250003124923


def aligned_state(**kw):
    base = dict(H_plasma=(1.0, 0.0), H_vacuum=(2.0, 0.0))
    base.update(kw)
    return BasicState(**base)


# ------------------------------------------------------------ solve roots


def test_square_root_growth_pair_at_n100():
    roots = solve_dispersion(ModelKind.IncompressibleEuler, BasicState(a_hat=1.0), OM, 100)
    values = sorted(r.s.real for r in roots)
    assert values == pytest.approx([-0.1, 0.1], abs=1e-12)
    top = dominant_root(roots)
    assert top is not None and top.s == pytest.approx(0.1)
    assert all(abs(r.s.imag) < 1e-14 for r in roots)


def test_quadratic_roots_match_frozen_reference():
    roots = solve_dispersion(
        ModelKind.IncompressibleEuler, BasicState(a_hat=1.0, a0_hat=1.0), OM, 100
    )
    got = sorted(r.s.real for r in roots)
    assert got == pytest.approx(sorted(QUADRATIC_ROOTS_N100), abs=1e-13)


def test_stiff_scalar_root_matches_frozen_reference():
    roots = solve_dispersion(
        ModelKind.CompressibleEuler, BasicState(a_hat=1.0), OM, 10**4
    )
    top = dominant_root(roots)
    assert top is not None
    assert top.s.real == pytest.approx(STIFF_REAL_ROOT_N1E4, abs=1e-12)
    assert abs(top.s.imag) < 1e-12


def test_aligned_magnetic_root_at_n400():
    state = aligned_state(a_hat=1.0, a1_hat=0.7)
    roots = solve_dispersion(ModelKind.IncompressibleMHD, state, PERP, 400)
    top = dominant_root(roots)
    assert top is not None and top.s == pytest.approx(0.05, abs=1e-12)
    assert any(r.neutral for r in roots)


def test_neutral_root_is_reported_not_dropped():
    state = aligned_state(a_hat=1.0)
    roots = solve_dispersion(ModelKind.CompressibleMHD, state, PERP, 50)
    neutral = [r for r in roots if r.neutral]
    assert len(neutral) == 1
    assert neutral[0].s == 0
    assert not neutral[0].admissible


@given(model_state_pairs(), wavevectors(), st.integers(min_value=1, max_value=2000))
# a root near 1.25e149 whose residual is nan must not pass the gate
@example((ModelKind.CompressibleMHD, BasicState(a_hat=1e-300, a0_hat=1.0)), OM, 1)
def test_all_reported_roots_satisfy_residual_bound(pair, omega, n):
    model, state = pair
    roots = solve_dispersion(model, state, omega, n)
    for r in roots:
        assert r.residual <= RESIDUAL_TOLERANCE
        value = dispersion_eval(model, state, omega, r.s, n).value
        assert abs(value) <= RESIDUAL_TOLERANCE * dispersion_scale(model, state, omega, r.s, n) * 1.01


@given(model_state_pairs(), wavevectors(), st.integers(min_value=1, max_value=2000))
def test_roots_are_deduplicated_and_sorted(pair, omega, n):
    model, state = pair
    roots = solve_dispersion(model, state, omega, n)
    for i, r in enumerate(roots):
        for other in roots[i + 1 :]:
            assert abs(r.s - other.s) > 1e-9 * (1 + abs(r.s))
    keys = [(-r.s.real, -abs(r.s.imag), r.s.real, r.s.imag) for r in roots]
    assert keys == sorted(keys)


def assert_root_multisets_close(xs, ys, tol=1e-9):
    assert len(xs) == len(ys)
    pool = list(ys)
    for z in xs:
        j = min(range(len(pool)), key=lambda i: abs(z - pool[i]))
        assert abs(z - pool[j]) <= tol * (1 + abs(z))
        pool.pop(j)


@given(states(), wavevectors(), st.integers(min_value=1, max_value=500))
def test_root_set_symmetry_under_sign_flips(state, omega, n):
    flipped = state.replace(
        H_plasma=(-state.H_plasma[0], -state.H_plasma[1]),
        H_vacuum=(-state.H_vacuum[0], -state.H_vacuum[1]),
    )
    reversed_om = Wavevector(-omega.omega2, -omega.omega3)
    for model in MHD_MODELS:
        a = [r.s for r in solve_dispersion(model, state, omega, n)]
        # flipping both fields and the direction leaves every projection alone
        b = [r.s for r in solve_dispersion(model, flipped, reversed_om, n)]
        # flipping the fields alone conjugates the one complex coefficient,
        # so the root set conjugates
        c = [r.s.conjugate() for r in solve_dispersion(model, flipped, omega, n)]
        assert_root_multisets_close(a, b)
        assert_root_multisets_close(a, c)


def test_incompressible_cubic_matches_companion_oracle():
    state = aligned_state(a_hat=0.9, a0_hat=0.4, a1_hat=0.3, rho_hat=2.0)
    n = 250
    roots = solve_dispersion(ModelKind.IncompressibleMHD, state, OM, n)
    wp, wm = w_pair(state, OM)
    c1 = state.a_hat + 1j * wm * state.a1_hat
    coeffs = [
        n * state.rho_hat,
        -state.a0_hat * state.rho_hat,
        n * (wp * wp + wm * wm) - c1,
        -state.a0_hat * wp * wp,
    ]
    oracle = sorted(np.roots(coeffs), key=lambda z: (z.real, z.imag))
    got = sorted((r.s for r in roots), key=lambda z: (z.real, z.imag))
    assert len(oracle) == len(got)
    for z, w in zip(oracle, got):
        assert abs(z - w) < 1e-10 * (1 + abs(z))


def test_newton_reports_nonconvergence_with_best_iterate():
    # s^2 + 1 has no real roots and real Newton iteration stays real, so a
    # huge real start can never satisfy the step criterion
    with pytest.raises(ConvergenceError) as info:
        newton_refine(
            ModelKind.IncompressibleEuler,
            BasicState(a_hat=-1.0),
            OM,
            1e30,
            1,
        )
    assert info.value.best_residual >= 0.0


# ------------------------------------------------------------- asymptotics


def test_series_families_select_regime():
    # growing square-root branch
    fams = asymptotic_root(ModelKind.CompressibleMHD, aligned_state(a_hat=4.0), PERP)
    assert len(fams) == 1 and fams[0].s1 == pytest.approx(2.0)
    # exact a0/n branch
    fams = asymptotic_root(ModelKind.CompressibleEuler, BasicState(a0_hat=2.0), OM)
    assert len(fams) == 1 and fams[0].s2 == pytest.approx(2.0) and fams[0].s1 == 0
    # no growing branch at all
    assert asymptotic_root(ModelKind.IncompressibleEuler, BasicState(a_hat=-1.0), OM) == []
    assert asymptotic_root(ModelKind.IncompressibleEuler, BasicState(), OM) == []


def test_series_leading_term_for_oscillatory_regime():
    state = BasicState(H_plasma=(3.0, 0.0), H_vacuum=(4.0, 0.0))
    fams = asymptotic_root(ModelKind.IncompressibleMHD, state, OM)
    assert len(fams) == 2
    assert fams[0].s0 == pytest.approx(5j, abs=1e-12)
    assert fams[1].s0 == pytest.approx(-5j, abs=1e-12)
    assert all(f.s1 == 0 for f in fams)


def test_oscillatory_series_real_part_closed_form():
    # reference: first-order perturbation of the leading-order symbol
    state = BasicState(
        H_plasma=(0.6, 0.0), H_vacuum=(0.8, 0.0), a_hat=0.5, a0_hat=1.0, a1_hat=0.3
    )
    fams = asymptotic_root(ModelKind.IncompressibleMHD, state, OM)
    W = 1.0
    expect = {
        round(math.sqrt(W) * 0.8 * 0.3 / (2 * W) + 1.0 * 0.64 / (2 * W), 12),
        round(-math.sqrt(W) * 0.8 * 0.3 / (2 * W) + 1.0 * 0.64 / (2 * W), 12),
    }
    got = {round(f.s2.real, 12) for f in fams}
    assert got == expect


@given(model_state_pairs(), st.sampled_from([1000, 10000]))
@settings(max_examples=60)
def test_series_residual_meets_advertised_budget(pair, n):
    model, state = pair
    if model.is_mhd:
        state = state.replace(H_plasma=(abs(state.H_plasma[0]) + 0.2, 0.0), H_vacuum=(1.0, 0.0))
        omega = Wavevector(0.0, 1.0)
    else:
        omega = OM
    assume(state.a_hat > 0.1)
    fams = asymptotic_root(model, state, omega)
    assert len(fams) == 1
    s = fams[0].evaluate(n)
    rel = abs(dispersion_eval(model, state, omega, s, n).value) / dispersion_scale(
        model, state, omega, s, n
    )
    assert rel <= 10.0 * n ** (-1.5)


def test_series_matches_polished_root_to_high_order():
    state = aligned_state(a_hat=1.0, a0_hat=1.5, rho_hat=2.0, c_hat=1.5)
    for n in (10**3, 10**4):
        fam = asymptotic_root(ModelKind.CompressibleMHD, state, PERP)[0]
        top = dominant_root(solve_dispersion(ModelKind.CompressibleMHD, state, PERP, n))
        assert abs(fam.evaluate(n) - top.s) < 5.0 * n ** (-2)


# ------------------------------------------------------------ scaling fits


def test_scaling_fit_exact_square_root_law():
    fit = fit_scaling(
        ModelKind.IncompressibleEuler, BasicState(a_hat=1.0), OM, [100, 1000, 10000]
    )
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.coefficient == pytest.approx(1.0, rel=1e-12)
    assert fit.rms_log_error < 1e-12


def test_scaling_fit_compressible_aligned_case():
    state = aligned_state(a_hat=1.0, rho_hat=4.0, c_hat=2.0)
    fit = fit_scaling(
        ModelKind.CompressibleMHD, state, PERP, [100, 1000, 10000, 100000]
    )
    assert fit.exponent == pytest.approx(0.5, abs=0.001)
    assert fit.coefficient == pytest.approx(0.5, rel=0.005)


def test_scaling_fit_oscillatory_case_has_unit_exponent():
    state = BasicState(
        H_plasma=(0.6, 0.0), H_vacuum=(0.8, 0.0), a_hat=0.5, a0_hat=1.0, a1_hat=0.3
    )
    fit = fit_scaling(ModelKind.IncompressibleMHD, state, OM, [100, 1000, 10000])
    assert fit.exponent == pytest.approx(1.0, abs=0.01)


def test_scaling_fit_reports_failing_indices():
    state = BasicState(a_hat=-1.0)  # no admissible root at any n
    with pytest.raises(FitError) as info:
        fit_scaling(ModelKind.IncompressibleEuler, state, OM, [100, 1000, 10000])
    assert info.value.failing_n == (100, 1000, 10000)


def test_scaling_fit_validates_grid():
    state = BasicState(a_hat=1.0)
    with pytest.raises(ValueError):
        fit_scaling(ModelKind.IncompressibleEuler, state, OM, [100, 100, 1000])
    with pytest.raises(ValueError):
        fit_scaling(ModelKind.IncompressibleEuler, state, OM, [100, 200, 900])


# ------------------------------------------------------------ s0 scanning


def test_scan_reports_no_growing_leading_frequency():
    rng = np.random.default_rng(7)
    state = BasicState(rho_hat=2.0, c_hat=1.3, H_plasma=(0.7, 0.4), H_vacuum=(-0.5, 1.1))
    samples = [Wavevector(*v) for v in rng.normal(size=(64, 2))]
    report = scan_s0(state, samples, 1e-8)
    assert report.passed
    assert report.max_re_s0 <= 1e-8
    assert len(report.per_sample) == 64
    assert report.failures == ()


def test_scan_handles_single_field_direction():
    state = BasicState(H_plasma=(1.0, 0.0), H_vacuum=(0.0, 0.0), c_hat=2.0)
    report = scan_s0(state, [Wavevector(1.0, 0.0)], 1e-12)
    assert report.passed and report.max_re_s0 == 0.0


def test_scan_rejects_doubly_orthogonal_direction():
    state = BasicState(H_plasma=(1.0, 0.0), H_vacuum=(2.0, 0.0))
    with pytest.raises(DomainError):
        scan_s0(state, [Wavevector(0.0, 1.0)], 1e-8)
