"""Root finding, asymptotic series and scaling-law fits."""
import cmath
import math
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    MHD_MODELS,
    bounded,
    count_solves,
    load_bench_oracle,
    model_state_pairs,
    state_dict,
    states,
    wavevectors,
)
from mhdlab import dispersion as dispersion_module
from mhdlab import errors as errors_module
from mhdlab import roots as roots_module
from mhdlab.classifier import _witness_direction
from mhdlab.dispersion import AsymptoticRoot, dispersion_eval, mode_symbol
from mhdlab.domain import BasicState, ModeRoot, ModelKind, Wavevector, w_pair
from mhdlab.errors import BranchPointError, DomainError, FitError
from mhdlab.roots import (
    _DEDUPE_TOL,
    MAX_ITERATIONS,
    RESIDUAL_TOLERANCE,
    _finish_root,
    _poly_candidates,
    _wrong_branch,
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
        value = mode_symbol(model, state, omega).value(r.s, n)[0]
        assert abs(value) <= RESIDUAL_TOLERANCE * mode_symbol(model, state, omega).scale(r.s, n) * 1.01


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
    flipped = replace(state, 
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
    sym = mode_symbol(ModelKind.IncompressibleEuler, BasicState(a_hat=-1.0), OM)
    s, residual = newton_refine(sym, 1e30, 1)
    assert s.imag == 0.0
    assert RESIDUAL_TOLERANCE < residual < math.inf


def test_newton_stops_where_g_overflows():
    # Newton diverges from this start and (s / c) ** 2 in g overflows; the
    # polish keeps its best iterate instead of raising OverflowError
    state = BasicState(
        rho_hat=1.0, c_hat=1.0, a_hat=-1.1139418903707701e-20, a0_hat=8.703767873931549e-181
    )
    start = 1.055434455743591e-10 + 0j
    s, residual = newton_refine(mode_symbol(ModelKind.CompressibleEuler, state, OM), start, 1)
    assert (s, residual) == (start, 1.0)
    assert not residual <= RESIDUAL_TOLERANCE


@pytest.mark.parametrize("model, fields", [
    (ModelKind.IncompressibleEuler, {}),
    (ModelKind.IncompressibleMHD, {"H_plasma": (1.0, 0.0), "H_vacuum": (0.0, 1.0)}),
    (ModelKind.CompressibleEuler, {}),
    (ModelKind.CompressibleMHD, {"H_plasma": (1.0, 0.0)}),
])
def test_sound_speed_whose_square_overflows(model, fields):
    """c_hat^2 overflows a double: the incompressible models never read it,
    the compressible ones refuse the state with a DomainError."""
    big = BasicState(c_hat=1e160, a_hat=1.0, **fields)
    if model.is_compressible:
        with pytest.raises(DomainError):
            solve_dispersion(model, big, OM, 10)
    else:
        unit = BasicState(c_hat=1.0, a_hat=1.0, **fields)
        assert repr(solve_dispersion(model, big, OM, 10)) == repr(solve_dispersion(model, unit, OM, 10))


def test_polish_evaluates_each_iterate_once_and_the_gate_none(monkeypatch):
    """Every determinant evaluation in a solve is a Newton iterate (each the
    Newton step from the one before), exact-zero candidates included, a
    polish makes at most MAX_ITERATIONS of them, and each reported residual
    is the one the polish computed."""
    calls = []
    depth = [0]

    def counting_eval(sym, s, n):
        dv = dispersion_eval(sym, s, n)
        calls.append((depth[0], s, dv))
        return dv

    def counting_newton(sym, s, n):
        calls.append((None, s, None))
        depth[0] += 1
        try:
            return newton_refine(sym, s, n)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(roots_module, "dispersion_eval", counting_eval)
    monkeypatch.setattr(roots_module, "newton_refine", counting_newton)

    @given(model_state_pairs(), wavevectors(), st.sampled_from([1, 7, 100, 10**4, 10**6]))
    @settings(max_examples=100)
    # the polish steps to a non-finite iterate and stops there
    @example((ModelKind.CompressibleMHD, BasicState(a_hat=4.842050404188527e-302, a0_hat=1.0)), OM, 1)
    def check(pair, omega, n):
        model, state = pair
        calls.clear()
        found = solve_dispersion(model, state, omega, n)
        cands = _poly_candidates(mode_symbol(model, state, omega).polynomial(n))
        if model is ModelKind.CompressibleMHD:
            cands += [f.evaluate(n) for f in mode_symbol(model, state, omega).families]
        assert 0 not in cands or any(depth_ is None and s == 0 for depth_, s, _ in calls)
        assert all(depth_ != 0 for depth_, _, _ in calls)
        prev = None
        for depth_, s, dv in calls:
            if depth_ is None:  # a polish starts
                prev, evals = complex(s), 0
            else:
                assert s == prev
                prev = s - dv[0] / dv[1] if dv[1] != 0 else None
                evals += 1
                assert evals <= MAX_ITERATIONS
        for r in found:
            value = mode_symbol(model, state, omega).value(r.s, n)[0]
            assert r.residual == abs(value) / mode_symbol(model, state, omega).scale(r.s, n)

    check()


def count_evaluations(monkeypatch, fake=None):
    calls = []

    def counting_eval(sym, s, n):
        calls.append(s)
        return fake(len(calls)) if fake else dispersion_eval(sym, s, n)

    monkeypatch.setattr(roots_module, "dispersion_eval", counting_eval)
    return calls


def test_polish_stops_at_an_exact_root(monkeypatch):
    # 3 s^2 - s vanishes in floating point at s = 1/3
    sym = mode_symbol(ModelKind.IncompressibleEuler, BasicState(a_hat=0.0, a0_hat=1.0), OM)
    calls = count_evaluations(monkeypatch)
    assert newton_refine(sym, 1 / 3, 3) == (1 / 3, 0.0)
    assert calls == [1 / 3]


def test_polish_makes_at_most_max_iterations_evaluations(monkeypatch):
    """A step first drops below the step tolerance on the last iterate the
    loop allows: the polish stops there without evaluating the next one."""
    sym = mode_symbol(ModelKind.IncompressibleEuler, BasicState(a_hat=1.0), OM)
    calls = count_evaluations(
        monkeypatch, lambda k: (1e-20 if k == MAX_ITERATIONS else 1.0, 1.0)
    )
    newton_refine(sym, 0.0, 1)
    assert len(calls) == MAX_ITERATIONS
    assert calls[-1] == -(MAX_ITERATIONS - 1)


@pytest.mark.parametrize("model", list(ModelKind))
def test_overflowing_scale_ends_the_polish_without_a_root(model):
    """|s|^2 overflows at |s| = 1e160, so no termwise magnitude exists there:
    the scale raises, and the polish reports an infinite residual that the
    gate rejects instead of a nan value over an infinite scale."""
    state = aligned_state(a_hat=1.0, c_hat=2.0) if model.is_mhd else BasicState(a_hat=1.0, c_hat=2.0)
    s = 1e160 * (0.6 + 0.8j)
    with pytest.raises(OverflowError):
        mode_symbol(model, state, PERP).scale(s, 7)
    best, residual = newton_refine(mode_symbol(model, state, PERP), s, 7)
    assert best == s and math.isinf(residual)
    assert not residual <= RESIDUAL_TOLERANCE


# ------------------------------------------------------- branch prefilter

COMPRESSIBLE = [ModelKind.CompressibleEuler, ModelKind.CompressibleMHD]

# a0^2 underflows, so the cleared polynomial's constant term is exactly 0 and
# the deflated candidate s = 0 fails the gate beside a root at s ~ 3.6e-241
UNDERFLOW_STATE = BasicState(
    rho_hat=0.5, c_hat=1.0, H_plasma=(1.0, 0.0),
    H_vacuum=(0.5403023058681398, 0.8414709848078965),
    a_hat=0.0, a0_hat=4.6128174235949784e-241, a1_hat=0.0,
)


def skipped_candidates(model, state, omega, n):
    sym = mode_symbol(model, state, omega)
    return [c for c in _poly_candidates(sym.polynomial(n)) if c != 0 and _wrong_branch(sym, c, n)]


@st.composite
def compressible_cases(draw):
    model = draw(st.sampled_from(COMPRESSIBLE))
    state = draw(states(model=model, collinear=draw(st.booleans())))
    omega = draw(wavevectors())
    if model.is_mhd and draw(st.booleans()):
        omega = _witness_direction(state)
    n = draw(st.one_of(st.integers(1, 1000), st.sampled_from([10**4, 10**5, 10**6])))
    return model, state, omega, n


@given(compressible_cases())
@example((ModelKind.CompressibleMHD, UNDERFLOW_STATE, OM, 1))
@settings(max_examples=150)
def test_skipped_candidates_polish_onto_no_new_root(case):
    """A candidate the branch test skips, polished and gated anyway, gives
    no root, a root the solver returns, or one beyond double precision
    (oracle.beyond_double: within rounding of s = 0, or where rounding the
    root alone leaves a residual near the gate)."""
    model, state, omega, n = case
    found = [r.s for r in solve_dispersion(model, state, omega, n)]
    for cand in skipped_candidates(model, state, omega, n):
        s, residual = newton_refine(mode_symbol(model, state, omega), cand, n)
        # written so that a nan residual fails the gate too
        if not residual <= RESIDUAL_TOLERANCE:
            continue
        made = _finish_root(mode_symbol(model, state, omega), s, residual, n)
        if any(abs(made.s - f) <= _DEDUPE_TOL * (1.0 + abs(made.s)) for f in found):
            continue
        oracle = load_bench_oracle()
        largest = max(abs(z) for z in found + [made.s])
        if abs(made.s) <= oracle.NEAR_ZERO_EPS * oracle.DOUBLE_EPS * largest:
            continue  # within rounding of s = 0, beyond_double's first kind
        pytest.importorskip("mpmath")
        sd, om = state_dict(state), (omega.omega2, omega.omega3)
        expected = oracle.oracle_roots(model.value, sd, om, n)
        beyond = oracle.beyond_double(model.value, sd, om, n, expected)
        assert any(abs(made.s - r) <= oracle.ROOT_MATCH_TOL * (1 + abs(r)) for r in beyond), made


def test_an_exact_zero_that_fails_the_gate_is_polished():
    model = ModelKind.CompressibleMHD
    sym = mode_symbol(model, UNDERFLOW_STATE, OM)
    assert 0 in _poly_candidates(sym.polynomial(1))
    assert not abs(sym.value(0j, 1)[0]) / sym.scale(0j, 1) <= RESIDUAL_TOLERANCE
    (root,) = solve_dispersion(model, UNDERFLOW_STATE, OM, 1)
    assert root.s == pytest.approx(3.570495017937298e-241, rel=1e-12)
    assert root.admissible and not root.neutral and root.residual <= RESIDUAL_TOLERANCE


def test_wrong_branch_candidates_are_skipped():
    # the README state along the default direction (1, 0)
    state = BasicState(
        rho_hat=1.0, c_hat=2.0, H_plasma=(0.6, 0.8), H_vacuum=(1.2, 1.6),
        a_hat=1.0, a0_hat=0.2, a1_hat=0.7,
    )
    assert skipped_candidates(ModelKind.CompressibleMHD, state, OM, 1000)


def record_polish(monkeypatch):
    starts = []

    def recorder(sym, s, n):
        starts.append(s)
        return newton_refine(sym, s, n)

    monkeypatch.setattr(roots_module, "newton_refine", recorder)
    return starts


@pytest.mark.parametrize(
    "model, state",
    [
        (ModelKind.IncompressibleEuler, BasicState(a_hat=1.0, a0_hat=0.5)),
        (ModelKind.IncompressibleMHD, aligned_state(a_hat=0.9, a0_hat=0.4, a1_hat=0.3)),
        (ModelKind.IncompressibleMHD, BasicState(H_plasma=(0.6, 0.2), H_vacuum=(-0.8, 1), a_hat=2.0)),
    ],
)
def test_incompressible_candidates_are_all_polished(monkeypatch, model, state):
    for n in (1, 100, 10**6):
        sym = mode_symbol(model, state, OM)
        cands = _poly_candidates(sym.polynomial(n))
        assert not any(_wrong_branch(sym, c, n) for c in cands)
        starts = record_polish(monkeypatch)
        solve_dispersion(model, state, OM, n)
        assert starts == cands


def test_seeds_and_exact_zeros_bypass_the_branch_test(monkeypatch):
    # both fields along x and the direction along y: s = 0 is an exact root
    # and the sqrt(a/rho) family gives an asymptotic seed
    state = aligned_state(a_hat=1.0, a0_hat=1.5, rho_hat=2.0, c_hat=1.5)
    model, n = ModelKind.CompressibleMHD, 10**4
    sym = mode_symbol(model, state, PERP)
    zeros = [c for c in _poly_candidates(sym.polynomial(n)) if c == 0]
    seeds = [f.evaluate(n) for f in sym.families]
    assert zeros and seeds
    monkeypatch.setattr(roots_module, "_wrong_branch", lambda sym, s, n: True)
    starts = record_polish(monkeypatch)
    got = solve_dispersion(model, state, PERP, n)
    # the copies of the s = 0 factor are one candidate
    assert starts == zeros[:1] + seeds
    assert any(r.neutral for r in got)


def test_each_distinct_candidate_is_polished_once(monkeypatch):
    state = BasicState(
        rho_hat=2.0, c_hat=1.5, H_plasma=(0.0, 1.0), H_vacuum=(0.0, 0.5),
        a_hat=1.0, a0_hat=0.3, a1_hat=0.7,
    )
    model, n = ModelKind.CompressibleMHD, 25
    sym = mode_symbol(model, state, OM)
    cands = _poly_candidates(sym.polynomial(n))
    assert [repr(c) for c in cands[:4]] == ["0j"] * 4 and all(c != 0 for c in cands[4:])
    starts = record_polish(monkeypatch)
    got = solve_dispersion(model, state, OM, n)
    # one polish of s = 0, two of the other polynomial candidates (two are on
    # the other branch) and one of the asymptotic seed
    assert len(starts) == 4 and [c for c in starts if c == 0] == [0j]
    # the root set is the one made when every copy of s = 0 was polished
    assert [repr(r) for r in got] == [
        "ModeRoot(s=(0.14782844960408356+0j), lambda_plus=(-1.0039654558549036-0j), "
        "lambda_minus=(1+0j), residual=0.0, admissible=True, n=25, neutral=False)",
        "ModeRoot(s=0j, lambda_plus=(-1-0j), lambda_minus=(1+0j), residual=0.0, "
        "admissible=False, n=25, neutral=True)",
        "ModeRoot(s=(-0.13578481410015508+1.5407439555097887e-33j), "
        "lambda_plus=(-1.0033466754707765+7.582247644153568e-35j), lambda_minus=(1+0j), "
        "residual=1.0186336641166605e-16, admissible=False, n=25, neutral=False)",
    ]


@pytest.mark.parametrize(
    "model, state, s",
    [
        (ModelKind.CompressibleEuler, BasicState(c_hat=2.0, a_hat=1.0), 2j),
        (ModelKind.CompressibleMHD, BasicState(H_plasma=(1.0, 0.0)), 1j / math.sqrt(2.0)),
    ],
)
def test_branch_point_candidates_are_polished(monkeypatch, model, state, s):
    n = 10
    assert not _wrong_branch(mode_symbol(model, state, OM), s, n)
    monkeypatch.setattr(roots_module, "_poly_candidates", lambda coeffs: [s])
    starts = record_polish(monkeypatch)
    solve_dispersion(model, state, OM, n)
    assert starts[0] == s


# ------------------------------------------------------------- asymptotics


def test_series_families_select_regime():
    # growing square-root branch
    fams = mode_symbol(ModelKind.CompressibleMHD, aligned_state(a_hat=4.0), PERP).families
    assert len(fams) == 1 and fams[0].s1 == pytest.approx(2.0)
    # exact a0/n branch
    fams = mode_symbol(ModelKind.CompressibleEuler, BasicState(a0_hat=2.0), OM).families
    assert len(fams) == 1 and fams[0].s2 == pytest.approx(2.0) and fams[0].s1 == 0
    # no growing branch at all
    assert mode_symbol(ModelKind.IncompressibleEuler, BasicState(a_hat=-1.0), OM).families == ()
    assert mode_symbol(ModelKind.IncompressibleEuler, BasicState(), OM).families == ()


def test_series_leading_term_for_oscillatory_regime():
    state = BasicState(H_plasma=(3.0, 0.0), H_vacuum=(4.0, 0.0))
    fams = mode_symbol(ModelKind.IncompressibleMHD, state, OM).families
    assert len(fams) == 2
    assert fams[0].s0 == pytest.approx(5j, abs=1e-12)
    assert fams[1].s0 == pytest.approx(-5j, abs=1e-12)
    assert all(f.s1 == 0 for f in fams)


def test_oscillatory_series_real_part_closed_form():
    # reference: first-order perturbation of the leading-order symbol
    state = BasicState(
        H_plasma=(0.6, 0.0), H_vacuum=(0.8, 0.0), a_hat=0.5, a0_hat=1.0, a1_hat=0.3
    )
    fams = mode_symbol(ModelKind.IncompressibleMHD, state, OM).families
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
        state = replace(state, H_plasma=(abs(state.H_plasma[0]) + 0.2, 0.0), H_vacuum=(1.0, 0.0))
        omega = Wavevector(0.0, 1.0)
    else:
        omega = OM
    assume(state.a_hat > 0.1)
    fams = mode_symbol(model, state, omega).families
    assert len(fams) == 1
    s = fams[0].evaluate(n)
    sym = mode_symbol(model, state, omega)
    rel = abs(sym.value(s, n)[0]) / sym.scale(s, n)
    assert rel <= 10.0 * n ** (-1.5)


def test_series_matches_polished_root_to_high_order():
    state = aligned_state(a_hat=1.0, a0_hat=1.5, rho_hat=2.0, c_hat=1.5)
    for n in (10**3, 10**4):
        fam = mode_symbol(ModelKind.CompressibleMHD, state, PERP).families[0]
        top = dominant_root(solve_dispersion(ModelKind.CompressibleMHD, state, PERP, n))
        assert abs(fam.evaluate(n) - top.s) < 5.0 * n ** (-2)


@pytest.mark.parametrize("a0", [0.0, 0.7, -0.4])
def test_subnormal_a_over_rho_takes_the_a_zero_families(a0):
    # a/rho = 5e-324/2 underflows to 0: the sqrt(a/rho) family would divide
    # by s1 = 0, so the symbol has the families of a = 0
    state = BasicState(rho_hat=2.0, c_hat=1.0, a_hat=5e-324, a0_hat=a0)
    model = ModelKind.CompressibleMHD
    expect = (AsymptoticRoot(0j, 0j, complex(a0), 0j),) if a0 != 0 else ()
    assert mode_symbol(model, state, OM).families == expect
    for n in (1, 100, 10**6):
        got = sorted((r.s for r in solve_dispersion(model, state, OM, n)), key=lambda s: s.real)
        want = sorted({0.0, a0 / n})
        assert [s.imag for s in got] == [0.0] * len(want)
        assert [s.real for s in got] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_series_families_are_built_once_per_scaling_fit(monkeypatch):
    calls = []
    build = dispersion_module._series_families

    def counting(sym):
        calls.append(sym)
        return build(sym)

    monkeypatch.setattr(dispersion_module, "_series_families", counting)
    state = aligned_state(a_hat=1.0, rho_hat=4.0, c_hat=2.0)
    grid = [10**2, 10**3, 10**4, 10**5, 10**6]
    fit = fit_scaling(ModelKind.CompressibleMHD, state, PERP, grid)
    assert fit.exponent == pytest.approx(0.5, abs=0.001)
    assert len(calls) == 1


def _np_roots_candidates(coeffs) -> list:
    """The companion solve as it was written on np.roots, refusing a companion
    with a coefficient that is not finite: the reference."""
    c = np.asarray(coeffs, dtype=complex)
    lead = np.max(np.abs(c))
    if lead == 0:
        c = c[-1:]
    else:
        c = c[int(np.argmax(np.abs(c) > 1e-300 * lead)) :]
    out = []
    while len(c) > 1 and c[-1] == 0:
        out.append(0j)
        c = c[:-1]
    if len(c) > 1:
        if len(np.trim_zeros(c, "f")) > 1 and not np.isfinite(c).all():
            raise DomainError("non-finite companion")
        out.extend(np.roots(c).tolist())
    return out


def _outcome(fn, coeffs):
    try:
        return repr(fn(np.array(coeffs, dtype=complex)))
    except Exception as exc:  # the reference's exception type is part of the contract
        return type(exc)


def test_poly_candidates_match_np_roots_bit_for_bit():
    rng = np.random.default_rng(20)
    inf, nan = math.inf, math.nan
    cases = [
        [0.0], [2.5], [0.0, 0.0, 0.0], [1e-310, 1.0, 2.0], [1e-301, 0.0, 3.0, 1.0],
        [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [-0.0, 1.0, -0.0], [5e-324, 0.0],
        [inf, 1.0, 2.0], [1.0, nan, 2.0], [0.0, inf, 1.0], [0.0, 0.0, inf, 0.0],
        [0.0, nan, 0.0, 0.0], [1e-310, nan, 1.0], [nan], [1.0, inf], [complex(inf, 1.0), 1.0],
    ]
    for _ in range(2000):
        deg = int(rng.integers(1, 9))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c *= 10.0 ** rng.integers(-6, 7, size=deg + 1)
        kind = rng.integers(0, 5)
        if kind == 1:
            c[0] *= 1e-302  # leading coefficient below 1e-300 times the largest
        elif kind == 2:
            c[-int(rng.integers(1, deg + 1)) :] = 0.0
        elif kind == 3:
            c[int(rng.integers(0, deg + 1))] = rng.choice([inf, -inf, nan])
        cases.append(c)
    for coeffs in cases:
        assert _outcome(_poly_candidates, coeffs) == _outcome(_np_roots_candidates, coeffs), coeffs


# CompressibleMHD states far outside the property tests' windows, where the
# cleared polynomial or g(s) overflows double precision
CENSUS_CASES = [
    (BasicState(rho_hat=1e200, H_plasma=(1.0, 0.0), H_vacuum=(1.0, 0.0)), Wavevector(1.0, 0.3), 10),
    (
        BasicState(
            rho_hat=2.569926169674014, c_hat=2.168817357777062,
            H_plasma=(-9.322097302961491e-24, 2.289081405142153),
            H_vacuum=(-8.522305780054416e54, 3.440728887334117),
            a_hat=0.40180369247036174, a0_hat=-2.0405762771057705, a1_hat=2.2324648310922667e47,
        ),
        Wavevector(0.8434849041474717, -0.11600703014840597),
        1,
    ),
    (
        BasicState(
            rho_hat=2.851553881867643, c_hat=0.00012027359183316996,
            H_plasma=(-0.654629120439143, 0.0),
            H_vacuum=(-2.0842388398698112e-23, -9.511562948072276e44),
            a0_hat=-7.695510295187957e-15, a1_hat=0.8089396286853963,
        ),
        Wavevector(-0.9474112051610994, -0.7910413275463382),
        1,
    ),
]


@pytest.mark.parametrize("state, omega, n", CENSUS_CASES)
def test_overflowing_states_return_roots_or_a_typed_error(state, omega, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            found = solve_dispersion(ModelKind.CompressibleMHD, state, omega, n)
        except Exception as exc:
            assert type(exc).__module__ == errors_module.__name__, repr(exc)
        else:
            assert all(isinstance(r, ModeRoot) for r in found)


# The witness bound: on 80,000 draws of this distribution the worst relative
# gap was 1.4e-12, where the MHD root carries an imaginary part of ~1e-17
# (the witness projections round to ~1e-16 instead of 0) on a real Euler root
# of size ~1e-5.
WITNESS_REL_TOL = 1e-11


@pytest.mark.parametrize("model", MHD_MODELS, ids=lambda m: m.value)
def test_witness_roots_are_the_euler_roots_at_the_fast_speed(model):
    """Along the witness of a collinear state both projections vanish, so the
    MHD determinant is rho s [n s^2 - a0 s - (a/rho) g(s)]: apart from s = 0,
    its roots are the Euler model's at the fast speed sqrt(c^2 + |Hp|^2/rho),
    with the same count and admissibility. No oracle: the two determinants
    check each other."""
    euler = ModelKind.CompressibleEuler if model.is_compressible else ModelKind.IncompressibleEuler
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(1500):
        rho, c, hp = rng.uniform(0.1, 10.0, 3)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        hv = rng.uniform(-10.0, 10.0)
        a, a0, a1 = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        n = int(rng.choice([1, 7, 10**2, 10**4, 10**6]))
        u2, u3 = math.cos(theta), math.sin(theta)
        state = BasicState(
            rho_hat=rho, c_hat=c, H_plasma=(hp * u2, hp * u3), H_vacuum=(hv * u2, hv * u3),
            a_hat=a, a0_hat=a0, a1_hat=a1,
        )
        fast = math.sqrt(c * c + hp * hp / rho)
        reduced = BasicState(rho_hat=rho, c_hat=fast, a_hat=a, a0_hat=a0)
        got = [r for r in solve_dispersion(model, state, _witness_direction(state), n) if abs(r.s) > 1e-9]
        want = [r for r in solve_dispersion(euler, reduced, OM, n) if abs(r.s) > 1e-9]
        nearest = [min(got, key=lambda r: abs(r.s - w.s)) for w in want]
        assert len(got) == len({id(g) for g in nearest}) == len(want), (state, n, got, want)
        for g, w in zip(nearest, want):
            assert g.admissible == w.admissible, (state, n, g, w)
            worst = max(worst, abs(g.s - w.s) / abs(w.s))
    assert worst <= WITNESS_REL_TOL, worst


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


def exact_line(x, y):
    """Least-squares line through the points (x, y) in exact rational
    arithmetic: slope, intercept and mean squared residual as Fractions."""
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    m = len(xs)
    xbar, ybar = sum(xs) / m, sum(ys) / m
    slope = sum((a - xbar) * (b - ybar) for a, b in zip(xs, ys)) / sum((a - xbar) ** 2 for a in xs)
    intercept = ybar - slope * xbar
    return slope, intercept, sum((b - slope * a - intercept) ** 2 for a, b in zip(xs, ys)) / m


@given(
    model_state_pairs(collinear=True),
    wavevectors(),
    st.sampled_from([[100, 1000, 10000], [10**k for k in range(2, 7)], [30, 300, 3000, 30000]]),
)
@example((ModelKind.CompressibleMHD, aligned_state(a_hat=1.0)), PERP, [100, 1000])
@settings(max_examples=40)
def test_scaling_fit_is_the_exact_least_squares_line(pair, omega, n_grid):
    # ill-posed: a > 0, on the witness direction for the collinear MHD fields
    model, state = pair
    assume(state.a_hat >= 0.25)
    if model.is_mhd:
        omega = _witness_direction(state)
    best = [dominant_root(solve_dispersion(model, state, omega, n)) for n in n_grid]
    assume(all(best))
    slope, intercept, mean_sq = exact_line(
        [math.log(n) for n in n_grid], [math.log(r.s.real) for r in best]
    )
    fit = fit_scaling(model, state, omega, n_grid)
    assert abs(-fit.exponent - slope) <= 1e-15 * abs(slope)
    assert fit.coefficient == pytest.approx(math.exp(intercept), rel=1e-14, abs=0)
    assert abs(fit.rms_log_error - math.sqrt(mean_sq)) <= 1e-14


def test_scaling_fit_reports_failing_indices(monkeypatch):
    solved = count_solves(monkeypatch)
    state = BasicState(a_hat=-1.0)  # no admissible root at any n
    with pytest.raises(FitError) as info:
        fit_scaling(ModelKind.IncompressibleEuler, state, OM, [100, 1000, 10000])
    assert info.value.failing_n == (100,)
    assert solved == [100]


def test_scaling_fit_stops_at_a_later_first_failure(monkeypatch):
    # an admissible root at n = 100 and none at n = 1000
    state = BasicState(
        rho_hat=2.521031771850565, c_hat=1.6421156448675407,
        H_plasma=(0.6939453038447271, -1.5760791523763311),
        H_vacuum=(0.6805697374685907, -1.5457007476233087),
        a_hat=3.5159572367474126, a0_hat=-0.9489855110602132, a1_hat=1.0271543422402787,
    )
    omega = Wavevector(-0.9867310311630039, -0.1623633953204817)
    solved = count_solves(monkeypatch)
    with pytest.raises(FitError) as info:
        fit_scaling(ModelKind.IncompressibleMHD, state, omega, [100, 1000, 10000, 100000, 1000000])
    assert info.value.failing_n == (1000,)
    assert solved == [100, 1000]


@pytest.mark.parametrize(
    "n_grid", [[1, math.inf], [1, math.nan], [1.9, 100.2], [0, 100], [], [100, 100, 1000]]
)
def test_scaling_fit_takes_growth_ratios_mode_index_rule(n_grid):
    with pytest.raises(DomainError, match="strictly increasing with every n >= 1"):
        fit_scaling(ModelKind.IncompressibleEuler, BasicState(a_hat=1.0), OM, n_grid)


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


def test_scan_records_an_overflowing_direction_as_a_failure():
    # wm^4 overflows a double along (1, 0.3); the aligned sample still scans
    state = BasicState(rho_hat=1e200, H_plasma=(1e200, 0.0), H_vacuum=(0.0, 1e200))
    report = scan_s0(state, [Wavevector(1.0, 0.3), Wavevector(1.0, 0.0)], 1e-8)
    assert not report.passed
    assert math.isnan(report.per_sample[0]) and report.per_sample[1] == 0.0
    assert len(report.failures) == 1
    assert report.failures[0].startswith("sample 0:") and "overflows" in report.failures[0]


def test_scan_rejects_an_empty_sample_list():
    with pytest.raises(DomainError, match="at least one direction"):
        scan_s0(BasicState(H_plasma=(1.0, 0.0)), [], 1e-8)


def test_scan_rejects_doubly_orthogonal_direction():
    state = BasicState(H_plasma=(1.0, 0.0), H_vacuum=(2.0, 0.0))
    with pytest.raises(DomainError):
        scan_s0(state, [Wavevector(0.0, 1.0)], 1e-8)


@pytest.mark.parametrize("tolerance", [None, "x", math.nan, math.inf, -math.inf])
def test_scan_rejects_a_bad_tolerance_before_any_solve(monkeypatch, tolerance):
    # a nan tolerance used to return passed=False, None and "x" a bare
    # TypeError once every direction had been solved
    def no_solve(*args):
        raise AssertionError("a direction was solved")

    monkeypatch.setattr(roots_module, "mode_symbol", no_solve)
    samples = [Wavevector(1.0, 0.3), Wavevector(0.2, 1.0)]
    with pytest.raises(DomainError, match="tolerance must be"):
        scan_s0(BasicState(H_plasma=(1.0, 0.0), H_vacuum=(0.0, 1.0)), samples, tolerance)


def test_scan_stores_its_tolerance_as_a_float():
    report = scan_s0(BasicState(H_plasma=(1.0, 0.0), c_hat=2.0), [Wavevector(1.0, 0.0)], 0)
    assert report.passed and report.tolerance == 0.0 and type(report.tolerance) is float


# ------------------------------------------------------- stored root sets


def readme_state():
    """A fresh object each call: the store is matched by identity."""
    return BasicState(
        rho_hat=1.0, c_hat=2.0, H_plasma=(0.6, 0.8), H_vacuum=(1.2, 1.6),
        a_hat=1.0, a0_hat=0.2, a1_hat=0.7,
    )


def test_a_repeated_solve_is_a_fresh_copy_made_without_polishing(monkeypatch):
    model, state = ModelKind.CompressibleMHD, readme_state()
    first = solve_dispersion(model, state, OM, 100)
    assert first
    starts = record_polish(monkeypatch)
    again = solve_dispersion(model, state, OM, 100)
    assert starts == []
    assert again is not first and repr(again) == repr(first)
    again.clear()
    assert repr(solve_dispersion(model, state, OM, 100)) == repr(first)


def test_an_equal_state_that_is_another_object_solves_again(monkeypatch):
    model, state = ModelKind.CompressibleMHD, readme_state()
    first = solve_dispersion(model, state, OM, 100)
    other = readme_state()
    assert other == state and other is not state
    starts = record_polish(monkeypatch)
    assert repr(solve_dispersion(model, other, OM, 100)) == repr(first)
    assert starts


def test_each_n_type_gets_roots_that_carry_it():
    state = BasicState(a_hat=1.0)
    for n in (25, 25.0, np.int64(25), True, 25, 25.0, True, 1):
        got = solve_dispersion(ModelKind.IncompressibleEuler, state, OM, n)
        assert got and all(type(r.n) is type(n) and r.n == n for r in got), (n, got)


def test_a_failed_solve_stores_nothing(monkeypatch):
    model, state = ModelKind.CompressibleMHD, readme_state()

    def failing(coeffs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(roots_module, "_poly_candidates", failing)
    with pytest.raises(np.linalg.LinAlgError):
        solve_dispersion(model, state, OM, 100)
    assert mode_symbol(model, state, OM).solved == {}
    monkeypatch.undo()
    assert repr(solve_dispersion(model, state, OM, 100)) == repr(
        solve_dispersion(model, readme_state(), OM, 100)
    )


def test_a_solve_looks_its_symbol_up_once(monkeypatch):
    """The polish evaluates the symbol solve_dispersion built, so a solve
    calls mode_symbol once however many Newton iterates it takes."""
    lookups = []

    def counting(*args):
        lookups.append(args)
        return mode_symbol(*args)

    monkeypatch.setattr(dispersion_module, "mode_symbol", counting)
    monkeypatch.setattr(roots_module, "mode_symbol", counting)
    starts = record_polish(monkeypatch)
    cases = [
        (ModelKind.CompressibleMHD, readme_state, OM),
        (ModelKind.IncompressibleMHD, readme_state, PERP),
        (ModelKind.CompressibleEuler, lambda: BasicState(a_hat=1.0, a0_hat=0.3), OM),
    ]
    for model, make_state, omega in cases:
        for n in (1, 7, 100, 10**4):
            lookups.clear()
            assert solve_dispersion(model, make_state(), omega, n)
            assert len(lookups) == 1, (model, n)
    assert starts


def _readme_symbol():
    return mode_symbol(ModelKind.CompressibleMHD, readme_state(), OM)


MODE_INDEX_ENTRY_POINTS = {
    "solve_dispersion": lambda n: solve_dispersion(ModelKind.CompressibleMHD, readme_state(), OM, n),
    "value": lambda n: _readme_symbol().value(0.5 + 0.1j, n),
    "scale": lambda n: _readme_symbol().scale(0.5 + 0.1j, n),
    "polynomial": lambda n: _readme_symbol().polynomial(n),
    "matrix": lambda n: _readme_symbol().matrix(0.5 + 0.1j, n),
    "AsymptoticRoot.evaluate": lambda n: AsymptoticRoot(1j, 0.5 + 0j, 0.2 + 0j).evaluate(n),
    "ModeRoot": lambda n: ModeRoot(
        s=0.5 + 0.1j, lambda_plus=-1 + 0j, lambda_minus=1 + 0j, residual=0.0, admissible=False, n=n
    ),
}


# pyproject.toml turns every RuntimeWarning into an error, so a case that
# warns fails here too
@pytest.mark.parametrize(
    "n", [0, -3, 0.5, math.nan, math.inf, -math.inf, 10**400],
    ids=["0", "-3", "0.5", "nan", "inf", "-inf", "10**400"],
)
@pytest.mark.parametrize("entry", list(MODE_INDEX_ENTRY_POINTS))
def test_a_bad_mode_index_is_a_domain_error(entry, n):
    with pytest.raises(DomainError, match="mode index"):
        MODE_INDEX_ENTRY_POINTS[entry](n)


def test_a_symbol_keeps_only_its_last_root_sets():
    model, state = ModelKind.IncompressibleEuler, BasicState(a_hat=1.0)
    for n in range(1, 21):
        solve_dispersion(model, state, OM, n)
    kept = roots_module._SOLVED_PER_SYMBOL
    assert list(mode_symbol(model, state, OM).solved) == list(range(21 - kept, 21))


@given(
    compressible_cases(),
    st.lists(
        st.one_of(
            st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            st.sampled_from([0j, complex(0.0, -0.0), complex(-0.0, 0.0)]),
        ),
        max_size=4,
    ),
    st.integers(0, 7),
)
@settings(max_examples=100)
def test_a_primed_symbol_solves_as_a_fresh_one(case, points, pick):
    """Whatever g last computed on a symbol, at arbitrary points or at one
    of the solve's roots, its solves return the root sets of a fresh symbol
    built from equal inputs."""
    model, state, omega, n = case
    expected = [solve_dispersion(model, replace(state), replace(omega), m) for m in (n, n + 1)]
    state, omega = replace(state), replace(omega)
    sym = mode_symbol(model, state, omega)
    if expected[0]:
        points.append(expected[0][pick % len(expected[0])].s)
    for p in points:
        for at in (sym.g, sym.lambda_plus):
            try:
                at(p)
            except (BranchPointError, OverflowError):
                pass
    # the second solve starts from the slot the first one left
    for m, want in zip((n, n + 1), expected):
        assert repr(solve_dispersion(model, state, omega, m)) == repr(want)
    assert mode_symbol(model, state, omega) is sym


# ------------------------------------------- stacked companions of a fit


def _companion_cases() -> list:
    """The coefficient lists of test_poly_candidates_match_np_roots_bit_for_bit,
    drawn from the same seed: 18 edge cases and 2,000 random ones."""
    rng = np.random.default_rng(20)
    inf, nan = math.inf, math.nan
    cases = [
        [0.0], [2.5], [0.0, 0.0, 0.0], [1e-310, 1.0, 2.0], [1e-301, 0.0, 3.0, 1.0],
        [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [-0.0, 1.0, -0.0], [5e-324, 0.0],
        [inf, 1.0, 2.0], [1.0, nan, 2.0], [0.0, inf, 1.0], [0.0, 0.0, inf, 0.0],
        [0.0, nan, 0.0, 0.0], [1e-310, nan, 1.0], [nan], [1.0, inf], [complex(inf, 1.0), 1.0],
    ]
    for _ in range(2000):
        deg = int(rng.integers(1, 9))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c *= 10.0 ** rng.integers(-6, 7, size=deg + 1)
        kind = rng.integers(0, 5)
        if kind == 1:
            c[0] *= 1e-302
        elif kind == 2:
            c[-int(rng.integers(1, deg + 1)) :] = 0.0
        elif kind == 3:
            c[int(rng.integers(0, deg + 1))] = rng.choice([inf, -inf, nan])
        cases.append(c)
    return cases


def test_stacked_candidates_match_np_roots_bit_for_bit():
    """Each companion size's cases solved as one stack give np.roots' candidates."""
    cases = _companion_cases()
    assert len(cases) == 2018
    got, groups = {}, {}
    for i, coeffs in enumerate(cases):
        try:
            zeros, companion = dispersion_module._companion(np.array(coeffs, dtype=complex))
        except Exception as exc:  # as in _outcome: the reference's type is the contract
            got[i] = type(exc)
            continue
        if companion is None:
            got[i] = repr(zeros)
        else:
            groups.setdefault(len(companion), {})[i] = zeros, companion
    assert sorted(groups) == list(range(1, 9))
    assert min(map(len, groups.values())) >= 90
    for group in groups.values():
        stack = np.array([companion for _, companion in group.values()])
        values = dispersion_module._eigvals(stack)
        got.update((i, repr(zeros + v)) for (i, (zeros, _)), v in zip(group.items(), values))
    for i, coeffs in enumerate(cases):
        assert got[i] == _outcome(_np_roots_candidates, coeffs), coeffs


def count_eigvals(monkeypatch, fail=lambda stack: False) -> list:
    """Patch np.linalg.eigvals where dispersion calls it to log the number of
    companions of each call, raising LinAlgError on a stack that fail picks."""
    calls = []
    real = np.linalg.eigvals

    def counting(stack):
        calls.append(len(stack))
        if fail(stack):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(stack)

    monkeypatch.setattr(dispersion_module.np.linalg, "eigvals", counting)
    return calls


FIT_GRID = [10**k for k in range(2, 7)]


def test_a_fit_failing_at_its_first_n_computes_no_later_companion(monkeypatch):
    calls = count_eigvals(monkeypatch)
    state = BasicState(a_hat=-1.0)  # no admissible root at any n
    with pytest.raises(FitError):
        fit_scaling(ModelKind.IncompressibleEuler, state, OM, FIT_GRID)
    assert calls == [1]
    assert mode_symbol(ModelKind.IncompressibleEuler, state, OM).primed == {}


def test_a_fit_solves_its_later_companions_in_one_stack(monkeypatch):
    calls = count_eigvals(monkeypatch)
    model, state = ModelKind.IncompressibleEuler, BasicState(a_hat=1.0)
    fit = fit_scaling(model, state, OM, FIT_GRID)
    assert fit.exponent == pytest.approx(0.5, abs=1e-3)
    assert calls == [1, 4]  # the first n alone, then four 2 x 2 companions
    sym = mode_symbol(model, state, OM)
    assert list(sym.solved) == FIT_GRID and sym.primed == {}


def _seeded_fit_cases(seed: int, per_model: int):
    """Seeded states of all four models with a direction each: Euler states of
    both signs of a, and MHD states whose fields are collinear (fitted along
    their witness) or not (along a random direction)."""
    rng = np.random.default_rng(seed)
    for model in ModelKind:
        for _ in range(per_model):
            kw = dict(
                rho_hat=float(rng.uniform(0.5, 4.0)), c_hat=float(rng.uniform(0.5, 3.0)),
                a_hat=float(rng.uniform(-1.0, 3.0)), a0_hat=float(rng.uniform(-1.0, 1.0)),
            )
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            omega = Wavevector(math.cos(theta), math.sin(theta))
            collinear = model.is_mhd and rng.random() < 0.5
            if model.is_mhd:
                hp = (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
                k = float(rng.uniform(-2.0, 2.0))
                hv = (k * hp[0], k * hp[1]) if collinear else tuple(rng.uniform(-2.0, 2.0, 2))
                kw.update(H_plasma=hp, H_vacuum=hv, a1_hat=float(rng.uniform(-1.0, 1.0)))
            state = BasicState(**kw)
            yield model, state, _witness_direction(state) if collinear else omega


@pytest.mark.parametrize("grid", [FIT_GRID, [1, 10, 100, 1000]], ids=["1e2-1e6", "1-1e3"])
def test_a_fit_leaves_the_root_sets_of_lone_solves(monkeypatch, grid):
    """The root sets a fit stores are those of lone solves on fresh symbols, and
    a fit that reaches its last n has taken every list it computed ahead."""
    lone = []
    poly_candidates = roots_module._poly_candidates

    def counting(coeffs):
        lone.append(coeffs)
        return poly_candidates(coeffs)

    monkeypatch.setattr(roots_module, "_poly_candidates", counting)
    fitted = {model: 0 for model in ModelKind}
    for model, state, omega in _seeded_fit_cases(40, 30):
        sym = mode_symbol(model, state, omega)
        lone.clear()
        try:
            fit_scaling(model, state, omega, grid)
        except (FitError, DomainError):
            pass
        else:
            fitted[model] += 1
            assert sym.primed == {} and len(lone) == 1, (model, state, omega)
        assert sym.solved, (model, state, omega)
        for n, roots in sym.solved.items():
            fresh = solve_dispersion(model, replace(state), replace(omega), n)
            assert repr(list(roots)) == repr(fresh), (model, state, omega, n)
    assert min(fitted.values()) >= 5, fitted


def test_a_failed_stacked_call_leaves_each_n_to_its_lone_solve(monkeypatch):
    model, state = ModelKind.CompressibleMHD, aligned_state(a_hat=1.0, rho_hat=4.0, c_hat=2.0)
    want = fit_scaling(model, replace(state), PERP, FIT_GRID)
    calls = count_eigvals(monkeypatch, fail=lambda stack: len(stack) > 1)
    assert fit_scaling(model, state, PERP, FIT_GRID) == want
    assert calls == [1, 4, 1, 1, 1, 1]


def test_an_unconverged_companion_fails_at_its_own_n(monkeypatch):
    model, state = ModelKind.IncompressibleEuler, BasicState(a_hat=1.0)
    poisoned = dispersion_module._companion(mode_symbol(model, state, OM).polynomial(1000))[1]
    count_eigvals(monkeypatch, fail=lambda stack: any(np.array_equal(m, poisoned) for m in stack))
    with pytest.raises(DomainError, match="companion eigenvalues did not converge"):
        fit_scaling(model, state, OM, FIT_GRID)
    assert list(mode_symbol(model, state, OM).solved) == [100]
    with pytest.raises(DomainError, match="companion eigenvalues did not converge"):
        solve_dispersion(model, replace(state), OM, 1000)


def test_a_fit_failing_early_does_not_warn_for_a_later_overflowing_n():
    """The last n's cleared polynomial overflows, with a RuntimeWarning, but
    the fit stops before that n; computing its companion ahead stays silent
    (pyproject.toml turns RuntimeWarnings into errors)."""
    model = ModelKind.CompressibleMHD
    state = BasicState(a_hat=1.0, H_plasma=(0.0, 1.0), H_vacuum=(1.0, 0.0))
    grid = [10**6, 10**7, 10**154]
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(DomainError, match="not finite"):
            solve_dispersion(model, replace(state), OM, grid[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError) as info:
            fit_scaling(model, state, OM, grid)
    assert info.value.failing_n == (10**7,)
    assert list(mode_symbol(model, state, OM).primed) == []


# ------------------------------------------------- n whose n^2 overflows

HUGE_N = [2 * 10**154, 10**200, 10**308]
HUGE_N_STATES = {
    ModelKind.IncompressibleEuler: {"a_hat": 1.0},
    ModelKind.CompressibleEuler: {"a_hat": 1.0},
    ModelKind.IncompressibleMHD: {"a_hat": 1.0, "H_plasma": (0.0, 1.0), "H_vacuum": (1.0, 0.0)},
    ModelKind.CompressibleMHD: {"a_hat": 1.0, "H_plasma": (0.0, 1.0), "H_vacuum": (1.0, 0.0)},
}


@pytest.mark.parametrize("n", HUGE_N, ids=["2e154", "1e200", "1e308"])
@pytest.mark.parametrize("model", list(HUGE_N_STATES), ids=lambda m: m.value)
def test_an_int_n_whose_square_overflows_returns_roots_or_a_typed_error(model, n):
    """CompressibleEuler's cleared polynomial holds n^2, an int no float can
    hold above about 1.34e154. CompressibleMHD's overflows with a RuntimeWarning
    (a known defect of its own), which is let through here: this pins the type."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            found = solve_dispersion(model, BasicState(**HUGE_N_STATES[model]), OM, n)
        except Exception as exc:
            assert type(exc).__module__ == errors_module.__name__, repr(exc)
        else:
            assert found and all(isinstance(r, ModeRoot) for r in found)


def test_a_compressible_euler_n_whose_square_overflows_is_a_domain_error():
    state = BasicState(a_hat=1.0)
    with pytest.raises(DomainError, match=r"n\^2 overflows a float for mode index n=2e\+154"):
        solve_dispersion(ModelKind.CompressibleEuler, state, OM, 2 * 10**154)
    below = mode_symbol(ModelKind.CompressibleEuler, state, OM).polynomial(10**154)
    assert below[0] == 1e308 and np.isfinite(below).all()


def test_a_fit_reaching_an_n_whose_square_overflows_raises_domain_error():
    state = BasicState(a_hat=1.0)
    with pytest.raises(DomainError, match=r"n=2e\+154"):
        fit_scaling(ModelKind.CompressibleEuler, state, OM, [1, 10, 2 * 10**154])
    assert list(mode_symbol(ModelKind.CompressibleEuler, state, OM).solved) == [1, 10]


# ------------------------------------------- g past the radicand overflow


def test_an_euler_root_whose_radicand_overflows_is_found():
    """(s/c)^2 overflows at s = 0.5 for c_hat <= 1e-155, though g is finite:
    the admissible root a0/n of n s^2 - a0 s = 0 is kept."""
    for c in (1e-150, 1e-155, 1e-160):
        state = BasicState(c_hat=c, a_hat=0.0, a0_hat=0.5)
        roots = solve_dispersion(ModelKind.CompressibleEuler, state, OM, 1)
        assert [r.s for r in roots] == [0.5, 0.0]
        top = dominant_root(roots)
        assert top is roots[0] and top.lambda_plus == pytest.approx(-0.5 / c, rel=1e-15)


def test_euler_g_matches_mpmath_on_both_sides_of_the_overflow():
    mpmath = pytest.importorskip("mpmath")
    c = 1e-155
    sym = mode_symbol(ModelKind.CompressibleEuler, BasicState(c_hat=c, a_hat=1.0), OM)
    threshold = math.sqrt(sys.float_info.max) * c  # |s| about where (s/c)^2 overflows
    overflowed = 0
    for size in (0.5, 0.99, 1.01, 2.0, 1e10, 1e140):
        for unit in (1, -1, 1j, -1j, complex(0.6, 0.8), complex(-0.28, -0.96)):
            s = complex(size * threshold * unit)
            got = sym.g(s)[0]
            with mpmath.workdps(40):
                z = mpmath.mpc(s.real, s.imag) / mpmath.mpf(c)
                want = complex(mpmath.sqrt(1 + z * z))
            assert abs(got - want) <= 1e-15 * abs(want), (s, got, want)
            try:
                plain = cmath.sqrt(1.0 + (s / c) ** 2)
            except OverflowError:  # on the axes; off them the square comes out nan
                plain = complex(math.nan, math.nan)
            if cmath.isnan(plain):
                overflowed += 1
            else:  # where the square is finite, g keeps its bits
                assert repr(got) == repr(plain), s
    assert overflowed == 22
