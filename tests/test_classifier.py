"""Verdict trichotomy, numeric confirmation and sweep bookkeeping."""
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MHD_MODELS, bounded, model_state_pairs, states
from mhdlab.classifier import (
    COLLINEARITY_REL_TOL,
    SweepSpec,
    classify_frozen,
    is_collinear,
    numeric_classify,
    sweep,
)
from mhdlab.domain import STATE_FIELDS, BasicState, ModelKind, Verdict, Wavevector
from mhdlab.errors import ConfigError, DomainError

N_GRID = [100, 1000, 10000]


def collinear_state(**kw):
    base = dict(H_plasma=(1.0, 0.0), H_vacuum=(2.0, 0.0))
    base.update(kw)
    return BasicState(**base)


# ------------------------------------------------------------- collinearity


def test_collinearity_worked_examples():
    assert is_collinear(BasicState(H_plasma=(1.0, 2.0), H_vacuum=(2.0, 4.0)))
    assert not is_collinear(BasicState(H_plasma=(1.0, 0.0), H_vacuum=(0.0, 1.0)))
    assert is_collinear(BasicState(H_plasma=(0.0, 0.0), H_vacuum=(5.0, -3.0)))
    assert is_collinear(BasicState())


@given(states(collinear=True), bounded(0.5, 2.0), bounded(0.5, 2.0))
def test_collinearity_stable_under_independent_field_rescaling(state, lam, mu):
    scaled = replace(state, 
        H_plasma=(lam * state.H_plasma[0], lam * state.H_plasma[1]),
        H_vacuum=(mu * state.H_vacuum[0], mu * state.H_vacuum[1]),
    )
    assert is_collinear(state) and is_collinear(scaled)


@given(states(collinear=False), bounded(0.5, 2.0), bounded(0.5, 2.0))
def test_noncollinearity_stable_under_independent_field_rescaling(state, lam, mu):
    scaled = replace(state, 
        H_plasma=(lam * state.H_plasma[0], lam * state.H_plasma[1]),
        H_vacuum=(mu * state.H_vacuum[0], mu * state.H_vacuum[1]),
    )
    assert not is_collinear(state) and not is_collinear(scaled)


# ----------------------------------------------------------------- verdicts


def test_verdict_worked_examples():
    got = classify_frozen(ModelKind.CompressibleMHD, collinear_state(a_hat=1.0))
    assert got.verdict is Verdict.IllPosed
    assert got.witness is not None
    w2, w3 = got.witness.omega2, got.witness.omega3
    assert (w2, w3) == pytest.approx((0.0, 1.0))

    crossed = BasicState(H_plasma=(1.0, 0.0), H_vacuum=(0.0, 1.0), a_hat=1.0)
    assert classify_frozen(ModelKind.CompressibleMHD, crossed).verdict is Verdict.NoHadamardGrowth

    euler = BasicState(a_hat=0.0, a0_hat=1.0)
    got = classify_frozen(ModelKind.IncompressibleEuler, euler)
    assert got.verdict is Verdict.ExponentiallyUnstable
    assert got.witness is None


def test_witness_for_zero_fields_is_unit_x():
    got = classify_frozen(ModelKind.IncompressibleMHD, BasicState(a_hat=2.0))
    assert got.witness is not None
    assert (got.witness.omega2, got.witness.omega3) == (1.0, 0.0)


def test_near_zero_a_is_classified_as_zero_with_warning():
    state = collinear_state(a_hat=1e-13, a0_hat=1.0)
    with pytest.warns(UserWarning):
        got = classify_frozen(ModelKind.IncompressibleMHD, state)
    assert got.verdict is Verdict.ExponentiallyUnstable


@given(model_state_pairs())
def test_verdict_biconditional(pair):
    model, state = pair
    got = classify_frozen(model, state)
    collinear = is_collinear(state) if model.is_mhd else True
    a_pos = state.a_hat > 1e-12 * (1 + abs(state.a_hat))
    assert (got.verdict is Verdict.IllPosed) == (collinear and a_pos)
    if got.verdict is Verdict.ExponentiallyUnstable:
        assert collinear and abs(state.a_hat) <= 1e-12 * (1 + abs(state.a_hat))
        assert state.a0_hat > 0


@given(states(), bounded(0.0, 2.0 * math.pi))
def test_verdict_invariant_under_joint_rotation(state, theta):
    c, s = math.cos(theta), math.sin(theta)
    rot = lambda v: (c * v[0] - s * v[1], s * v[0] + c * v[1])
    rotated = replace(state, H_plasma=rot(state.H_plasma), H_vacuum=rot(state.H_vacuum))
    for model in MHD_MODELS:
        assert classify_frozen(model, state).verdict is classify_frozen(model, rotated).verdict


def test_a0_never_changes_the_illposedness_verdict():
    for a0 in (-1.5, 0.0, 2.0):
        ill = classify_frozen(ModelKind.CompressibleMHD, collinear_state(a_hat=1.0, a0_hat=a0))
        assert ill.verdict is Verdict.IllPosed
        ok = classify_frozen(ModelKind.CompressibleMHD, collinear_state(a_hat=-1.0, a0_hat=a0))
        assert ok.verdict is Verdict.NoHadamardGrowth


# ------------------------------------------------------ numeric confirmation


def test_numeric_confirms_illposed_state():
    got = numeric_classify(ModelKind.CompressibleMHD, collinear_state(a_hat=1.0), N_GRID, [])
    assert got.verdict is Verdict.IllPosed
    assert got.evidence is not None
    assert got.evidence.exponent == pytest.approx(0.5, abs=0.05)
    assert got.evidence.coefficient > 0


def test_numeric_confirms_noncollinear_state():
    state = BasicState(
        H_plasma=(1.0, 0.0), H_vacuum=(0.0, 1.0), a_hat=1.0, a0_hat=0.5, a1_hat=0.2
    )
    samples = [Wavevector(1.0, 0.0), Wavevector(0.6, 0.8), Wavevector(-0.3, 1.1)]
    got = numeric_classify(ModelKind.IncompressibleMHD, state, N_GRID, samples)
    assert got.verdict is Verdict.NoHadamardGrowth
    if got.evidence is not None:
        assert got.evidence.exponent > 0.9


def test_numeric_confirms_exponential_regime():
    state = collinear_state(a_hat=0.0, a0_hat=2.0)
    got = numeric_classify(ModelKind.IncompressibleMHD, state, N_GRID, [])
    assert got.verdict is Verdict.ExponentiallyUnstable
    assert got.evidence is not None
    assert got.evidence.exponent == pytest.approx(1.0, abs=0.01)


def test_numeric_agrees_with_analytic_on_random_states():
    # a_hat is drawn away from the verdict boundary: for |a| -> 0 with
    # a0 != 0 the sqrt regime starts beyond n = 1e4 and the finite-window
    # exponent drifts out of the detection band (a documented limitation,
    # reported via the conflict error rather than silently absorbed)
    rng = np.random.default_rng(42)
    models = list(ModelKind)
    checked = 0
    for k in range(1000):
        model = models[k % 4]
        a = 0.0 if k % 5 == 0 else float(rng.uniform(0.25, 2) * rng.choice([-1, 1]))
        a0 = float(rng.uniform(-1, 1))
        rho = float(rng.uniform(0.5, 2))
        if model.is_mhd:
            theta = float(rng.uniform(0, 2 * math.pi))
            # magnitudes bounded away from zero: a direction with both
            # projections tiny would mimic the sqrt window at tiny amplitude
            p = float(rng.uniform(0.3, 2) * rng.choice([-1, 1]))
            v = float(rng.uniform(0.3, 2) * rng.choice([-1, 1]))
            if k % 2:  # exactly collinear half
                psi = theta
            else:
                psi = theta + float(rng.uniform(0.25, math.pi - 0.25))
            state = BasicState(
                rho_hat=rho,
                c_hat=float(rng.uniform(1, 2)),
                H_plasma=(p * math.cos(theta), p * math.sin(theta)),
                H_vacuum=(v * math.cos(psi), v * math.sin(psi)),
                a_hat=a,
                a0_hat=a0,
                a1_hat=float(rng.uniform(-1, 1)),
            )
            # sample along the plasma-field axis: that projection is never small
            samples = [Wavevector(math.cos(theta), math.sin(theta))]
        else:
            state = BasicState(rho_hat=rho, c_hat=float(rng.uniform(1, 2)), a_hat=a, a0_hat=a0)
            samples = [Wavevector(1.0, 0.0)]
        got = numeric_classify(model, state, [100, 1000, 10000], samples)
        analytic = classify_frozen(model, state)
        assert got.verdict is analytic.verdict
        checked += 1
    assert checked == 1000


# -------------------------------------------------------------------- sweeps


def test_sweep_truth_table_along_a():
    spec = SweepSpec(
        base=collinear_state(a0_hat=1.0),
        axes=(("a_hat", (-1.0, 0.0, 1.0)),),
    )
    rows = sweep(ModelKind.CompressibleMHD, spec)
    verdicts = [cls.verdict for _, cls in rows]
    assert verdicts == [
        Verdict.NoHadamardGrowth,
        Verdict.ExponentiallyUnstable,
        Verdict.IllPosed,
    ]


def test_sweep_empty_axis_gives_empty_table():
    spec = SweepSpec(base=BasicState(), axes=(("a_hat", ()),))
    assert sweep(ModelKind.IncompressibleEuler, spec) == []


def test_sweep_rejects_unknown_axis_before_work():
    with pytest.raises(ConfigError):
        SweepSpec(base=BasicState(), axes=(("a_hatt", (1.0,)),))
    with pytest.raises(ConfigError):
        SweepSpec(base=BasicState(), axes=(("a_hat", (1.0,)), ("a_hat", (2.0,))))


def test_sweep_size_guard():
    with pytest.raises(ConfigError):
        SweepSpec(
            base=BasicState(),
            axes=(("a_hat", tuple(range(200))), ("a0_hat", tuple(range(200)))),
            max_points=1000,
        )


def test_sweep_row_major_order_and_boundary_consistency():
    a_values = tuple(np.linspace(-1.0, 1.0, 11))
    x_values = tuple(np.linspace(0.0, 1.0, 11))
    spec = SweepSpec(
        base=collinear_state(),
        axes=(("a_hat", a_values), ("H_vacuum_3", x_values)),
    )
    rows = sweep(ModelKind.CompressibleMHD, spec)
    assert len(rows) == 121
    # row-major: the second axis varies fastest
    assert rows[0][0].a_hat == pytest.approx(-1.0)
    assert rows[0][0].H_vacuum[1] == pytest.approx(0.0)
    assert rows[1][0].a_hat == pytest.approx(-1.0)
    assert rows[1][0].H_vacuum[1] == pytest.approx(x_values[1])
    # boundary column (zero cross product) reproduces the 1-axis verdicts
    line = sweep(
        ModelKind.CompressibleMHD,
        SweepSpec(base=collinear_state(), axes=(("a_hat", a_values),)),
    )
    for i, (_, cls) in enumerate(line):
        assert rows[i * 11][1].verdict is cls.verdict


@st.composite
def sweep_axes(draw):
    """Up to three distinct axes of np.float64 linspace values, some with -0.0;
    rho_hat and c_hat stay positive so every point is valid."""
    names = draw(st.lists(st.sampled_from(STATE_FIELDS), min_size=1, max_size=3, unique=True))
    axes = []
    for name in names:
        count = draw(st.integers(0, 4))
        if name in ("rho_hat", "c_hat"):
            values = list(np.linspace(draw(bounded(0.1, 2.0)), 3.0, count))
        else:
            values = list(np.linspace(draw(bounded(-2.0, 2.0)), 2.0, count))
            if draw(st.booleans()):
                values.insert(draw(st.integers(0, len(values))), -0.0)
        axes.append((name, tuple(values)))
    return tuple(axes)


@given(base=states(), axes=sweep_axes())
def test_sweep_points_equal_states_built_from_all_fields(base, axes):
    names = [name for name, _ in axes]
    want = [
        BasicState.from_fields({**base.fields(), **dict(zip(names, values))})
        for values in itertools.product(*(values for _, values in axes))
    ]
    got = list(SweepSpec(base=base, axes=axes).points())
    assert got == want
    # == does not see the sign of zero; repr does
    assert [repr(s.fields()) for s in got] == [repr(s.fields()) for s in want]


@pytest.mark.parametrize(
    "axes, first_bad",
    [
        ((("a_hat", (0.0, 1.0)), ("rho_hat", (1.0, 2.0, -1.0))), 2),
        ((("a0_hat", (0.0, 1.0)), ("c_hat", (1.0, math.nan))), 1),
        ((("a1_hat", (0.0, 1.0)), ("H_vacuum_3", (0.5, math.inf))), 1),
    ],
)
def test_sweep_validates_every_point(axes, first_bad):
    base = collinear_state()
    names = [name for name, _ in axes]
    bad = list(itertools.product(*(values for _, values in axes)))[first_bad]
    with pytest.raises(DomainError) as direct:
        BasicState.from_fields({**base.fields(), **dict(zip(names, bad))})
    built = []
    with pytest.raises(DomainError) as swept:
        for state in SweepSpec(base=base, axes=axes).points():
            built.append(state)
    assert str(swept.value) == str(direct.value)
    # the points before the invalid one were built
    assert len(built) == first_bad
