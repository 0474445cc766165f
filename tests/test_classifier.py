"""Verdict trichotomy, numeric confirmation and sweep bookkeeping."""
import itertools
import math
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MHD_MODELS, bounded, model_state_pairs, states
from mhdlab import classifier
from mhdlab.classifier import (
    COLLINEARITY_REL_TOL,
    SweepSpec,
    classify_frozen,
    is_collinear,
    numeric_classify,
    sweep,
)
from mhdlab.domain import (
    STATE_FIELDS, BasicState, Classification, ModelKind, Verdict, Wavevector
)
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


@pytest.mark.parametrize("h", [1e154, 1e155, 1e200, 1e300])
def test_collinearity_of_fields_whose_products_overflow(h):
    # from 1e155 on the products |Hp||Hv| and Hp x Hv overflow
    perpendicular = BasicState(H_plasma=(h, 0.0), H_vacuum=(0.0, h), a_hat=1.0)
    assert not is_collinear(perpendicular)
    assert not is_collinear(replace(perpendicular, H_vacuum=(1e-300, h)))
    got = classify_frozen(ModelKind.CompressibleMHD, perpendicular)
    assert got.verdict is Verdict.NoHadamardGrowth and not got.collinear
    for hp, hv in [((h, 0.0), (h, 0.0)), ((h, h), (h, h)), ((h, -h), (-h / 2, h / 2))]:
        parallel = BasicState(H_plasma=hp, H_vacuum=hv, a_hat=1.0)
        assert is_collinear(parallel)
        got = classify_frozen(ModelKind.CompressibleMHD, parallel)
        assert got.verdict is Verdict.IllPosed and got.collinear


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


def _truth_table_cases():
    fields = {
        True: dict(H_plasma=(1.0, 0.0), H_vacuum=(2.0, 0.0)),
        False: dict(H_plasma=(1.0, 0.0), H_vacuum=(0.0, 1.0)),
    }
    for model in ModelKind:
        for collinear in (True, False) if model.is_mhd else (True,):
            for a, a0 in itertools.product((-1.0, 0.0, 1e-13, 1.0), (0.0, 1.0)):
                magnetic = fields[collinear] if model.is_mhd else {}
                state = BasicState(a_hat=a, a0_hat=a0, **magnetic)
                a_zero = abs(a) <= 1e-12
                if collinear and a > 1e-12:
                    verdict = Verdict.IllPosed
                elif collinear and a_zero and a0 > 0:
                    verdict = Verdict.ExponentiallyUnstable
                else:
                    verdict = Verdict.NoHadamardGrowth
                witness = None
                if verdict is Verdict.IllPosed and model.is_mhd:
                    witness = Wavevector(-0.0, 1.0)
                yield model, state, Classification(
                    verdict=verdict, collinear=collinear, rt_sign_ok=a < -1e-12, witness=witness
                )


@pytest.mark.parametrize("model, state, expected", list(_truth_table_cases()))
def test_every_outcome_equals_one_built_field_by_field(model, state, expected):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "a_hat=1e-13", UserWarning)
        got = classify_frozen(model, state)
        again = classify_frozen(model, state)
    assert got == expected and hash(got) == hash(expected) and repr(got) == repr(expected)
    assert again == got
    if expected.witness is not None:
        # a witness belongs to its state: each call builds a fresh result
        assert again is not got
        assert got.witness == classifier._witness_direction(state)


def test_shared_outcomes_are_the_six_witness_free_classifications():
    shared = [
        classifier._ILL_POSED, classifier._EXPONENTIAL, *itertools.chain(*classifier._NO_GROWTH)
    ]
    assert [(c.verdict, c.collinear, c.rt_sign_ok) for c in shared] == [
        (Verdict.IllPosed, True, False),
        (Verdict.ExponentiallyUnstable, True, False),
        (Verdict.NoHadamardGrowth, False, False),
        (Verdict.NoHadamardGrowth, False, True),
        (Verdict.NoHadamardGrowth, True, False),
        (Verdict.NoHadamardGrowth, True, True),
    ]
    euler = BasicState(a_hat=1.0)
    assert classify_frozen(ModelKind.CompressibleEuler, euler) is classifier._ILL_POSED
    mhd = ModelKind.CompressibleMHD
    for model, state in [
        (ModelKind.IncompressibleEuler, euler),
        (mhd, collinear_state(a_hat=0.0, a0_hat=1.0)),
        (mhd, collinear_state(a_hat=-1.0, a0_hat=1.0)),
    ]:
        got = numeric_classify(model, state, N_GRID, [])
        assert got.evidence is not None
        assert got == replace(classify_frozen(model, state), evidence=got.evidence)
    assert all(c.witness is None and c.evidence is None for c in shared)


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


@pytest.mark.parametrize(
    "model, state",
    [
        (ModelKind.CompressibleMHD, collinear_state(a_hat=1.0)),
        (ModelKind.IncompressibleMHD, collinear_state(a_hat=0.0, a0_hat=2.0)),
        (ModelKind.IncompressibleMHD, BasicState(H_plasma=(1.0, 0.0), H_vacuum=(0.0, 1.0),
                                                 a_hat=1.0, a0_hat=0.5, a1_hat=0.2)),
        # no admissible root at any n, so no fit and no evidence
        (ModelKind.IncompressibleEuler, BasicState(a_hat=-1.0)),
    ],
    ids=["ill-posed", "exponential", "no-growth", "no-fit"],
)
def test_numeric_result_is_the_analytic_one_plus_evidence(model, state):
    got = numeric_classify(model, state, N_GRID, [Wavevector(1.0, 0.0)])
    assert replace(got, evidence=None) == classify_frozen(model, state)
    assert (got.evidence is None) == (model is ModelKind.IncompressibleEuler)


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


@pytest.mark.parametrize("model", [ModelKind.CompressibleEuler, ModelKind.IncompressibleMHD])
def test_sweep_warns_once_per_near_zero_a_state(model):
    near_zero = (1e-300, 1e-13, 1e-12)
    a_axis = ("a_hat", (-1.0, near_zero[0], 0.0, *near_zero[1:], 2e-12, 1.0))
    other = ("a0_hat", (-1.0, 0.0, 1.0, 2.0))
    base = collinear_state() if model.is_mhd else BasicState()
    for axes in [(a_axis, other), (other, a_axis)]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = sweep(model, SweepSpec(base=base, axes=axes))
        near = [w for w in caught if "zero-detection threshold" in str(w.message)]
        assert len(near) == len(caught) == len(near_zero) * len(other[1])
        assert all(w.category is UserWarning for w in near)
        assert len(rows) == len(a_axis[1]) * len(other[1])


def test_sweep_empty_axis_gives_empty_table():
    spec = SweepSpec(base=BasicState(), axes=(("a_hat", ()),))
    assert sweep(ModelKind.IncompressibleEuler, spec) == []


def test_sweep_rejects_unknown_axis_before_work():
    with pytest.raises(ConfigError):
        SweepSpec(base=BasicState(), axes=(("a_hatt", (1.0,)),))
    with pytest.raises(ConfigError):
        SweepSpec(base=BasicState(), axes=(("a_hat", (1.0,)), ("a_hat", (2.0,))))
    for axes in [(("a_hat", 1.0),), (("a_hat",),), (("a_hat", (1.0,), "x"),), ((["a_hat"], (1.0,)),)]:
        with pytest.raises(ConfigError):
            SweepSpec(base=BasicState(), axes=axes)
    with pytest.raises(ConfigError, match="BasicState"):
        SweepSpec(base={"a_hat": 1.0}, axes=(("a_hat", (1.0,)),))


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


def built_from_all_fields(base, axes):
    """The grid's states, each built directly from all of its flat fields."""
    names = [name for name, _ in axes]
    return [
        BasicState.from_fields({**base.fields(), **dict(zip(names, values))})
        for values in itertools.product(*(values for _, values in axes))
    ]


@given(base=states(), axes=sweep_axes())
def test_sweep_points_equal_states_built_from_all_fields(base, axes):
    want = built_from_all_fields(base, axes)
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
        # the slowest axis's invalid value is first reached after a full inner row
        ((("rho_hat", (1.0, -1.0)), ("a_hat", (0.0, 1.0, 2.0))), 3),
        # two invalid fields on one point: BasicState's field order picks the message
        ((("a_hat", (math.inf, 0.0)), ("c_hat", (-1.0, 1.0))), 0),
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


def test_sweep_checks_each_axis_value_once(monkeypatch):
    base = collinear_state(a1_hat=0.5)
    axes = (
        ("rho_hat", (np.float64(2.0), 0.5)),
        ("a_hat", (1, -1.5, 0.0, -0.0)),
        ("H_plasma_3", (np.float64(0.25), -0.0, 2)),
    )
    want = built_from_all_fields(base, axes)
    post_init = BasicState.__post_init__
    checked = []

    def counted_post_init(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(BasicState, "__post_init__", counted_post_init)
    got = list(SweepSpec(base=base, axes=axes).points())
    assert len(checked) <= 1 + sum(len(values) for _, values in axes)
    unchecked = [(g, w) for g, w in zip(got, want) if not any(g is c for c in checked)]
    assert len(unchecked) == len(want) - len(checked)
    for state, expected in unchecked:
        assert state == expected
        assert hash(state) == hash(expected)
        assert repr(state) == repr(expected)
        with pytest.raises(FrozenInstanceError):
            state.a_hat = 3.0
        assert replace(state, a0_hat=3.0) == replace(expected, a0_hat=3.0)
