"""Verdict trichotomy, numeric confirmation and sweep bookkeeping."""
import inspect
import itertools
import math
import warnings
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MHD_MODELS, bounded, count_solves, model_state_pairs, states
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
from mhdlab.errors import ConfigError, DomainError, UnsupportedModelError

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


def test_near_zero_a_warns_at_the_callers_line():
    state = collinear_state(a_hat=1e-13, a0_hat=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        classify_frozen(ModelKind.IncompressibleMHD, state)
    (w,) = caught
    assert (w.category, w.filename, w.lineno) == (UserWarning, __file__, line)


def classified_with_warnings(model, state):
    """classify_frozen's result and the warnings it gave, which are exactly
    one near-zero a_hat UserWarning when 0 < |a_hat| <= 1e-12 (1 + |a_hat|)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = classify_frozen(model, state)
    a = abs(state.a_hat)
    near_zero = 0.0 < a <= 1e-12 * (1.0 + a)
    assert len(caught) == near_zero
    assert all(w.category is UserWarning and str(w.message).startswith("a_hat=") for w in caught)
    return got


@given(model_state_pairs())
def test_verdict_biconditional(pair):
    model, state = pair
    got = classified_with_warnings(model, state)
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
        got = classified_with_warnings(model, state)
        assert got.verdict is classified_with_warnings(model, rotated).verdict


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


def test_numeric_stops_a_fit_at_its_first_n_without_an_admissible_root(monkeypatch):
    solved = count_solves(monkeypatch)
    model, state = ModelKind.IncompressibleEuler, BasicState(a_hat=-1.0)
    got = numeric_classify(model, state, [100, 1000, 10000], [Wavevector(1.0, 0.0)])
    assert got == classify_frozen(model, state)
    assert got.evidence is None
    assert solved == [100]


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
    "axes, bad",
    [
        ((("a_hat", (0.0, 1.0)), ("rho_hat", (1.0, 2.0, -1.0))), ("rho_hat", -1.0)),
        ((("a0_hat", (0.0, 1.0)), ("c_hat", (1.0, math.nan))), ("c_hat", math.nan)),
        ((("a1_hat", (0.0, 1.0)), ("H_vacuum_3", (0.5, math.inf))), ("H_vacuum_3", math.inf)),
        # the slowest axis's invalid value, which no point of the first row holds
        ((("rho_hat", (1.0, -1.0)), ("a_hat", (0.0, 1.0, 2.0))), ("rho_hat", -1.0)),
        # the middle axis's invalid value, which the second row holds first
        ((("a_hat", (0.0, 1.0)), ("rho_hat", (1.0, -1.0)), ("a0_hat", (0.0, 1.0, 2.0))),
         ("rho_hat", -1.0)),
        # two invalid fields on one point: the first axis's value is named, not
        # the one BasicState's field order would check first on that point
        ((("a_hat", (math.inf, 0.0)), ("c_hat", (-1.0, 1.0))), ("a_hat", math.inf)),
    ],
)
def test_sweep_validates_every_point(axes, bad):
    base = collinear_state()
    name, value = bad
    with pytest.raises(DomainError) as direct:
        BasicState.from_fields({**base.fields(), name: value})
    # building the spec fails, so there is no walk to yield a point
    with pytest.raises(DomainError) as swept:
        SweepSpec(base=base, axes=axes)
    assert type(swept.value) is type(direct.value)
    assert str(swept.value) == str(direct.value)


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
    spec = SweepSpec(base=base, axes=axes)
    assert len(checked) == sum(len(values) for _, values in axes)
    assert [[type(v) for v in values] for _, values in spec.axes] == [
        [float] * len(values) for _, values in axes
    ]
    got = list(spec.points())
    # the walk checks nothing more
    assert len(checked) == sum(len(values) for _, values in axes)
    assert len(got) == len(want)
    for state, expected in zip(got, want):
        assert not any(state is c for c in checked)
        assert state == expected
        assert hash(state) == hash(expected)
        assert repr(state) == repr(expected)
        with pytest.raises(FrozenInstanceError):
            state.a_hat = 3.0
        assert replace(state, a0_hat=3.0) == replace(expected, a0_hat=3.0)


def test_sweep_rows_set_both_components_of_one_field():
    # the outer axis sets H_vacuum[0] once per row, the inner one H_vacuum[1]
    # on each point; both keep the sign of a zero
    base = collinear_state(a_hat=1.0)
    axes = (("H_vacuum_2", (1.0, -0.0, np.float64(2.5))), ("H_vacuum_3", (-0.0, 0.5, 0)))
    want = built_from_all_fields(base, axes)
    got = list(SweepSpec(base=base, axes=axes).points())
    assert got == want
    assert [hash(s) for s in got] == [hash(s) for s in want]
    assert [repr(s.fields()) for s in got] == [repr(s.fields()) for s in want]
    assert repr(got[3].H_vacuum) == "(-0.0, -0.0)"


def test_sweep_without_axes_yields_the_base():
    base = collinear_state(a_hat=1.0, a0_hat=0.5)
    (state,) = SweepSpec(base=base, axes=()).points()
    assert state == base and repr(state) == repr(base)


def recorded(run):
    """(run()'s rows or the UnsupportedModelError it raised, the points it
    drew from SweepSpec.points, the texts of the warnings it gave)."""
    drawn = []
    points = SweepSpec.points

    def drawing(self):
        for state in points(self):
            drawn.append(state)
            yield state

    with mock.patch.object(SweepSpec, "points", drawing):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rows = run()
            except UnsupportedModelError as exc:
                rows = exc
    return rows, drawn, [str(w.message) for w in caught]


@given(pair=model_state_pairs(), axes=sweep_axes())
# value-equal field pairs whose zeros differ in sign: the collinearity flag
# may be shared, the witness of each ill-posed point may not
@example(
    pair=(
        ModelKind.CompressibleMHD,
        BasicState(H_plasma=(0.0, 1.0), H_vacuum=(0.0, 2.0), a_hat=1.0),
    ),
    axes=(("H_plasma_2", (0.0, -0.0)), ("a_hat", (1.0, 2.0))),
)
# the fifth point carries a vacuum field, which the Euler model rejects
@example(
    pair=(ModelKind.CompressibleEuler, BasicState()),
    axes=(("H_vacuum_3", (0.0, -0.0, 0.5)), ("a_hat", (1.0, -1.0))),
)
# the third point's a1_hat is invalid under a field pair seen before
@example(
    pair=(ModelKind.IncompressibleEuler, BasicState()),
    axes=(("a1_hat", (0.0, 0.5)), ("a_hat", (1.0, -1.0))),
)
def test_sweep_equals_classify_frozen_point_by_point(pair, axes):
    model, base = pair
    spec = SweepSpec(base=base, axes=axes)
    want_rows, want_drawn, want_warned = recorded(
        lambda: [(st, classify_frozen(model, st)) for st in spec.points()]
    )
    got_rows, got_drawn, got_warned = recorded(lambda: sweep(model, spec))
    if isinstance(want_rows, Exception):
        assert type(got_rows) is type(want_rows) and str(got_rows) == str(want_rows)
    else:
        assert got_rows == want_rows
        assert repr(got_rows) == repr(want_rows)
    # the same points drawn: an invalid one fails where it fails point by point
    assert repr(got_drawn) == repr(want_drawn)
    assert got_warned == want_warned


def test_sweep_decides_each_field_pair_once(monkeypatch):
    # the benchmark's grid shape: 21 a_hat x 20 a0_hat x 20 H_vacuum_3 values,
    # 8,400 points over 20 field pairs, the first of them collinear
    rng = np.random.default_rng(31)
    base = BasicState(rho_hat=2.0, c_hat=1.5, H_plasma=(1.0, 0.5), H_vacuum=(2.0, 0.0), a1_hat=0.3)
    axes = (
        ("a_hat", (0.0, *rng.uniform(-4.0, 4.0, 20))),
        ("a0_hat", tuple(rng.uniform(-2.0, 2.0, 20))),
        ("H_vacuum_3", (1.0, *rng.uniform(-3.0, 3.0, 19))),
    )
    spec = SweepSpec(base=base, axes=axes)
    model = ModelKind.CompressibleMHD
    want = [(st, classify_frozen(model, st)) for st in spec.points()]
    decided, classified = [], []
    for name, log in (("is_collinear", decided), ("classify_frozen", classified)):
        real = getattr(classifier, name)
        counted = lambda *args, log=log, real=real: log.append(args) or real(*args)
        monkeypatch.setattr(classifier, name, counted)
    got = sweep(model, spec)
    # the first point of each pair is classified by classify_frozen itself
    assert len(decided) == len(classified) == 20
    assert repr(got) == repr(want)
    assert {cls.verdict for _, cls in got} == set(Verdict)


@pytest.mark.parametrize("model", [ModelKind.CompressibleMHD, ModelKind.CompressibleEuler])
def test_a_sweep_warns_from_one_place(model):
    # on MHD the first point decides the field pair and the second reuses it
    axes = (("a_hat", (1e-13, 1.0)), ("a0_hat", (0.0, 1.0)))
    base = collinear_state() if model.is_mhd else BasicState()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep(model, SweepSpec(base=base, axes=axes))
    assert len(caught) == 2
    assert len({(w.filename, w.lineno) for w in caught}) == 1
