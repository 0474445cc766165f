"""Verdict trichotomy, numeric confirmation and sweep bookkeeping."""
import gc
import inspect
import itertools
import math
import tracemalloc
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
from mhdlab.config import Linspace
from mhdlab.errors import ConfigError, ConflictError, DomainError, UnsupportedModelError
from mhdlab.roots import fit_scaling

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


# the rotation example: |cross| of the fields sits exactly on the
# collinearity threshold, so the verdict reads ExponentiallyUnstable here and
# NoHadamardGrowth once both fields are rotated by 1.0, on both MHD models
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP G")
def test_a_field_pair_on_the_collinearity_threshold_keeps_its_verdict_under_rotation():
    state = BasicState(H_plasma=(1.0, 0.0), H_vacuum=(1.0, 1e-09), a_hat=0.0, a0_hat=1.0)
    c, s = math.cos(1.0), math.sin(1.0)
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
        assert got.witness == classifier._witness_direction(state.H_plasma, state.H_vacuum)


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


@pytest.mark.xfail(strict=True, raises=ConflictError, reason="ROADMAP L")
@pytest.mark.parametrize(
    "model, state, omega",
    [
        # collinear with a_hat < 0: Re s is 3.6e-7, 5.9e-6, 6.5e-7, 6.5e-8,
        # 6.5e-9 at n = 1e2 .. 1e6, and the line through all five reads
        # exponent 0.544, inside the square-root window
        (
            ModelKind.CompressibleMHD,
            BasicState(
                rho_hat=3.5902295298006046, c_hat=1.907516348435154,
                H_plasma=(-0.35383169218178, -0.986325410032532),
                H_vacuum=(0.11305094133093344, 0.3151357510550843),
                a_hat=-0.6721201549355349, a0_hat=-0.46625264503724173,
                a1_hat=0.3532304924566634,
            ),
            Wavevector(-0.70663, 0.70758),
        ),
        # the fits read exponent 0.5175
        (
            ModelKind.IncompressibleMHD,
            BasicState(
                rho_hat=2.3547175622404053, c_hat=2.1008767726356443,
                H_plasma=(-0.0036624771831525755, 1.0955031305788507),
                H_vacuum=(0.0018262939318446892, -0.5462725416819798),
                a_hat=-3.4909846265315005, a0_hat=-0.6309633129269812,
                a1_hat=0.9775185949569201,
            ),
            Wavevector(0.9615720535745161, 0.27455270128790926),
        ),
        # the fits read exponent 0.4991
        (
            ModelKind.IncompressibleMHD,
            BasicState(
                rho_hat=3.1094539963966645, c_hat=2.1904866477945513,
                H_plasma=(1.7718148815766834, 0.7442276813985129),
                H_vacuum=(-0.3486742531717731, -0.14645606248124066),
                a_hat=-2.8862515915426745, a0_hat=-1.6543611357556616,
                a1_hat=1.0195156792231188,
            ),
            Wavevector(0.11595990218409256, 0.9932538955803072),
        ),
    ],
    # the root_fit seed and pass that drew each state
    ids=["seed-905", "seed-3824-pass-2", "seed-4307-pass-12"],
)
def test_an_order_one_over_n_tail_is_not_fitted_as_growth(model, state, omega):
    n_grid = [100, 1000, 10000, 100000, 1000000]
    got = numeric_classify(model, state, n_grid, [omega])
    assert got.verdict is Verdict.NoHadamardGrowth


def test_numeric_stops_a_fit_at_its_first_n_without_an_admissible_root(monkeypatch):
    solved = count_solves(monkeypatch)
    model, state = ModelKind.IncompressibleEuler, BasicState(a_hat=-1.0)
    got = numeric_classify(model, state, [100, 1000, 10000], [Wavevector(1.0, 0.0)])
    assert got == classify_frozen(model, state)
    assert got.evidence is None
    assert solved == [100]


def test_a_relatively_collinear_witness_is_fitted_on_the_euler_symbol(monkeypatch):
    # README's fields: the witness fit runs on CompressibleEuler at the fast
    # speed sqrt(c^2 + cA^2) along (1, 0), and matches the MHD witness fit
    model, state = ModelKind.CompressibleMHD, BasicState(
        c_hat=2.0, H_plasma=(0.6, 0.8), H_vacuum=(1.2, 1.6), a_hat=1.0, a0_hat=0.2, a1_hat=0.7
    )
    solved = count_solves(monkeypatch, with_model=True)
    got = numeric_classify(model, state, N_GRID, [])
    euler = ModelKind.CompressibleEuler
    assert solved == [(euler, n) for n in N_GRID]
    assert replace(got, evidence=None) == classify_frozen(model, state)
    reduced = BasicState(c_hat=math.sqrt(4.0 + 1.0), a_hat=1.0, a0_hat=0.2)
    assert got.evidence == fit_scaling(euler, reduced, Wavevector(1.0, 0.0), N_GRID)
    mhd = fit_scaling(model, state, got.witness, N_GRID)
    assert got.evidence.exponent == pytest.approx(mhd.exponent, rel=1e-9)
    assert got.evidence.coefficient == pytest.approx(mhd.coefficient, rel=1e-9)


@pytest.mark.parametrize("model", MHD_MODELS, ids=lambda m: m.value)
def test_a_floor_collinear_witness_keeps_the_mhd_fit(monkeypatch, model):
    # collinear only by the max(1, |Hp||Hv|) floor: perpendicular fields, so
    # n wm^2 is not negligible on the witness and its fit stays on the MHD model
    state = BasicState(H_plasma=(1e-5, 0.0), H_vacuum=(0.0, 1e-5), a_hat=1.0)
    assert is_collinear(state)
    solved = count_solves(monkeypatch, with_model=True)
    got = numeric_classify(model, state, N_GRID, [])
    assert solved == [(model, n) for n in N_GRID]
    assert replace(got, evidence=None) == classify_frozen(model, state)


def test_a_fast_speed_that_overflows_is_a_domain_error():
    state = BasicState(H_plasma=(1e200, 0.0), H_vacuum=(1e200, 0.0), a_hat=1.0)
    with pytest.raises(DomainError, match="overflows"):
        numeric_classify(ModelKind.CompressibleMHD, state, N_GRID, [])


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
    verdicts = [cls.verdict for cls in sweep(ModelKind.CompressibleMHD, spec)]
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


@pytest.mark.parametrize("empty_first", [True, False])
def test_an_empty_grid_checks_no_value(monkeypatch, empty_first):
    # no point holds a value of the long axis, so none is built or checked
    base = BasicState()
    axes = [("a_hat", ()), ("a0_hat", Linspace(0.0, 1.0, 10**6))]
    post_init = BasicState.__post_init__
    built = []

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(BasicState, "__post_init__", counted_post_init)
    spec = SweepSpec(base=base, axes=tuple(axes if empty_first else axes[::-1]))
    assert built == []
    assert [values for _, values in spec.axes] == [(), ()]
    assert sweep(ModelKind.CompressibleMHD, spec) == []


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


@pytest.mark.parametrize("max_points", [None, "10", math.nan, math.inf, 10.5, (10,)])
def test_sweep_cap_must_be_a_whole_number(max_points):
    axes = (("a_hat", (1.0, 2.0)),)
    with pytest.raises(ConfigError, match="max_points must be a whole number"):
        SweepSpec(base=BasicState(a_hat=1.0), axes=axes, max_points=max_points)


@pytest.mark.parametrize("values", ["12", b"12", ""])
def test_sweep_values_given_as_a_string_are_a_config_error(values):
    # iterated, "12" would sweep a_hat = 1.0 and 2.0
    with pytest.raises(ConfigError, match="as a string"):
        SweepSpec(base=BasicState(), axes=(("a0_hat", (0.0,)), ("a_hat", values)))


def test_a_whole_float_cap_is_a_cap():
    axes = (("a_hat", (1.0, 2.0, 3.0)),)
    assert len(list(SweepSpec(base=BasicState(), axes=axes, max_points=3.0).points())) == 3
    with pytest.raises(ConfigError, match="exceeding max_points=2.0"):
        SweepSpec(base=BasicState(), axes=axes, max_points=2.0)


def test_sweep_row_major_order_and_boundary_consistency():
    a_values = tuple(np.linspace(-1.0, 1.0, 11))
    x_values = tuple(np.linspace(0.0, 1.0, 11))
    spec = SweepSpec(
        base=collinear_state(),
        axes=(("a_hat", a_values), ("H_vacuum_3", x_values)),
    )
    rows = list(zip(spec.points(), sweep(ModelKind.CompressibleMHD, spec)))
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
    for i, cls in enumerate(line):
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
        # each field's own check: a component's finiteness, a nonpositive
        # c_hat or negative zero rho_hat, an infinity that is a NumPy scalar
        ((("H_vacuum_2", (1.0, math.nan)),), ("H_vacuum_2", math.nan)),
        ((("H_vacuum_2", (1.0, "one")),), ("H_vacuum_2", "one")),
        ((("a_hat", (1.0,)), ("c_hat", (0.0,))), ("c_hat", 0.0)),
        ((("rho_hat", (-0.0, 1.0)),), ("rho_hat", -0.0)),
        ((("a0_hat", (0.5, np.float64("inf"))),), ("a0_hat", np.float64("inf"))),
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
    check, post_init = classifier._check_field, BasicState.__post_init__
    checked, built = [], []

    def counted_check(name, value):
        checked.append(name)
        return check(name, value)

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(classifier, "_check_field", counted_check)
    monkeypatch.setattr(BasicState, "__post_init__", counted_post_init)
    spec = SweepSpec(base=base, axes=axes)
    # one check of the field an axis sets per value, and no state built
    assert checked == ["rho_hat"] * 2 + ["a_hat"] * 4 + ["H_plasma"] * 3
    assert built == []
    assert [[type(v) for v in values] for _, values in spec.axes] == [
        [float] * len(values) for _, values in axes
    ]
    got = list(spec.points())
    # the walk checks nothing more
    assert len(checked) == sum(len(values) for _, values in axes)
    assert built == []
    assert len(got) == len(want)
    for state, expected in zip(got, want):
        assert not any(state is b for b in built)
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
    """(run()'s rows or the UnsupportedModelError it raised, a copy of the
    fields of each point it drew from the row walk that SweepSpec.points and
    sweep share, the texts of the warnings it gave)."""
    drawn = []
    rows = SweepSpec._rows

    def draw(row):
        for fields in row:
            drawn.append(dict(fields))
            yield fields

    def drawing(self):
        for row in rows(self):
            yield draw(row)

    with mock.patch.object(SweepSpec, "_rows", drawing):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                got = run()
            except UnsupportedModelError as exc:
                got = exc
    return got, drawn, [str(w.message) for w in caught]


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
# outer a_hat and a0_hat axes over a field: 0.0 and -0.0 share a class, 1e-13
# warns on every point of its rows
@example(
    pair=(ModelKind.CompressibleMHD, collinear_state(a0_hat=0.5)),
    axes=(
        ("a_hat", (0.0, -0.0, 1e-13, 1.0, -1.0)),
        ("a0_hat", (0.0, -0.0, 1.0)),
        ("H_plasma_2", (1.0, -0.0, 0.0, -2.0)),
    ),
)
@example(
    pair=(ModelKind.IncompressibleMHD, collinear_state(a_hat=0.0)),
    axes=(("a0_hat", (0.0, -0.0, 1.0, 2.0)), ("H_vacuum_3", (0.0, -0.0, 0.5))),
)
# a near-zero a_hat on the last axis: rows of one outer class are not shared
@example(
    pair=(ModelKind.CompressibleMHD, collinear_state()),
    axes=(("a0_hat", (1.0, 2.0, -0.0)), ("a_hat", (1.0, 1e-13, 0.0, -1e-300))),
)
# rho_hat and c_hat are no part of a row's class
@example(
    pair=(ModelKind.CompressibleMHD, collinear_state(a_hat=1.0)),
    axes=(("rho_hat", (1.0, 2.0)), ("c_hat", (1.0, 3.0)), ("H_vacuum_2", (0.0, 1.0, -0.0))),
)
# rows 2 and 4 share the class of the row before (0.0 and -0.0 apart); the
# fifth row's a1_hat is invalid
@example(
    pair=(ModelKind.IncompressibleEuler, BasicState()),
    axes=(("a1_hat", (0.0, -0.0, 0.5)), ("a0_hat", (1.0, 2.0)), ("a_hat", (1.0, -1.0))),
)
def test_sweep_equals_classify_frozen_point_by_point(pair, axes):
    model, base = pair
    spec = SweepSpec(base=base, axes=axes)
    want_rows, want_drawn, want_warned = recorded(
        lambda: [classify_frozen(model, st) for st in spec.points()]
    )
    got_rows, got_drawn, got_warned = recorded(lambda: sweep(model, spec))
    if isinstance(want_rows, Exception):
        assert type(got_rows) is type(want_rows) and str(got_rows) == str(want_rows)
        # an invalid point fails where it fails point by point
        assert repr(got_drawn[-1]) == repr(want_drawn[-1])
    else:
        assert got_rows == want_rows
        assert repr(got_rows) == repr(want_rows)
    # a shared row draws no point: the sweep draws the points of its decided
    # rows, in walk order, each the point that classify_frozen sees there
    want = iter(map(repr, want_drawn))
    assert all(point in want for point in map(repr, got_drawn))
    assert got_warned == want_warned


def benchmark_shaped_spec():
    """The benchmark's grid shape: 21 a_hat x 20 a0_hat x 20 H_vacuum_3 values,
    8,400 points over 20 field pairs, the first of them collinear."""
    rng = np.random.default_rng(31)
    base = BasicState(rho_hat=2.0, c_hat=1.5, H_plasma=(1.0, 0.5), H_vacuum=(2.0, 0.0), a1_hat=0.3)
    axes = (
        ("a_hat", (0.0, *rng.uniform(-4.0, 4.0, 20))),
        ("a0_hat", tuple(rng.uniform(-2.0, 2.0, 20))),
        ("H_vacuum_3", (1.0, *rng.uniform(-3.0, 3.0, 19))),
    )
    return SweepSpec(base=base, axes=axes)


def field_only_spec():
    """A grid over the vacuum field alone: each of its 56 points is a new field pair."""
    base = BasicState(
        rho_hat=2.0, c_hat=1.5, H_plasma=(1.0, 0.5), a_hat=1.3, a0_hat=0.2, a1_hat=0.3
    )
    axes = (
        ("H_vacuum_2", tuple(np.linspace(-3.0, 3.0, 7))),
        ("H_vacuum_3", (0.5, *np.linspace(-2.0, 2.5, 7))),
    )
    return SweepSpec(base=base, axes=axes)


def fluid_spec():
    """A 9 x 10 grid over a_hat and a0_hat on the zero fields of a fluid base."""
    axes = (
        ("a_hat", (0.0, *np.linspace(-3.0, 3.0, 8))),
        ("a0_hat", tuple(np.linspace(-2.0, 2.5, 10))),
    )
    return SweepSpec(base=BasicState(rho_hat=2.0, c_hat=1.5), axes=axes)


@pytest.mark.parametrize(
    "model, spec, calls, verdicts",
    [
        (ModelKind.CompressibleMHD, benchmark_shaped_spec(), 6 * 20, set(Verdict)),
        (
            ModelKind.CompressibleMHD, field_only_spec(), 56,
            {Verdict.IllPosed, Verdict.NoHadamardGrowth},
        ),
        (ModelKind.CompressibleEuler, fluid_spec(), 3 * 2, set(Verdict)),
    ],
    ids=["benchmark-shaped", "field-only", "fluid"],
)
def test_sweep_classifies_once_per_row_class_and_last_part(monkeypatch, model, spec, calls,
                                                           verdicts):
    # classify_frozen runs once per (row class, last-axis part): 6 classes
    # (sign of a_hat, a0_hat > 0) x 20 field values; every field-only point;
    # 3 signs of a_hat x 2 of a0_hat > 0 on the fluid grid. Every other point
    # shares an outcome of its row or of its class's first row
    want = [classify_frozen(model, st) for st in spec.points()]
    classified = []
    real = classifier.classify_frozen
    monkeypatch.setattr(
        classifier, "classify_frozen", lambda *args: classified.append(args) or real(*args)
    )
    got = sweep(model, spec)
    assert len(classified) == calls
    assert repr(got) == repr(want)
    assert {cls.verdict for cls in got} == verdicts


@pytest.mark.parametrize(
    "axes, drawn",
    [
        ((("a_hat", (1.0, -1.0, 0.0)), ("H_plasma_2", (0.0, -0.0, 0.5))), 3),
        ((("H_vacuum_3", (-0.0, 0.0, 2.0)), ("a0_hat", (1.0, -1.0))), 5),
        ((("a0_hat", (1.0, -1.0)), ("a1_hat", (0.0, -0.0, 0.5))), 3),
    ],
)
def test_a_field_axis_on_a_fluid_model_fails_where_point_by_point_fails(axes, drawn):
    model = ModelKind.IncompressibleEuler
    spec = SweepSpec(base=BasicState(), axes=axes)
    want_rows, want_drawn, want_warned = recorded(
        lambda: [classify_frozen(model, st) for st in spec.points()]
    )
    got_rows, got_drawn, got_warned = recorded(lambda: sweep(model, spec))
    assert type(want_rows) is type(got_rows) is UnsupportedModelError
    assert str(got_rows) == str(want_rows)
    # the failing point is the first with a nonzero value; -0.0 counts as zero
    assert repr(got_drawn) == repr(want_drawn) and len(got_drawn) == drawn
    assert got_warned == want_warned == []


def test_a_benchmark_shaped_sweep_runs_the_verdict_table_once_per_row_class(monkeypatch):
    # a row's class is the sign of its a_hat and whether its a0_hat > 0: at
    # most 6 classes, whose first rows (20 points each) alone are decided and
    # drawn from the walk; point by point, the table ran for all 8,400 points
    model, spec = ModelKind.CompressibleMHD, benchmark_shaped_spec()
    want = [classify_frozen(model, st) for st in spec.points()]
    tabled = []
    real = classifier.classify_frozen
    monkeypatch.setattr(
        classifier, "classify_frozen", lambda *args: tabled.append(args) or real(*args)
    )
    got, drawn, warned = recorded(lambda: sweep(model, spec))
    assert len(tabled) == len(drawn) <= 6 * 20
    assert repr(got) == repr(want) and warned == []
    # a later row holds its class's outcome objects, not copies
    assert len({id(outcome) for outcome in got}) <= len(tabled)


def field_only_rows(rows):
    """The field-only shape: rows x 20 points over the vacuum field, each point
    a new field pair and each row its own class."""
    base = BasicState(
        rho_hat=2.0, c_hat=1.5, H_plasma=(1.0, 0.5), a_hat=1.3, a0_hat=0.2, a1_hat=0.3
    )
    axes = (
        ("H_vacuum_2", tuple(np.linspace(-3.0, 3.0, rows))),
        ("H_vacuum_3", (0.5, *np.linspace(-2.0, 2.5, 19))),
    )
    return SweepSpec(base=base, axes=axes)


def test_a_sweep_without_a_repeated_row_class_grows_as_before():
    # no two rows share a class and no point shares an outcome: the peak grows
    # by the list's slot (8 bytes a point) and each row's class and memo entry
    # (about 98 bytes a 20-point row), 12.9 bytes a point in all; the bound
    # leaves 3 bytes a point of margin. The field pair memo this sweep
    # replaced cost 77.0
    def peak(spec):
        tracemalloc.start()
        try:
            sweep(ModelKind.CompressibleMHD, spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = field_only_rows(20), field_only_rows(80)
    peak(large)  # first-use allocations of the package and the interpreter
    growth = peak(large) - peak(small)
    assert growth <= 16 * (80 - 20) * 20, growth


def test_a_library_sweep_starts_at_most_one_collection():
    # a state lives only until it is classified and most verdicts are shared
    # constants, so the sweep leaves no tracked container per point behind
    spec = benchmark_shaped_spec()
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        got = sweep(ModelKind.CompressibleMHD, spec)
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was_enabled else gc.disable)()
    assert len(got) == 21 * 20 * 20
    assert len(starts) <= 1, starts


@pytest.mark.parametrize("model", [ModelKind.CompressibleMHD, ModelKind.CompressibleEuler])
def test_a_sweep_warns_from_one_place(model):
    # both points of the near-zero a_hat's row warn, from sweep's one call of
    # classify_frozen
    axes = (("a_hat", (1e-13, 1.0)), ("a0_hat", (0.0, 1.0)))
    base = collinear_state() if model.is_mhd else BasicState()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep(model, SweepSpec(base=base, axes=axes))
    assert len(caught) == 2
    assert len({(w.filename, w.lineno) for w in caught}) == 1
