"""Validation and bookkeeping rules of the core value types."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bounded, states, wavevectors
from mhdlab.domain import (
    STATE_FIELDS,
    BasicState,
    ModeRoot,
    ModelKind,
    ScalingFit,
    Wavevector,
    alfven_speed,
    require_valid,
    w_pair,
)
from mhdlab.errors import DomainError, UnsupportedModelError


def test_state_defaults_are_quiescent():
    st_default = BasicState()
    assert st_default.rho_hat == 1.0
    assert st_default.c_hat == 1.0
    assert st_default.H_plasma == (0.0, 0.0)
    assert st_default.a_hat == 0.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("rho_hat", 0.0),
        ("rho_hat", -1.0),
        ("c_hat", 0.0),
        ("c_hat", math.nan),
        ("a_hat", math.inf),
        ("rho_hat", None),
        pytest.param("rho_hat", 10**400, id="rho_hat-10**400"),
        ("a0_hat", "x"),
        ("H_plasma", 1.0),
        pytest.param("H_vacuum", (1.0,), id="H_vacuum-one-component"),
        pytest.param("H_vacuum", (1.0, None), id="H_vacuum-None-component"),
    ],
)
def test_state_rejects_nonphysical_values(field, value):
    with pytest.raises(DomainError, match=field):
        BasicState(**{field: value})


def test_from_fields_rejects_unknown_names():
    with pytest.raises(DomainError, match="rho") as err:
        BasicState.from_fields({"rho": 1.0})
    assert str(list(STATE_FIELDS)) in str(err.value)


@given(states())
def test_flat_fields_round_trip(state):
    flat = state.fields()
    assert tuple(flat) == STATE_FIELDS
    assert BasicState.from_fields(flat) == state


def test_from_fields_keeps_defaults_for_missing_names():
    assert BasicState.from_fields({}) == BasicState()
    state = BasicState.from_fields({"H_vacuum_3": 2.0, "a_hat": -1.0})
    assert state == BasicState(H_vacuum=(0.0, 2.0), a_hat=-1.0)


def test_wavevector_rejects_zero():
    with pytest.raises(DomainError):
        Wavevector(0.0, 0.0)


def test_wavevector_rejects_non_numbers():
    with pytest.raises(DomainError, match="omega3"):
        Wavevector(1.0, None)


@given(wavevectors())
def test_wavevector_unit_has_norm_one(omega):
    u2, u3 = omega.unit()
    assert math.isclose(math.hypot(u2, u3), 1.0, rel_tol=1e-12)


@given(states(), wavevectors(), bounded(0.25, 4.0))
def test_field_projections_ignore_wavevector_length(state, omega, scale):
    scaled = Wavevector(scale * omega.omega2, scale * omega.omega3)
    wp, wm = w_pair(state, omega)
    wp2, wm2 = w_pair(state, scaled)
    assert math.isclose(wp, wp2, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(wm, wm2, rel_tol=1e-12, abs_tol=1e-12)


@given(states())
def test_alfven_speed_matches_definition(state):
    h = math.hypot(*state.H_plasma)
    assert math.isclose(alfven_speed(state), h / math.sqrt(state.rho_hat), rel_tol=1e-12)


def test_euler_models_reject_magnetic_data():
    magnetized = BasicState(H_plasma=(1.0, 0.0))
    with pytest.raises(UnsupportedModelError):
        require_valid(ModelKind.CompressibleEuler, magnetized)
    with pytest.raises(UnsupportedModelError):
        require_valid(ModelKind.IncompressibleEuler, BasicState(a1_hat=0.5))
    require_valid(ModelKind.CompressibleMHD, magnetized)


def test_mode_root_rejects_inconsistent_admissibility():
    with pytest.raises(DomainError):
        ModeRoot(
            s=-0.1 + 0j,
            lambda_plus=-1.0 + 0j,
            lambda_minus=1.0 + 0j,
            residual=0.0,
            admissible=True,
            n=10,
        )
    ok = ModeRoot(
        s=0.1 + 0j,
        lambda_plus=-1.0 + 0j,
        lambda_minus=1.0 + 0j,
        residual=1e-14,
        admissible=True,
        n=10,
    )
    assert ok.admissible and not ok.neutral


def test_mode_root_rejects_a_negative_residual():
    with pytest.raises(DomainError, match="residual must be nonnegative"):
        ModeRoot(
            s=0.1 + 0j,
            lambda_plus=-1.0 + 0j,
            lambda_minus=1.0 + 0j,
            residual=-1e-14,
            admissible=False,
            n=10,
        )


def test_scaling_fit_requires_a_decade_of_mode_indices():
    with pytest.raises(DomainError):
        ScalingFit(exponent=0.5, coefficient=1.0, n_range=(100, 500), rms_log_error=0.0)
    fit = ScalingFit(exponent=0.5, coefficient=1.0, n_range=(100, 1000), rms_log_error=0.0)
    assert fit.n_range == (100, 1000)


@given(st.sampled_from(list(ModelKind)))
def test_model_kind_flags_are_consistent(model):
    assert model.is_mhd == ("MHD" in model.value)
    assert model.is_compressible == model.value.startswith("Compressible")


def test_model_kind_flag_table():
    table = [
        (ModelKind.IncompressibleEuler, False, False),
        (ModelKind.CompressibleEuler, False, True),
        (ModelKind.IncompressibleMHD, True, False),
        (ModelKind.CompressibleMHD, True, True),
    ]
    assert [row[0] for row in table] == list(ModelKind)
    for model, is_mhd, is_compressible in table:
        assert model.is_mhd is is_mhd
        assert model.is_compressible is is_compressible
        assert ModelKind(model.value) is model
        assert repr(model) == f"<ModelKind.{model.value}: '{model.value}'>"
    # plain member data, set once per member: no property runs on a read
    assert not any(isinstance(attr, property) for attr in vars(ModelKind).values())
