"""Shared hypothesis strategies for bounded, well-conditioned model states,
the environment of child Python processes that import mhdlab, and the
benchmark's independent root oracle."""
import importlib.util
import math
import os
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from mhdlab import roots
from mhdlab.domain import BasicState, ModelKind, Wavevector

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

SRC = Path(__file__).resolve().parents[1] / "src"


def subprocess_env() -> dict:
    """Environment for a child Python that imports mhdlab from this checkout
    and, as pyproject's filterwarnings does in process, fails on a
    RuntimeWarning."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"}


def load_bench_oracle():
    """bench/oracle.py, loaded by path: determinants and an mpmath root oracle
    written without mhdlab. Its root finder needs mpmath."""
    path = SRC.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_solves(monkeypatch, with_model=False) -> list:
    """Patch roots.solve_dispersion to log the n of every call, or its
    (model, n) with with_model; returns the log."""
    solved = []
    real_solve = roots.solve_dispersion

    def counting_solve(model, state, omega, n):
        solved.append((model, n) if with_model else n)
        return real_solve(model, state, omega, n)

    monkeypatch.setattr(roots, "solve_dispersion", counting_solve)
    return solved


def state_dict(state: BasicState) -> dict:
    """The oracle's view of a state: plain floats, no package types."""
    return {
        "rho": state.rho_hat,
        "c": state.c_hat,
        "a": state.a_hat,
        "a0": state.a0_hat,
        "a1": state.a1_hat,
        "Hp": tuple(state.H_plasma),
        "Hv": tuple(state.H_vacuum),
    }


MHD_MODELS = [ModelKind.IncompressibleMHD, ModelKind.CompressibleMHD]
EULER_MODELS = [ModelKind.IncompressibleEuler, ModelKind.CompressibleEuler]


def bounded(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def wavevectors(draw):
    theta = draw(bounded(0.0, 2.0 * math.pi))
    r = draw(bounded(0.25, 4.0))
    return Wavevector(r * math.cos(theta), r * math.sin(theta))


@st.composite
def states(draw, model=None, collinear=None, max_field=2.0):
    """Bounded states; set collinear True/False to pin the field geometry.

    Parameter windows keep series coefficients and condition numbers modest
    so that double precision tolerances in the tests are meaningful.
    """
    rho = draw(bounded(0.5, 4.0))
    c = draw(bounded(1.0, 3.0))
    a = draw(bounded(-4.0, 4.0))
    a0 = draw(bounded(-2.0, 2.0))
    if model is not None and not model.is_mhd:
        return BasicState(rho_hat=rho, c_hat=c, a_hat=a, a0_hat=a0)
    theta = draw(bounded(0.0, 2.0 * math.pi))
    p = draw(bounded(-max_field, max_field))
    v = draw(bounded(-max_field, max_field))
    if collinear is True:
        psi = theta
    elif collinear is False:
        psi = theta + draw(bounded(0.2, math.pi - 0.2))
        p = math.copysign(max(abs(p), 0.3), p if p != 0 else 1.0)
        v = math.copysign(max(abs(v), 0.3), v if v != 0 else 1.0)
    else:
        psi = draw(bounded(0.0, 2.0 * math.pi))
    a1 = draw(bounded(-2.0, 2.0))
    return BasicState(
        rho_hat=rho,
        c_hat=c,
        H_plasma=(p * math.cos(theta), p * math.sin(theta)),
        H_vacuum=(v * math.cos(psi), v * math.sin(psi)),
        a_hat=a,
        a0_hat=a0,
        a1_hat=a1,
    )


@st.composite
def model_state_pairs(draw, collinear=None):
    model = draw(st.sampled_from(list(ModelKind)))
    return model, draw(states(model=model, collinear=collinear))
