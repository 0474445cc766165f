"""Every finite input returns or fails with a typed error.

States far outside the property tests' windows go through the whole
pipeline: the closed-form verdict, solves at n = 1, 7 and 1e4, a growth
table, the n = 7 mode's FD check and the leading-order scan. Each call
returns or raises an exception type of errors.py, and a RuntimeWarning
(an overflow or an invalid value in NumPy) is an error.
"""
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bounded, wavevectors
from mhdlab import errors as errors_module
from mhdlab.classifier import classify_frozen
from mhdlab.domain import BasicState, ModelKind, Wavevector
from mhdlab.hadamard import build_mode, grid_for_mode, growth_ratio, pde_residual_fd
from mhdlab.roots import dominant_root, scan_s0, solve_dispersion

# fields reach 10^-E .. 10^E; raise E as the solver's mends land, never lower it
E = 20


@st.composite
def census_values(draw, signed=True):
    """10% exact zeros (signed values only), 40% in [0.1, 4] and the rest
    log-uniform in [10^-E, 10^E], with a random sign if signed."""
    kind = draw(st.integers(0, 9))
    if kind == 0 and signed:
        return 0.0
    if kind <= 4:
        x = draw(bounded(0.1, 4.0))
    else:
        # a decade drawn as an integer: hypothesis then reaches all of them
        x = draw(bounded(1.0, 10.0)) * 10.0 ** draw(st.integers(-E, E - 1))
    return -x if signed and draw(st.booleans()) else x


@st.composite
def census_cases(draw):
    model = draw(st.sampled_from(list(ModelKind)))
    scalars = dict(
        rho_hat=draw(census_values(signed=False)),
        c_hat=draw(census_values(signed=False)),
        a_hat=draw(census_values()),
        a0_hat=draw(census_values()),
    )
    if model.is_mhd:
        scalars.update(
            a1_hat=draw(census_values()),
            H_plasma=(draw(census_values()), draw(census_values())),
            H_vacuum=(draw(census_values()), draw(census_values())),
        )
    return model, scalars, draw(wavevectors())


def returns_or_fails_typed(call, *args):
    """call(*args), or None when it raises a type of errors.py."""
    try:
        return call(*args)
    except Exception as exc:
        assert type(exc).__module__ == errors_module.__name__, repr(exc)
        return None


@given(census_cases())
@settings(max_examples=300)
# LAPACK's eigenvalue iteration does not converge on the n = 7 companion
@example((
    ModelKind.CompressibleMHD,
    dict(rho_hat=1.1015625, c_hat=1.75, a_hat=0.0, a0_hat=0.5, a1_hat=0.0,
         H_plasma=(0.0, 1.0), H_vacuum=(1e8, 0.0)),
    Wavevector(0.8459244992310679, 0.5333026735360201),
))
# c_hat^2 + cA^2 underflows to 0, and g divided s^2 by it
@example((
    ModelKind.CompressibleMHD,
    dict(rho_hat=1.0, c_hat=1e-170, a_hat=1.0, a0_hat=0.5, a1_hat=0.0,
         H_plasma=(0.0, 0.0), H_vacuum=(0.0, 0.0)),
    Wavevector(1.0, 0.0),
))
# on CompressibleEuler, c_hat^2 underflows to 0 (1e-170) or (a/(rho c_hat))^2
# overflows the cleared polynomial (1e-155)
@example((ModelKind.CompressibleEuler, dict(rho_hat=1.0, c_hat=1e-170, a_hat=1.0, a0_hat=0.5),
          Wavevector(1.0, 0.0)))
@example((ModelKind.CompressibleEuler, dict(rho_hat=1.0, c_hat=1e-155, a_hat=1.0, a0_hat=0.5),
          Wavevector(1.0, 0.0)))
def test_every_finite_input_returns_or_fails_typed(case):
    model, scalars, omega = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # classify_frozen warns (UserWarning) for an a_hat below its zero threshold
        warnings.simplefilter("ignore", UserWarning)
        state = returns_or_fails_typed(lambda: BasicState(**scalars))
        if state is None:
            return
        returns_or_fails_typed(classify_frozen, model, state)
        for n in (1, 7, 10**4):
            returns_or_fails_typed(solve_dispersion, model, state, omega, n)
        returns_or_fails_typed(growth_ratio, model, state, omega, [1, 7], 1.0)
        roots = returns_or_fails_typed(solve_dispersion, model, state, omega, 7)
        root = dominant_root(roots) if roots else None
        mode = root and returns_or_fails_typed(build_mode, model, state, omega, root)
        grid = mode and returns_or_fails_typed(grid_for_mode, mode)
        if grid is not None:
            returns_or_fails_typed(pde_residual_fd, mode, grid, 1.0)
        if model is ModelKind.CompressibleMHD:
            returns_or_fails_typed(scan_s0, state, [omega], 1e-8)
