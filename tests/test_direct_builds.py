"""Values the library builds with domain.assemble equal their public twins.

assemble skips __init__ and __post_init__, so the library uses it only for
values whose every field it has already checked. These tests rebuild each
such value through its public constructor, which reruns every check: a
solver edit that breaks an invariant (an admissible root whose branch
conditions fail, a fit spanning less than a decade, a grid below 4 points)
fails here. The inputs are the benchmark's own root_fit and mode_check
inputs, with the sampled and the witness directions. The companion
templates are checked here too, and so are the symbols, which mode_symbol
builds through their own constructor: their per-symbol containers, and
their coefficients against the formulas, at construction and after use.
"""
import dataclasses
import sys

import numpy as np
import pytest

from conftest import SRC
from mhdlab import classifier, dispersion, hadamard
from mhdlab.dispersion import _companion, mode_symbol
from mhdlab.domain import BasicState, ModelKind, Wavevector, alfven_speed, w_pair
from mhdlab.errors import FitError
from mhdlab.roots import dominant_root, fit_scaling, solve_dispersion


def _bench_workloads():
    """bench/workloads.py, imported with the bench directory on sys.path."""
    bench = str(SRC.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return workloads


WORKLOADS = _bench_workloads()
SOLVE_N = (1, 7) + WORKLOADS.FIT_N_GRID


def assert_public_twin(value):
    """value holds exactly its fields and equals a twin built by its constructor."""
    cls = type(value)
    fields = dataclasses.fields(cls)
    assert list(vars(value)) == [f.name for f in fields]
    twin = cls(**{f.name: getattr(value, f.name) for f in fields if f.init})
    assert twin == value
    assert repr(twin) == repr(value)


def _root_fit_problems(seed):
    """Each (model, state, direction) a root_fit pass of seed fits or checks,
    with the numeric_classify result of its case."""
    for model, state, omega in WORKLOADS.WORKLOADS["root_fit"](seed, 1).inputs[0]:
        out = classifier.numeric_classify(model, state, WORKLOADS.FIT_N_GRID, [omega])
        problems = [(model, state, omega)]
        if model.is_mhd and out.collinear:
            problems.append((model, state, classifier._witness_direction(state)))
            problems.append(classifier._witness_problem(model, state))
        yield out, problems


@pytest.mark.parametrize("seed", [1, 2])
def test_root_fit_values_equal_their_public_twins(seed):
    results = roots_seen = fits_seen = 0
    for out, problems in _root_fit_problems(seed):
        assert_public_twin(out)
        if out.evidence is not None:
            assert_public_twin(out.evidence)
        results += 1
        for problem in problems:
            for n in SOLVE_N:
                for root in solve_dispersion(*problem, n):
                    assert_public_twin(root)
                    roots_seen += 1
            try:
                fit = fit_scaling(*problem, WORKLOADS.FIT_N_GRID)
            except FitError:
                continue
            assert_public_twin(fit)
            fits_seen += 1
    assert results == 48 and roots_seen > 1200 and fits_seen > 50


def test_mode_check_values_equal_their_public_twins():
    items = 0
    for model, state, omega in WORKLOADS.WORKLOADS["mode_check"](1, 1).inputs[0]:
        for n in WORKLOADS.MODE_N:
            root = dominant_root(solve_dispersion(model, state, omega, n))
            mode = hadamard.build_mode(model, state, omega, root)
            grid = hadamard.grid_for_mode(mode)
            fine = grid.refined()
            for value in (mode, mode.root, fine):
                assert_public_twin(value)
            for g in (grid, fine):
                assert_public_twin(hadamard.pde_residual_fd(mode, g, WORKLOADS.MODE_T))
            items += 1
    assert items == 48


# ------------------------------------------------------------------ symbols

SYMBOL_CASES = [
    (ModelKind.IncompressibleEuler, BasicState(a_hat=1.0, a0_hat=0.3)),
    (ModelKind.CompressibleEuler, BasicState(c_hat=2.0, a_hat=-1.0)),
    (ModelKind.IncompressibleMHD, BasicState(H_plasma=(1.0, 0.5), H_vacuum=(0.2, 1.0), a1_hat=0.4)),
    (ModelKind.CompressibleMHD, BasicState(H_plasma=(0.0, 1.0), H_vacuum=(1.0, 0.0), a_hat=2.0)),
]


COEFFICIENTS = ("model", "rho", "a", "a0", "a1", "c", "wp", "wm", "c1", "alpha", "beta")


def test_no_two_symbols_share_a_container():
    # the last is an equal state in another object, so a symbol of its own
    cases = SYMBOL_CASES + [(SYMBOL_CASES[0][0], BasicState(**vars(SYMBOL_CASES[0][1])))]
    syms = [mode_symbol(model, state, Wavevector(0.6, 0.8)) for model, state in cases]
    for name in ("solved", "primed"):
        containers = [getattr(sym, name) for sym in syms]
        assert len({id(c) for c in containers}) == len(syms), name
    for sym in syms:
        assert sym.solved == {} and sym.primed == {} and sym._last_g == (None, None)
        assert sorted(vars(sym)) == sorted(COEFFICIENTS + ("solved", "primed", "_last_g"))
    # a g call replaces its own symbol's last-g slot with one (s, (g, dg)) tuple
    s = 0.3 + 0.2j
    out = syms[1].g(s)
    assert syms[1]._last_g == (s, out) and syms[1]._last_g[0] is s
    assert [sym._last_g for sym in syms if sym is not syms[1]] == [(None, None)] * 4


def _formulas(model, state, omega):
    """Each coefficient of the symbol of (model, state, omega), from its formula."""
    wp, wm = w_pair(state, omega)
    return dict(
        model=model, rho=state.rho_hat, a=state.a_hat, a0=state.a0_hat, a1=state.a1_hat,
        c=state.c_hat, wp=wp, wm=wm, c1=state.a_hat + 1j * wm * state.a1_hat,
        alpha=state.c_hat**2 + alfven_speed(state) ** 2,
        beta=state.c_hat**2 * wp * wp / state.rho_hat,
    )


@pytest.mark.parametrize("model, state", SYMBOL_CASES, ids=lambda v: getattr(v, "value", ""))
def test_symbol_coefficients_are_their_formulas_bit_for_bit(model, state):
    omega = Wavevector(0.6, 0.8)
    sym = mode_symbol(model, state, omega)
    want = _formulas(model, state, omega)
    assert list(want) == list(COEFFICIENTS)
    for name, value in want.items():  # repr tells the sign of a zero apart
        assert repr(getattr(sym, name)) == repr(value), name


def test_solves_and_modes_leave_every_symbol_coefficient_as_built(monkeypatch):
    built = []
    init = dispersion.ModeSymbol.__init__

    def recording_init(sym, *args):
        init(sym, *args)
        built.append((sym, [repr(getattr(sym, name)) for name in COEFFICIENTS]))

    monkeypatch.setattr(dispersion.ModeSymbol, "__init__", recording_init)
    monkeypatch.setattr(dispersion, "_last_symbol", (None, None, None, None))
    for _ in _root_fit_problems(1):
        pass
    for model, state, omega in WORKLOADS.WORKLOADS["mode_check"](1, 1).inputs[0]:
        for n in WORKLOADS.MODE_N:
            root = dominant_root(solve_dispersion(model, state, omega, n))
            hadamard.build_mode(model, state, omega, root)
        hadamard.growth_ratio(model, state, omega, WORKLOADS.MODE_N, WORKLOADS.GROWTH_T)
    assert len(built) > 48
    for sym, snapshot in built:
        assert [repr(getattr(sym, name)) for name in COEFFICIENTS] == snapshot


# ---------------------------------------------------------------- templates


def _eye_companion(c):
    """The companion np.roots builds, on coefficients with nonzero ends."""
    companion = np.eye(len(c) - 1, k=-1, dtype=complex)
    companion[0] = -c[1:] / c[0]
    return companion


@pytest.mark.parametrize("k", list(range(1, 9)) + [11])
def test_companion_is_the_eye_construction_bit_for_bit(k):
    rng = np.random.default_rng(k)
    for _ in range(20):
        c = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
        zeros, companion = _companion(c)
        want = _eye_companion(c)
        assert zeros == []
        assert companion.dtype == want.dtype and companion.shape == want.shape
        assert companion.tobytes() == want.tobytes()
        assert companion.flags.writeable and companion.flags.c_contiguous
        assert not np.shares_memory(companion, dispersion._subdiagonal(k))


def test_templates_are_unchanged_after_a_root_fit_pass():
    dispersion._subdiagonal.cache_clear()
    for model, state, omega in WORKLOADS.WORKLOADS["root_fit"](3, 1).inputs[0]:
        classifier.numeric_classify(model, state, WORKLOADS.FIT_N_GRID, [omega])
    used = dispersion._subdiagonal.cache_info()
    assert used.hits > used.misses > 1  # the pass reused templates of several sizes
    for k in range(1, 9):
        template = dispersion._subdiagonal(k)
        assert not template.flags.writeable
        assert template.tobytes() == np.eye(k, k=-1, dtype=complex).tobytes()
