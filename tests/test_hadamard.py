"""Mode construction, sampling and finite-difference verification."""
import cmath
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings

from mhdlab import hadamard
from mhdlab import roots as roots_module
from mhdlab.dispersion import mode_symbol
from mhdlab.domain import BasicState, ModeRoot, ModelKind, Wavevector
from mhdlab.errors import DomainError, GridError, NotARootError, ResonanceError
from mhdlab.hadamard import (
    GridSpec,
    build_mode,
    evaluate_field,
    grid_for_mode,
    growth_ratio,
    pde_residual_fd,
)
from mhdlab.roots import dominant_root, solve_dispersion

from conftest import model_state_pairs, wavevectors

M = ModelKind
OM = Wavevector(0.6, 0.8)
PERP = Wavevector(0.0, 1.0)

EULER_STATE = BasicState(a_hat=1.0)
ALIGNED_INC = BasicState(
    a_hat=1.0, a0_hat=0.2, a1_hat=0.7, H_plasma=(1.0, 0.0), H_vacuum=(2.0, 0.0)
)
ALIGNED_COMP = BasicState(
    a_hat=1.0, a0_hat=0.2, a1_hat=0.7, c_hat=2.0, H_plasma=(1.0, 0.0), H_vacuum=(2.0, 0.0)
)
README_COMP = BasicState(
    a_hat=1.0, a0_hat=0.2, a1_hat=0.7, c_hat=2.0, H_plasma=(0.6, 0.8), H_vacuum=(1.2, 1.6)
)


def top_mode(model, state, omega, n):
    root = dominant_root(solve_dispersion(model, state, omega, n))
    assert root is not None
    return build_mode(model, state, omega, root)


def physical_matrix(mode):
    mat = mode_symbol(mode.model, mode.state, mode.omega).matrix(mode.root.s, mode.root.n)
    mat[:, 1] = -mat[:, 1]
    return mat


def frobenius(mat):
    """np.linalg.norm(mat), computed as m * ||mat / m|| with m the largest
    |entry|, so that squaring an entry near 1e172 does not overflow."""
    m = np.max(np.abs(mat))
    return m * np.linalg.norm(mat / m) if m > 0 else 0.0


class TestBuildMode:
    def test_euler_interface_amplitudes_are_one_and_a(self):
        mode = top_mode(M.IncompressibleEuler, EULER_STATE, OM, 100)
        assert mode.amplitude("phi") == pytest.approx(1.0, abs=1e-12)
        assert mode.amplitude("q") == pytest.approx(EULER_STATE.a_hat, abs=1e-12)
        # v1 = q / s for the unit-exponent model
        assert mode.amplitude("v1") == pytest.approx(
            mode.amplitude("q") / mode.root.s, rel=1e-10
        )
        assert mode.normalization == "phi_unit"

    def test_orthogonal_direction_displacement_amplitude(self):
        # with both fields orthogonal to the phase direction the vacuum
        # condition decouples: n xi = a1 phi
        state = BasicState(
            a_hat=1.0, a1_hat=0.7, H_plasma=(1.0, 0.0), H_vacuum=(2.0, 0.0)
        )
        mode = top_mode(M.IncompressibleMHD, state, PERP, 100)
        assert mode.amplitude("xi") == pytest.approx(
            0.7 * mode.amplitude("phi") / 100, rel=1e-9
        )

    @pytest.mark.parametrize(
        "model,state,omega,n",
        [
            (M.IncompressibleEuler, EULER_STATE, OM, 100),
            (M.CompressibleEuler, BasicState(a_hat=1.0, a0_hat=0.3, c_hat=2.0), OM, 100),
            (M.IncompressibleMHD, ALIGNED_INC, OM, 400),
            (M.CompressibleMHD, ALIGNED_COMP, OM, 400),
        ],
    )
    def test_interface_amplitudes_solve_the_boundary_system(self, model, state, omega, n):
        mode = top_mode(model, state, omega, n)
        mat = physical_matrix(mode)
        if model.is_mhd:
            vec = np.array(
                [mode.amplitude("phi"), mode.amplitude("q"), mode.amplitude("xi")]
            )
        else:
            vec = np.array([mode.amplitude("phi"), mode.amplitude("q")])
        assert np.max(np.abs(mat @ vec)) <= 1e-12 * frobenius(mat)

    def test_non_root_is_rejected(self):
        fake = ModeRoot(
            s=0.5 + 0.5j,
            lambda_plus=complex(-1.0),
            lambda_minus=complex(1.0),
            residual=0.0,
            admissible=True,
            n=100,
        )
        with pytest.raises(NotARootError):
            build_mode(M.IncompressibleMHD, ALIGNED_INC, PERP, fake)

    def test_non_growing_root_is_rejected(self):
        # stable oscillation: Re s = 0 but s != 0, neither admissible nor neutral
        roots = solve_dispersion(
            M.IncompressibleEuler, BasicState(a_hat=-1.0), OM, 100
        )
        osc = next(r for r in roots if abs(r.s.real) < 1e-14 and r.s != 0)
        assert not osc.admissible and not osc.neutral
        with pytest.raises(NotARootError):
            build_mode(M.IncompressibleEuler, BasicState(a_hat=-1.0), OM, osc)

    def test_neutral_euler_root_has_no_mode(self):
        roots = solve_dispersion(
            M.IncompressibleEuler, BasicState(a_hat=0.0, a0_hat=-1.0), OM, 50
        )
        neutral = next(r for r in roots if r.neutral)
        with pytest.raises(ResonanceError):
            build_mode(M.IncompressibleEuler, BasicState(a_hat=0.0, a0_hat=-1.0), OM, neutral)

    def test_magnetic_amplitudes_are_divergence_free(self):
        for model, state, omega, n in [
            (M.IncompressibleMHD, ALIGNED_INC, OM, 400),
            (M.IncompressibleMHD, ALIGNED_INC, PERP, 100),
            (M.CompressibleMHD, ALIGNED_COMP, OM, 400),
            (M.CompressibleMHD, ALIGNED_COMP, OM, 25),
        ]:
            mode = top_mode(model, state, omega, n)
            o2, o3 = omega.unit()
            div = (
                mode.root.lambda_plus * mode.amplitude("H1")
                + 1j * o2 * mode.amplitude("H2")
                + 1j * o3 * mode.amplitude("H3")
            )
            scale = max(abs(mode.amplitude(f"H{i}")) for i in (1, 2, 3))
            assert abs(div) <= 1e-12 * max(1.0, scale)

    @settings(max_examples=40)
    @given(pair=model_state_pairs(collinear=True), omega=wavevectors())
    @example(
        pair=(M.IncompressibleEuler, BasicState(a_hat=1.8763167430892094e-173, a0_hat=-1.0)),
        omega=Wavevector(1.0, 0.0),
    )
    @example(
        # the admissible root s = 4.45e-310 has no finite 1/s
        pair=(M.CompressibleMHD, BasicState(H_plasma=(1.0, 0.0), a0_hat=2.2250738585072014e-308)),
        omega=Wavevector(1.0, 0.0),
    )
    def test_random_modes_solve_the_boundary_system(self, pair, omega):
        model, state = pair
        try:
            root = dominant_root(solve_dispersion(model, state, omega, 50))
        except (ValueError, RuntimeError):
            return
        if root is None:
            return
        try:
            mode = build_mode(model, state, omega, root)
        except (NotARootError, ResonanceError):
            return
        mat = physical_matrix(mode)
        if model.is_mhd:
            vec = np.array(
                [mode.amplitude("phi"), mode.amplitude("q"), mode.amplitude("xi")]
            )
        else:
            vec = np.array([mode.amplitude("phi"), mode.amplitude("q")])
        assert np.max(np.abs(mat @ vec)) <= 1e-10 * max(1.0, frobenius(mat))


class TestEvaluateField:
    def test_time_zero_interface_magnitudes_equal_amplitudes(self):
        mode = top_mode(M.CompressibleMHD, ALIGNED_COMP, OM, 100)
        grid = grid_for_mode(mode)
        sample = evaluate_field(mode, grid, 0.0)
        assert not sample.log_magnitude
        for name in ("q", "v1", "v2", "H2", "H3"):
            row0 = np.max(np.abs(sample.plasma[name][0]))
            assert row0 == pytest.approx(abs(mode.amplitude(name)), rel=1e-12, abs=1e-300)
        xi_edge = np.max(np.abs(sample.vacuum["xi"][-1]))
        assert xi_edge == pytest.approx(abs(mode.amplitude("xi")), rel=1e-12)

    def test_fields_decay_away_from_interface(self):
        mode = top_mode(M.CompressibleMHD, ALIGNED_COMP, OM, 100)
        grid = grid_for_mode(mode)
        sample = evaluate_field(mode, grid, 0.0)
        q_prof = np.max(np.abs(sample.plasma["q"]), axis=1)
        assert q_prof[0] > q_prof[len(q_prof) // 2] > q_prof[-1]
        assert q_prof[-1] <= 1e-15 * q_prof[0]
        xi_prof = np.max(np.abs(sample.vacuum["xi"]), axis=1)
        assert xi_prof[-1] > xi_prof[0]

    def test_growth_over_time_matches_exponential(self):
        mode = top_mode(M.IncompressibleEuler, EULER_STATE, OM, 100)
        grid = grid_for_mode(mode)
        t = 10.0 / (100 * mode.root.s.real)
        ratio = np.max(np.abs(evaluate_field(mode, grid, t).plasma["q"])) / np.max(
            np.abs(evaluate_field(mode, grid, 0.0).plasma["q"])
        )
        assert ratio == pytest.approx(math.exp(10.0), rel=1e-12)
        assert ratio == pytest.approx(2.20264657948067e4, rel=1e-10)

    def test_neutral_mode_is_time_independent(self):
        state = BasicState(
            a_hat=-1.0, a1_hat=0.5, c_hat=2.0, H_plasma=(1.0, 0.0), H_vacuum=(2.0, 0.0)
        )
        roots = solve_dispersion(M.CompressibleMHD, state, OM, 50)
        neutral = next(r for r in roots if r.neutral)
        mode = build_mode(M.CompressibleMHD, state, OM, neutral)
        grid = grid_for_mode(mode)
        early = evaluate_field(mode, grid, 0.0)
        late = evaluate_field(mode, grid, 7.5)
        assert np.allclose(early.plasma["q"], late.plasma["q"], rtol=0, atol=0)
        assert all(mode.amplitude(f"v{i}") == 0 for i in (1, 2, 3))

    def test_overflowing_time_switches_to_log_magnitudes(self):
        mode = top_mode(M.IncompressibleEuler, EULER_STATE, OM, 100)
        grid = grid_for_mode(mode)
        t = 100.0  # n Re s t = 1000, far past the double-precision range
        sample = evaluate_field(mode, grid, t)
        assert sample.log_magnitude
        n, s = mode.root.n, mode.root.s
        expected0 = math.log(abs(mode.amplitude("q"))) + n * s.real * t
        assert np.max(sample.plasma["q"]) == pytest.approx(expected0, rel=1e-12)
        # depth profile stays linear with slope n Re lambda
        prof = np.max(sample.plasma["q"], axis=1)
        slope = (prof[-1] - prof[0]) / grid.x1_extent_plus
        assert slope == pytest.approx(n * mode.root.lambda_plus.real, rel=1e-10)

    def test_overflowing_magnetic_mode_switches_to_log_magnitudes(self):
        mode = top_mode(M.CompressibleMHD, ALIGNED_COMP, OM, 100)
        grid = grid_for_mode(mode)
        n, s = mode.root.n, mode.root.s
        t = 1000.0 / (n * s.real)
        sample = evaluate_field(mode, grid, t)
        assert sample.log_magnitude
        assert not hasattr(sample, "interface")
        # the last vacuum row is the interface x1 = 0
        expected = math.log(abs(mode.amplitude("xi"))) + n * s.real * t
        assert sample.vacuum["xi"][-1] == pytest.approx(
            np.full(grid.points_per_direction[2], expected), rel=1e-12
        )

    def test_shallow_grid_is_rejected(self):
        # sampling and the FD check apply the one truncation rule
        mode = top_mode(M.IncompressibleEuler, EULER_STATE, OM, 100)
        shallow = GridSpec(0.05, 0.05, (16, 16, 8), 2 * math.pi / 100)
        with pytest.raises(GridError) as sampled:
            evaluate_field(mode, shallow, 0.0)
        with pytest.raises(GridError) as checked:
            pde_residual_fd(mode, shallow, 0.0)
        assert str(sampled.value) == str(checked.value)
        assert str(sampled.value).startswith(
            "plasma truncation too lossy at n=100: depth 0.05 keeps exp("
        )


class TestGridForMode:
    def test_depth_follows_decay_rate(self):
        mode = top_mode(M.IncompressibleEuler, EULER_STATE, OM, 100)
        grid = grid_for_mode(mode)
        rate = 100 * abs(mode.root.lambda_plus.real)
        assert grid.x1_extent_plus == pytest.approx(min(40.0 / rate, 20.0), rel=1e-12)
        assert math.exp(-rate * grid.x1_extent_plus) <= 1e-16
        assert grid.tangential_period == pytest.approx(2 * math.pi / 100, rel=1e-12)

    def test_refinement_halves_spacings(self):
        grid = GridSpec(1.0, 1.0, (64, 64, 16), 0.1)
        fine = grid.refined()
        assert fine.points_per_direction == (127, 127, 32)
        assert fine.x1_extent_plus == grid.x1_extent_plus

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(GridError):
            GridSpec(-1.0, 1.0, (16, 16, 16), 0.1)
        with pytest.raises(GridError):
            GridSpec(1.0, 1.0, (2, 16, 16), 0.1)
        with pytest.raises(GridError):
            GridSpec(1.0, 1.0, (16, 16, 16), 0.0)

    @pytest.mark.parametrize(
        "extents,period",
        [((math.inf, 1.0), 0.1), ((1.0, math.inf), 0.1), ((math.nan, 1.0), 0.1),
         ((1.0, 1.0), math.inf), ((1.0, 1.0), math.nan)],
    )
    def test_non_finite_sizes_are_rejected(self, extents, period):
        # an infinite depth used to pass and leave inf * 0 to the sampling
        with pytest.raises(GridError, match="finite and positive"):
            GridSpec(*extents, (16, 16, 16), period)

    @pytest.mark.parametrize(
        "points", [(8.0, 8, 8), (8, 8), (8, 8, 8, 8), [8, 8, 8], (8, np.int64(8), 8), "888"]
    )
    def test_points_must_be_a_tuple_of_three_ints(self, points):
        # a float count ended in a raw TypeError from linspace, a 2-tuple in
        # a raw unpacking ValueError
        with pytest.raises(GridError, match="three ints"):
            GridSpec(1.0, 1.0, points, 0.1)


FD_CASES = [
    (M.IncompressibleEuler, EULER_STATE, OM, 25),
    (M.IncompressibleEuler, EULER_STATE, OM, 100),
    (M.IncompressibleEuler, EULER_STATE, OM, 400),
    (M.CompressibleEuler, BasicState(a_hat=1.0, a0_hat=0.3, c_hat=2.0), OM, 100),
    (M.IncompressibleMHD, ALIGNED_INC, OM, 400),
    (M.CompressibleMHD, ALIGNED_COMP, OM, 25),
    (M.CompressibleMHD, ALIGNED_COMP, OM, 400),
]


# no vacuum field: the pressure condition keeps only the a phi term
ZERO_VACUUM_FIELD = BasicState(a_hat=1.0, a1_hat=0.4, H_plasma=(1.0, 0.0), H_vacuum=(0.0, 0.0))


# report keys per model, in the order residuals.jsonl writes them
MOMENTUM = ["momentum_1", "momentum_2", "momentum_3"]
INDUCTION = ["induction_1", "induction_2", "induction_3"]
MAGNETIC = ["magnetic_divergence", "vacuum_laplace"]
REPORT_KEYS = [
    (M.IncompressibleEuler, EULER_STATE, MOMENTUM + ["divergence"], ["kinematic", "pressure"]),
    (
        M.CompressibleEuler,
        BasicState(a_hat=1.0, a0_hat=0.3, c_hat=2.0),
        MOMENTUM + ["continuity"],
        ["kinematic", "pressure"],
    ),
    (
        M.IncompressibleMHD,
        ALIGNED_INC,
        MOMENTUM + INDUCTION + ["divergence"] + MAGNETIC,
        ["kinematic", "pressure", "vacuum_neumann"],
    ),
    (
        M.CompressibleMHD,
        ALIGNED_COMP,
        MOMENTUM + INDUCTION + ["continuity"] + MAGNETIC,
        ["kinematic", "pressure", "vacuum_neumann"],
    ),
]


def strong_field_state(h):
    return BasicState(
        a_hat=1.0, a0_hat=0.2, a1_hat=0.7, c_hat=2.0,
        H_plasma=(0.6 * h, 0.8 * h), H_vacuum=(1.6 * h, -1.2 * h),
    )


# modes with |s| >> 1: a time step of one tangential spacing htau would turn
# the time factor by n |s| htau = 2 pi |s| / 16 radians on the mode's grid
FAST_MODES = [
    (model, BasicState(a_hat=1.0, a0_hat=a0))
    for model in (M.IncompressibleEuler, M.CompressibleMHD)
    for a0 in (30.0, 100.0, 300.0, 1000.0, 5000.0)
] + [(M.CompressibleMHD, strong_field_state(h)) for h in (10.0, 30.0, 100.0)]


def convergence_ratios(mode):
    """coarse/fine ratio of every interior residual on the mode's grid, leaving
    out equations that vanish identically on both grids."""
    grid = grid_for_mode(mode)
    coarse = pde_residual_fd(mode, grid, 0.0).interior
    fine = pde_residual_fd(mode, grid.refined(), 0.0).interior
    return {k: v / fine[k] for k, v in coarse.items() if v or fine[k]}


class TestPdeResidualFd:
    @pytest.mark.parametrize("model,state", FAST_MODES)
    def test_fast_modes_converge_at_second_order(self, model, state):
        ratios = convergence_ratios(top_mode(model, state, Wavevector(1.0, 0.0), 25))
        assert ratios and all(3.2 <= r <= 4.8 for r in ratios.values()), ratios

    def test_report_depends_only_on_the_direction_of_omega(self):
        state = BasicState(a_hat=1.0, a0_hat=0.2, c_hat=2.0)
        reports = []
        for size in (1e-3, 1.0, 10.0, 1000.0):
            mode = top_mode(M.CompressibleEuler, state, Wavevector(size, 0.0), 25)
            reports.append(pde_residual_fd(mode, grid_for_mode(mode), 0.0))
            ratios = convergence_ratios(mode)
            assert ratios and all(3.2 <= r <= 4.8 for r in ratios.values()), ratios
        assert all(report == reports[0] for report in reports)

    @pytest.mark.parametrize("model,state,interior,boundary", REPORT_KEYS)
    def test_equation_names_and_order_per_model(self, model, state, interior, boundary):
        mode = top_mode(model, state, OM, 100)
        report = pde_residual_fd(mode, grid_for_mode(mode), 0.0)
        assert list(report.interior) == interior
        assert list(report.boundary) == boundary

    @pytest.mark.parametrize("model,state,omega,n", FD_CASES)
    def test_halving_h_divides_interior_residuals_by_four(self, model, state, omega, n):
        mode = top_mode(model, state, omega, n)
        grid = grid_for_mode(mode)
        coarse = pde_residual_fd(mode, grid, 0.3)
        fine = pde_residual_fd(mode, grid.refined(), 0.3)
        for name, value in coarse.interior.items():
            ratio = value / fine.interior[name]
            order = math.log2(ratio)
            assert 1.7 <= order <= 2.3, f"{name}: order {order:.3f}"

    @pytest.mark.parametrize(
        "model,state,omega,n",
        FD_CASES + [(M.IncompressibleMHD, ZERO_VACUUM_FIELD, PERP, 100)],
    )
    def test_boundary_residuals_at_machine_precision(self, model, state, omega, n):
        mode = top_mode(model, state, omega, n)
        report = pde_residual_fd(mode, grid_for_mode(mode), 1.0)
        assert report.worst_boundary() <= 1e-12

    def test_neutral_mode_residuals(self):
        state = BasicState(
            a_hat=-1.0, a1_hat=0.5, c_hat=2.0, H_plasma=(1.0, 0.0), H_vacuum=(2.0, 0.0)
        )
        neutral = next(
            r for r in solve_dispersion(M.CompressibleMHD, state, OM, 50) if r.neutral
        )
        mode = build_mode(M.CompressibleMHD, state, OM, neutral)
        report = pde_residual_fd(mode, grid_for_mode(mode), 2.0)
        assert report.worst_boundary() <= 1e-12
        assert report.worst_interior() <= 0.1

    def test_amplitude_mutation_moves_some_residual(self):
        mode = top_mode(M.CompressibleMHD, ALIGNED_COMP, OM, 400)
        grid = grid_for_mode(mode)
        base = pde_residual_fd(mode, grid, 0.0)
        for name in ("q", "xi", "phi", "v1", "H1"):
            amps = tuple(
                a * (1.0 + 1e-3) if k == name else a for k, a in zip(mode.names, mode.amplitudes)
            )
            mutated = replace(mode, amplitudes=amps)
            report = pde_residual_fd(mutated, grid, 0.0)
            deltas = [
                abs(report.interior[k] - base.interior[k]) for k in base.interior
            ] + [abs(report.boundary[k] - base.boundary[k]) for k in base.boundary]
            assert max(deltas) > 1e-4, f"perturbing {name} went unnoticed"

    def test_coarse_tangential_grid_is_refused(self):
        mode = top_mode(M.IncompressibleEuler, EULER_STATE, OM, 100)
        grid = grid_for_mode(mode, points_per_direction=(64, 64, 4))
        with pytest.raises(GridError):
            pde_residual_fd(mode, grid, 0.0)

    def test_period_must_hold_whole_wavelengths(self):
        # the periodic tau-stencils wrap onto the neighbour one period away,
        # which is the mode's own neighbour only over whole wavelengths 2 pi/n
        mode = top_mode(M.CompressibleMHD, README_COMP, Wavevector(1.0, 0.0), 25)
        grid = grid_for_mode(mode)
        wavelength = 2 * math.pi / 25
        two = replace(grid, tangential_period=2 * wavelength, points_per_direction=(256, 256, 32))
        assert pde_residual_fd(mode, two, 1.0).worst_interior() < 0.05
        for period in (1.3 * wavelength, 0.5 * wavelength):
            with pytest.raises(GridError, match="whole number"):
                pde_residual_fd(mode, replace(two, tangential_period=period), 1.0)
        # 8 points per wavelength, not per period
        with pytest.raises(GridError, match="8 points per wavelength"):
            pde_residual_fd(mode, replace(two, points_per_direction=(256, 256, 8)), 1.0)

    def test_non_finite_time_is_rejected(self):
        mode = top_mode(M.IncompressibleEuler, EULER_STATE, OM, 100)
        grid = grid_for_mode(mode)
        for t in (math.nan, math.inf):
            with pytest.raises(DomainError, match="t must be finite"):
                pde_residual_fd(mode, grid, t)
            with pytest.raises(DomainError, match="t must be finite"):
                evaluate_field(mode, grid, t)
            with pytest.raises(DomainError, match="t must be finite"):
                growth_ratio(M.IncompressibleEuler, EULER_STATE, OM, [25], t)

    def test_growing_mode_residual_independent_of_time(self):
        # relative residuals project out the global growth factor
        mode = top_mode(M.IncompressibleEuler, EULER_STATE, OM, 400)
        grid = grid_for_mode(mode)
        early = pde_residual_fd(mode, grid, 0.0)
        late = pde_residual_fd(mode, grid, 1e4)
        for k in early.interior:
            assert early.interior[k] == pytest.approx(late.interior[k], rel=1e-6)

    def test_peak_memory_is_linear_in_points_per_direction(self):
        # the check reads a few x1 samples as numbers: memory is the same at
        # every mp, mm and mt
        mode = top_mode(M.CompressibleMHD, ALIGNED_COMP, OM, 25)

        def peak(points):
            grid = grid_for_mode(mode, points)
            pde_residual_fd(mode, grid, 0.0)  # warm-up outside the trace
            tracemalloc.start()
            try:
                pde_residual_fd(mode, grid, 0.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak((511, 511, 32)), peak((2045, 2045, 32))
        assert large < 2 * 2**20
        assert large <= 1.1 * small
        assert peak((511, 511, 4096)) <= 1.1 * small


def whole_grid_residuals(mode, grid):
    """Sup of every interior residual at t = 0, in report order, by stencils on
    the whole mp x mt samples: np.gradient along x1, np.roll along tau, and a
    one-sided second difference at both ends of the vacuum's x1 rows."""
    sample = evaluate_field(mode, grid, 0.0)
    mhd = mode.model.is_mhd
    wp = mode_symbol(mode.model, mode.state, mode.omega).wp
    n, s = mode.root.n, mode.root.s
    mp, mm, mt = grid.points_per_direction
    h1p, h1m = grid.x1_extent_plus / (mp - 1), grid.x1_extent_minus / (mm - 1)
    htau = grid.tangential_period / mt
    dt = htau / max(1.0, abs(s))
    rho, c = mode.state.rho_hat, mode.state.c_hat
    o2, o3 = mode.omega.unit()
    Hhat = (0.0, *mode.state.H_plasma)

    def dtau(F):
        return (np.roll(F, -1, axis=1) - np.roll(F, 1, axis=1)) / (2.0 * htau)

    def d(i, F):
        return np.gradient(F, h1p, axis=0, edge_order=2) if i == 0 else (o2, o3)[i - 1] * dtau(F)

    def Dt(F):
        return (F * cmath.exp(n * s * dt) - F * cmath.exp(-n * s * dt)) / (2.0 * dt)

    def div(F):
        return d(0, F[0]) + d(1, F[1]) + d(2, F[2])

    def d2(F):
        out = np.empty_like(F)
        out[1:-1] = (F[2:] - 2.0 * F[1:-1] + F[:-2]) / (h1m * h1m)
        out[0] = (2.0 * F[0] - 5.0 * F[1] + 4.0 * F[2] - F[3]) / (h1m * h1m)
        out[-1] = (2.0 * F[-1] - 5.0 * F[-2] + 4.0 * F[-3] - F[-4]) / (h1m * h1m)
        return out

    q = sample.plasma["q"]
    v = [sample.plasma[f"v{i}"] for i in (1, 2, 3)]
    H = [sample.plasma[f"H{i}"] for i in (1, 2, 3)] if mhd else None
    res = {}
    for i in range(3):
        res[f"momentum_{i + 1}"] = rho * Dt(v[i]) - (wp * dtau(H[i]) if mhd else 0) + d(i, q)
    if mhd:
        for i in range(3):
            comp = Hhat[i] * div(v) if mode.model.is_compressible else 0
            res[f"induction_{i + 1}"] = Dt(H[i]) - wp * dtau(v[i]) + comp
    if mode.model.is_compressible:
        tot = q - Hhat[1] * H[1] - Hhat[2] * H[2] if mhd else q
        res["continuity"] = Dt(tot) + rho * c * c * div(v)
    else:
        res["divergence"] = div(v)
    if mhd:
        xi = sample.vacuum["xi"]
        res["magnetic_divergence"] = div(H)
        dtau2 = (np.roll(xi, -1, axis=1) - 2.0 * xi + np.roll(xi, 1, axis=1)) / (htau * htau)
        res["vacuum_laplace"] = d2(xi) + dtau2
    return {name: float(np.max(np.abs(r))) for name, r in res.items()}


# one mode per model; grids that are the mode's own, refined, minimal, with
# unequal row counts, or with very many tangential points
REFERENCE_MODES = [
    (M.IncompressibleEuler, EULER_STATE, OM, 100),
    (M.CompressibleEuler, BasicState(a_hat=1.0, a0_hat=0.3, c_hat=2.0), OM, 100),
    (M.IncompressibleMHD, ALIGNED_INC, OM, 400),
    (M.CompressibleMHD, ALIGNED_COMP, OM, 25),
]
REFERENCE_GRIDS = [None, "refined", (4, 4, 8), (301, 203, 24), (9, 9, 4096)]
EPS = np.finfo(float).eps


def assert_matches_whole_grid(mode, grid):
    """pde_residual_fd's interior residuals at t = 0 against
    whole_grid_residuals, both divided by the yardsticks pde_residual_fd uses."""
    yardsticks, rel = [], hadamard._rel  # interior ones first, in report order
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            hadamard, "_rel", lambda sup, *scales: yardsticks.append(scales) or rel(sup, *scales)
        )
        report = pde_residual_fd(mode, grid, 0.0)
    want = whole_grid_residuals(mode, grid)
    assert list(report.interior) == list(want)
    # a centred difference over a phase step n h = 2 pi / mt loses
    # eps / (n h) of its terms' size to rounding, a second difference
    # eps / (n h)^2: at 4096 tangential points that floor, not the
    # factorisation, sets how far the two computations can differ
    kh = 2.0 * math.pi / grid.points_per_direction[2]
    for (name, got), scales in zip(report.interior.items(), yardsticks):
        ref = rel(want[name], *scales)
        floor = 16.0 * EPS / kh ** (2 if name == "vacuum_laplace" else 1)
        label = f"{name} on {grid.points_per_direction}: {got!r} vs {ref!r}"
        if max(got, ref) > 1e-12:
            assert abs(got - ref) <= 1e-9 * ref + floor, label


class TestWholeGridReference:
    @pytest.mark.parametrize("model,state,omega,n", REFERENCE_MODES)
    def test_interior_residuals_match_whole_grid_stencils(self, model, state, omega, n):
        mode = top_mode(model, state, omega, n)
        base = grid_for_mode(mode)
        for points in REFERENCE_GRIDS:
            if points is None:
                grid = base
            elif points == "refined":
                grid = base.refined()
            else:
                grid = grid_for_mode(mode, points)
            assert_matches_whole_grid(mode, grid)

    def test_underflowing_decay_factor(self):
        # on these depths the decay factor underflows to 0 a row or more away
        # from the interface, so the decay ratio exp(n lambda h) is 0: the
        # stencils must read samples, never divide by that ratio
        euler = top_mode(M.IncompressibleEuler, EULER_STATE, OM, 25)
        mhd = top_mode(M.CompressibleMHD, ALIGNED_COMP, OM, 25)
        grids = [
            (euler, GridSpec(1e6, 1.0, (4, 4, 8), 2 * math.pi / 25)),
            (mhd, replace(grid_for_mode(mhd), x1_extent_minus=1e6)),
            (mhd, replace(grid_for_mode(mhd, (4, 4, 8)), x1_extent_minus=1e6)),
        ]
        for mode, grid in grids:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = pde_residual_fd(mode, grid, 0.0)
            assert all(math.isfinite(v) for v in report.interior.values())
            assert_matches_whole_grid(mode, grid)


class TestGrowthRatio:
    def test_log_ratio_is_exactly_n_re_s_t(self):
        t = 1.0
        entries = growth_ratio(M.IncompressibleEuler, EULER_STATE, OM, [25, 100, 400], t)
        for entry in entries:
            root = dominant_root(
                solve_dispersion(M.IncompressibleEuler, EULER_STATE, OM, entry.n)
            )
            assert entry.log_ratio == entry.n * root.s.real * t
            assert entry.admissible_found
        logs = [e.log_ratio for e in entries]
        assert logs == sorted(logs) and logs[0] > 0

    def test_ratio_matches_field_evaluation(self):
        entries = growth_ratio(M.IncompressibleEuler, EULER_STATE, OM, [25], 1.0)
        mode = top_mode(M.IncompressibleEuler, EULER_STATE, OM, 25)
        grid = grid_for_mode(mode)
        measured = np.max(np.abs(evaluate_field(mode, grid, 1.0).plasma["q"])) / np.max(
            np.abs(evaluate_field(mode, grid, 0.0).plasma["q"])
        )
        assert math.log(measured) == pytest.approx(entries[0].log_ratio, abs=1e-12)

    def test_overflowing_ratio_keeps_finite_log(self):
        entries = growth_ratio(M.IncompressibleEuler, EULER_STATE, OM, [400], 1000.0)
        assert math.isinf(entries[0].ratio)
        assert entries[0].log_ratio == pytest.approx(400 * 0.05 * 1000.0, rel=1e-9)

    def test_stable_state_is_flagged(self):
        entries = growth_ratio(
            M.IncompressibleEuler, BasicState(a_hat=-1.0), OM, [10, 100], 2.0
        )
        for entry in entries:
            assert not entry.admissible_found
            assert entry.ratio == 1.0 and entry.log_ratio == 0.0

    def test_reuses_the_solves_made_on_the_same_objects(self, monkeypatch):
        state, ns = BasicState(a_hat=1.0), (25, 100)
        tops = [dominant_root(solve_dispersion(M.IncompressibleEuler, state, OM, n)) for n in ns]
        monkeypatch.setattr(roots_module, "_poly_candidates", None)  # a new solve would raise
        entries = growth_ratio(M.IncompressibleEuler, state, OM, list(ns), 1.0)
        assert [e.log_ratio for e in entries] == [n * top.s.real for n, top in zip(ns, tops)]

    def test_decreasing_n_list_is_rejected(self):
        with pytest.raises(ValueError):
            growth_ratio(M.IncompressibleEuler, EULER_STATE, OM, [100, 50], 1.0)

    @pytest.mark.parametrize(
        "n_list", [[100, 25], [25, 25], [0, 25], [-3], [], [25.5, 100], [25, math.nan]]
    )
    def test_bad_n_list_is_a_domain_error(self, n_list):
        with pytest.raises(DomainError, match="strictly increasing with every n >= 1"):
            growth_ratio(M.IncompressibleEuler, EULER_STATE, OM, n_list, 1.0)
