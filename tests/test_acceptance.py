"""End-to-end acceptance checks for the stability toolkit.

Each test exercises one headline claim at its stated tolerance and prints a
single pass/fail line, so a bare ``pytest -v tests/test_acceptance.py`` doubles
as the acceptance report. The checks are:

1. verdict truth table over seeded random states,
2. sqrt root-scaling law with explicit coefficient on the ill-posed family,
3. 1/n decay of the growth rate on the non-collinear (stable) side,
4. imaginary-axis confinement of the leading-order frequencies,
5. constructed-mode verification: FD residual convergence, boundary residuals,
   and monotone unbounded growth factors,
6. compressible -> incompressible determinant consistency at large sound speed,
7. vacuum energy identity quadrature gap and its refinement behaviour,
8. byte-identical parameter sweeps regardless of worker count.

Every check carries a wall-clock budget measured with time.perf_counter.
"""

import math
import time

import numpy as np

from mhdlab.classifier import classify_frozen
from mhdlab.cli import main
from mhdlab.domain import BasicState, ModelKind, Verdict, Wavevector, w_pair
from mhdlab.errors import FitError, NotARootError
from mhdlab.hadamard import build_mode, grid_for_mode, growth_ratio, pde_residual_fd
from mhdlab.roots import dominant_root, fit_scaling, scan_s0, solve_dispersion
from mhdlab.vacuum_green import green_identity_check

N_GRID = (100, 1000, 10000, 100000)
MODELS = (
    ModelKind.IncompressibleEuler,
    ModelKind.CompressibleEuler,
    ModelKind.IncompressibleMHD,
    ModelKind.CompressibleMHD,
)


def _run(num, budget, body):
    """Run one criterion body, enforce its runtime budget, print the verdict."""
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {num}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        print(f"criterion {num}: FAIL (runtime {elapsed:.2f} s, budget {budget:g} s)")
        raise AssertionError(f"runtime {elapsed:.3f} s exceeds the {budget:g} s budget")
    print(f"criterion {num}: PASS ({elapsed:.3f} s)")


def _signed_or_zero(rng, kind):
    # kind 0 -> exactly zero, 1 -> positive, 2 -> negative
    if kind == 0:
        return 0.0
    mag = float(rng.uniform(1e-3, 3.0))
    return mag if kind == 1 else -mag


def test_criterion_01_truth_table():
    def body():
        rng = np.random.default_rng(42)
        mismatches = []
        for _ in range(1000):
            model = MODELS[int(rng.integers(0, 4))]
            want_collinear = bool(rng.integers(0, 2))
            a = _signed_or_zero(rng, int(rng.integers(0, 3)))
            a0 = _signed_or_zero(rng, int(rng.integers(0, 3)))
            kw = dict(a_hat=a, a0_hat=a0, rho_hat=float(rng.uniform(0.3, 3.0)))
            if model.is_compressible:
                kw["c_hat"] = float(rng.uniform(0.5, 3.0))
            if model.is_mhd:
                kw["a1_hat"] = float(rng.uniform(-1.0, 1.0))
                mag = float(rng.uniform(0.3, 2.0))
                ang = float(rng.uniform(0.0, 2.0 * math.pi))
                hp = (mag * math.cos(ang), mag * math.sin(ang))
                if want_collinear:
                    fac = float(rng.uniform(0.3, 2.0))
                    if rng.integers(0, 2):
                        fac = -fac
                    hv = (fac * hp[0], fac * hp[1])
                else:
                    # keep the crossing angle away from the collinearity tolerance
                    dang = float(rng.uniform(0.15, math.pi - 0.15))
                    vmag = float(rng.uniform(0.3, 2.0))
                    hv = (vmag * math.cos(ang + dang), vmag * math.sin(ang + dang))
                kw["H_plasma"], kw["H_vacuum"] = hp, hv
                expect_collinear = want_collinear
            else:
                expect_collinear = True
            state = BasicState(**kw)
            result = classify_frozen(model, state)
            if expect_collinear and a > 0:
                want = Verdict.IllPosed
            elif expect_collinear and a == 0.0 and a0 > 0:
                want = Verdict.ExponentiallyUnstable
            else:
                want = Verdict.NoHadamardGrowth
            if result.verdict is not want or result.collinear != expect_collinear:
                mismatches.append((model, state, result.verdict, want))
        assert mismatches == [], f"{len(mismatches)} misclassifications: {mismatches[:3]}"

    _run(1, 1.0, body)


def test_criterion_02_root_scaling_law():
    def body():
        witness = Wavevector(0.0, 1.0)  # perpendicular to the aligned fields
        for model in MODELS:
            for a_hat in (0.25, 1.0, 4.0):
                for rho_hat in (1.0, 4.0):
                    kw = dict(a_hat=a_hat, rho_hat=rho_hat)
                    if model.is_compressible:
                        kw["c_hat"] = 2.0
                    if model.is_mhd:
                        kw["H_plasma"] = (1.0, 0.0)
                        kw["H_vacuum"] = (2.0, 0.0)
                    state = BasicState(**kw)
                    fit = fit_scaling(model, state, witness, N_GRID)
                    target = math.sqrt(a_hat / rho_hat)
                    assert abs(fit.exponent - 0.5) <= 0.01, (model, a_hat, rho_hat, fit)
                    assert abs(fit.coefficient / target - 1.0) <= 0.01, (
                        model, a_hat, rho_hat, fit,
                    )

    _run(2, 10.0, body)


def test_criterion_03_stable_side_decay():
    def body():
        rng = np.random.default_rng(777)
        omega = Wavevector(1.0, 0.0)
        fitted = 0
        for k in range(40):
            model = (ModelKind.IncompressibleMHD, ModelKind.CompressibleMHD)[k % 2]
            hp = (float(rng.uniform(0.4, 2.0)), 0.0)
            ang = float(rng.uniform(0.3, math.pi - 0.3))
            vmag = float(rng.uniform(0.4, 2.0))
            hv = (vmag * math.cos(ang), vmag * math.sin(ang))
            state = BasicState(
                a_hat=float(rng.uniform(-2.0, 2.0)),
                a0_hat=float(rng.uniform(-1.0, 1.0)),
                a1_hat=float(rng.uniform(-1.0, 1.0)),
                c_hat=2.0,
                rho_hat=float(rng.uniform(0.5, 2.0)),
                H_plasma=hp,
                H_vacuum=hv,
            )
            wp, wm = w_pair(state, omega)
            if wp * wp + wm * wm < 0.1:
                continue
            rates = []
            try:
                for n in N_GRID:
                    adm = [r for r in solve_dispersion(model, state, omega, n)
                           if r.admissible]
                    if not adm:
                        raise FitError("no admissible root at this n")
                    rates.append(max(r.s.real for r in adm))
                fit = fit_scaling(model, state, omega, N_GRID)
            except (FitError, NotARootError):
                continue
            fitted += 1
            # Re s <= C/n with one uniform constant across the family
            assert max(n * r for n, r in zip(N_GRID, rates)) <= 5.0, (state, rates)
            assert fit.exponent >= 0.9, (state, fit)
        assert fitted >= 20, f"only {fitted} states admitted a full fit"

    _run(3, 10.0, body)


def test_criterion_04_leading_order_scan():
    def body():
        rng = np.random.default_rng(4242)
        worst = 0.0
        samples = 0
        while samples < 256:
            state = BasicState(
                a_hat=float(rng.uniform(-2.0, 2.0)),
                a0_hat=float(rng.uniform(-1.0, 1.0)),
                a1_hat=float(rng.uniform(-1.0, 1.0)),
                c_hat=float(rng.uniform(0.5, 3.0)),
                rho_hat=float(rng.uniform(0.3, 3.0)),
                H_plasma=(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0))),
                H_vacuum=(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0))),
            )
            directions = []
            while len(directions) < 8:
                theta = float(rng.uniform(0.0, 2.0 * math.pi))
                omega = Wavevector(math.cos(theta), math.sin(theta))
                wp, wm = w_pair(state, omega)
                if abs(wp) < 1e-3 and abs(wm) < 1e-3:
                    continue
                directions.append(omega)
            report = scan_s0(state, directions, 1e-8)
            assert report.passed, (state, report)
            worst = max(worst, report.max_re_s0)
            samples += len(directions)
        assert worst <= 1e-8, worst

    _run(4, 5.0, body)


def test_criterion_05_mode_verification():
    def body():
        # collinear fields along (0.6, 0.8) with a_hat > 0: ill-posed state;
        # modes taken along the perpendicular witness direction
        state = BasicState(a_hat=1.0, a0_hat=0.2, a1_hat=0.7, c_hat=2.0,
                           H_plasma=(0.6, 0.8), H_vacuum=(1.2, 1.6))
        omega = Wavevector(-0.8, 0.6)
        model = ModelKind.CompressibleMHD
        assert classify_frozen(model, state).verdict is Verdict.IllPosed

        n_list = (25, 100, 400)
        for n in n_list:
            root = dominant_root(solve_dispersion(model, state, omega, n))
            assert root is not None
            mode = build_mode(model, state, omega, root)
            grid = grid_for_mode(mode)
            base = pde_residual_fd(mode, grid, 0.0)
            fine = pde_residual_fd(mode, grid.refined(), 0.0)
            for equation, coarse_value in base.interior.items():
                fine_value = fine.interior[equation]
                if max(coarse_value, fine_value) < 1e-13:
                    # analytically zero balance at this direction; FD sees only
                    # roundoff, there is no truncation error to converge
                    continue
                order = math.log2(coarse_value / fine_value)
                assert 1.7 <= order <= 2.3, (n, equation, coarse_value, fine_value)
            assert base.worst_boundary() <= 1e-10, (n, base.boundary)

        entries = growth_ratio(model, state, omega, list(n_list), 1.0)
        logs = []
        for entry in entries:
            assert entry.admissible_found
            root = dominant_root(solve_dispersion(model, state, omega, entry.n))
            assert abs(entry.log_ratio - entry.n * root.s.real * 1.0) <= 1e-12
            logs.append(entry.log_ratio)
        assert logs[0] < logs[1] < logs[2], logs

    _run(5, 30.0, body)


def test_criterion_06_incompressible_limit():
    from mhdlab.dispersion import mode_symbol

    def body():
        rng = np.random.default_rng(2024)
        omega = Wavevector(1.0, 0.0)
        accepted = 0
        worst = 0.0
        while accepted < 100:
            mhd = bool(rng.integers(0, 2))
            inc_model = ModelKind.IncompressibleMHD if mhd else ModelKind.IncompressibleEuler
            comp_model = ModelKind.CompressibleMHD if mhd else ModelKind.CompressibleEuler
            radius = float(rng.uniform(0.2, 2.0))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            s = radius * complex(math.cos(theta), math.sin(theta))
            kw = dict(
                a_hat=float(rng.uniform(-2.0, 2.0)),
                a0_hat=float(rng.uniform(-1.0, 1.0)),
                rho_hat=float(rng.uniform(0.5, 2.0)),
            )
            if mhd:
                kw["a1_hat"] = float(rng.uniform(-1.0, 1.0))
                kw["H_plasma"] = (float(rng.uniform(-1.5, 1.5)),
                                  float(rng.uniform(-1.5, 1.5)))
                kw["H_vacuum"] = (float(rng.uniform(-1.5, 1.5)),
                                  float(rng.uniform(-1.5, 1.5)))
            n = int(rng.integers(1, 50))
            inc_state = BasicState(**kw)
            comp_state = BasicState(**kw, c_hat=1e6)
            try:
                inc_value = mode_symbol(inc_model, inc_state, omega).value(s, n)[0]
                comp_value = mode_symbol(comp_model, comp_state, omega).value(s, n)[0]
            except ValueError:
                continue  # resonance or branch degeneracy; resample
            scale = mode_symbol(inc_model, inc_state, omega).scale(s, n)
            if abs(inc_value) < 1e-6 * scale:
                continue  # too close to a root for a relative comparison
            worst = max(worst, abs(comp_value - inc_value) / abs(inc_value))
            accepted += 1
        assert worst < 1e-4, worst

    _run(6, 1.0, body)


def test_criterion_07_vacuum_energy_identity():
    def body():
        k = 2.0 * math.pi
        coarse = green_identity_check(k, 256)
        fine = green_identity_check(k, 512)
        ratio = coarse.relative_gap / fine.relative_gap
        assert 3.2 <= ratio <= 4.8, (coarse.relative_gap, fine.relative_gap, ratio)
        assert coarse.relative_gap <= 1e-8, coarse.relative_gap

    _run(7, 1.0, body)


def test_criterion_08_sweep_determinism(tmp_path, monkeypatch):
    def body():
        monkeypatch.delenv("MHDLAB_JOBS", raising=False)
        config = tmp_path / "sweep.ini"
        config.write_text(
            "model = IncompressibleMHD\n"
            "rho_hat = 1.0\n"
            "H_plasma_2 = 1.0\n"
            "H_vacuum_2 = 2.0\n"
        )
        grid = "a_hat=-2:2:11;a0_hat=-1:1:11"
        out_serial = tmp_path / "serial.csv"
        out_parallel = tmp_path / "parallel.csv"
        code = main(["sweep", str(config), "--grid", grid,
                     "--jobs", "1", "--out", str(out_serial)])
        assert code == 0
        code = main(["sweep", str(config), "--grid", grid,
                     "--jobs", "8", "--out", str(out_parallel)])
        assert code == 0
        serial = out_serial.read_bytes()
        assert serial == out_parallel.read_bytes()
        assert serial.count(b"\n") == 122  # header plus 11 x 11 rows

    _run(8, 5.0, body)
