"""Quick tests of the benchmark's checks: each must pass on the program's
real output and fail on a wrong one.

Run from the repository root:  python3 -m pytest -q bench/tests
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostref  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from mhdlab import roots  # noqa: E402
from mhdlab.domain import BasicState, ModelKind, Wavevector  # noqa: E402
from oracle import CheckError  # noqa: E402

EULER = {"rho": 2.0, "c": 1.5, "a": 1.0, "a0": 0.3, "a1": 0.0, "Hp": (0.0, 0.0), "Hv": (0.0, 0.0)}
MHD = {"rho": 1.0, "c": 2.0, "a": 1.0, "a0": 0.2, "a1": 0.7, "Hp": (0.6, 0.8), "Hv": (1.2, 1.6)}


def _state(sd):
    return BasicState(
        rho_hat=sd["rho"], c_hat=sd["c"], a_hat=sd["a"], a0_hat=sd["a0"],
        a1_hat=sd["a1"], H_plasma=sd["Hp"], H_vacuum=sd["Hv"],
    )


def _euler_root(n):
    # n s^2 - a0 s - a/rho = 0, growing branch
    a0, K = EULER["a0"], EULER["a"] / EULER["rho"]
    return complex((a0 + math.sqrt(a0 * a0 + 4 * n * K)) / (2 * n))


# ----------------------------------------------------------------- roots


def test_closed_form_root_passes_and_perturbed_root_fails():
    s = _euler_root(100)
    oracle.check_root("IncompressibleEuler", EULER, (1.0, 0.0), 100, s, True)
    with pytest.raises(CheckError, match="residual"):
        oracle.check_root("IncompressibleEuler", EULER, (1.0, 0.0), 100, s * (1 + 1e-6), True)


def test_wrong_admissibility_flag_fails():
    s = _euler_root(100)
    with pytest.raises(CheckError, match="admissible"):
        oracle.check_root("IncompressibleEuler", EULER, (1.0, 0.0), 100, s, False)


def test_root_next_to_a_branch_point_is_held_to_the_rounding_floor():
    # a solver root beside the zero of D(s) = alpha s^2 + beta: its exact
    # residual (1.1e-10) is below what rounding s to double leaves (4e-10)
    sd = {"rho": 2.7288687475591527, "c": 1.1393015905445836, "a": 0.9154440695778928,
          "a0": 0.13287523538832646, "a1": -1.10573297597888,
          "Hp": (-1.7198610737918103, -0.21911727469658107),
          "Hv": (-0.4091600008828099, 0.5084175619345574)}
    omega = (0.768284207008071, 0.6401088792244485)
    s = complex(-1.1758236589348134e-09, 0.6507471002354006)
    oracle.check_root("CompressibleMHD", sd, omega, 1000, s, False)
    with pytest.raises(CheckError, match="residual"):
        oracle.check_root("CompressibleMHD", sd, omega, 1000, s * (1 + 1e-9), False)


@pytest.mark.parametrize("model", oracle.MODELS)
def test_solver_roots_pass_the_transcribed_determinants(model):
    sd = MHD if model in oracle.MHD_MODELS else EULER
    omega = (0.6, -0.3)
    for root in roots.solve_dispersion(ModelKind(model), _state(sd), Wavevector(*omega), 1000):
        oracle.check_root(model, sd, omega, 1000, root.s, root.admissible)


@pytest.mark.parametrize("model", oracle.MODELS)
def test_mpmath_oracle_matches_solver_and_catches_missing_and_extra_roots(model):
    sd = MHD if model in oracle.MHD_MODELS else EULER
    omega = (1.0, 0.0)
    n = 10_000
    found = [r.s for r in roots.solve_dispersion(ModelKind(model), _state(sd), Wavevector(*omega), n)]
    expected = oracle.oracle_roots(model, sd, omega, n)
    oracle.compare_root_sets(found, expected, model)
    with pytest.raises(CheckError, match="missing"):
        oracle.compare_root_sets(found[1:], expected, model)
    with pytest.raises(CheckError, match="extra"):
        oracle.compare_root_sets(found + [found[0] * (1 + 1e-4) + 1e-3], expected, model)


def test_only_roots_beyond_double_precision_may_be_missing():
    # along the witness both field projections round to ~1e-17 instead of 0:
    # the exact root near s = 0 is out of a double-precision solver's reach
    sd = dict(MHD, a=-1.0, Hp=(1.1, 0.35), Hv=(1.65, 0.525))
    omega = oracle.witness(sd)
    n = 100
    expected = oracle.oracle_roots("IncompressibleMHD", sd, omega, n)
    beyond = oracle.beyond_double("IncompressibleMHD", sd, omega, n, expected)
    tiny = [r for r in expected if abs(r) < 1e-20]
    regular = [r for r in expected if abs(r) > 1e-3]
    assert beyond == tiny and len(tiny) == 1 and len(regular) == 2
    oracle.compare_root_sets(regular, expected, "witness", beyond)
    with pytest.raises(CheckError, match="missing"):
        oracle.compare_root_sets(regular[1:], expected, "witness", beyond)
    with pytest.raises(CheckError, match="missing"):
        oracle.compare_root_sets(regular, expected, "witness")


def test_oracle_drops_roots_of_the_wrong_branch():
    # the squared CompressibleEuler polynomial has four roots, the
    # determinant on the principal branch only two
    poly_degree = len(oracle.cleared_polynomial("CompressibleEuler", EULER, (0.0, 0.0), 100)) - 1
    kept = oracle.oracle_roots("CompressibleEuler", EULER, (1.0, 0.0), 100)
    assert poly_degree == 4
    assert len(kept) == 2


# -------------------------------------------------------------- verdicts


def test_truth_table_follows_the_trichotomy():
    collinear = dict(MHD)
    skew = dict(MHD, Hv=(1.6, -1.2))
    assert oracle.expected_verdict("CompressibleMHD", collinear) == oracle.ILL
    assert oracle.expected_verdict("CompressibleMHD", skew) == oracle.NONE
    assert oracle.expected_verdict("IncompressibleMHD", dict(MHD, a=0.0)) == oracle.EXP
    assert oracle.expected_verdict("IncompressibleMHD", dict(MHD, a=0.0, a0=-0.2)) == oracle.NONE
    assert oracle.expected_verdict("IncompressibleEuler", dict(EULER, a=-1.0)) == oracle.NONE


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    wl = workloads.VerdictSweep(seed=7, passes=1)
    workdir = tmp_path_factory.mktemp("sweep")
    wl.prepare(workdir)
    return wl, [wl.run_pass(0)]


def test_sweep_output_passes_its_checks(sweep_run):
    wl, results = sweep_run
    assert results[0].failed == 0
    wl.check(results)


def _sweep_text(wl):
    return (wl.workdir / "sweep0.jobs1.csv").read_text()


def test_swapped_verdict_row_fails(sweep_run):
    wl, _ = sweep_run
    lines = _sweep_text(wl).splitlines()
    swap = {"IllPosed": "NoHadamardGrowth", "NoHadamardGrowth": "IllPosed",
            "ExponentiallyUnstable": "NoHadamardGrowth"}
    cells = lines[5].split(",")
    cells[3] = swap[cells[3]]
    lines[5] = ",".join(cells)
    with pytest.raises(CheckError, match="expected verdict"):
        workloads.check_sweep_csv("\n".join(lines), wl.inputs[0]["base"], wl.inputs[0]["axes"])


def test_rows_out_of_order_or_missing_fail(sweep_run):
    wl, _ = sweep_run
    lines = _sweep_text(wl).splitlines()
    base, axes = wl.inputs[0]["base"], wl.inputs[0]["axes"]
    swapped = lines[:1] + [lines[2], lines[1]] + lines[3:]
    with pytest.raises(CheckError, match="grid order"):
        workloads.check_sweep_csv("\n".join(swapped), base, axes)
    with pytest.raises(CheckError, match="rows"):
        workloads.check_sweep_csv("\n".join(lines[:-1]), base, axes)


def test_differing_jobs_outputs_fail(sweep_run):
    wl, results = sweep_run
    path = wl.workdir / "sweep0.jobsN.csv"
    original = path.read_bytes()
    try:
        path.write_bytes(original.replace(b"true", b"false", 1))
        with pytest.raises(CheckError, match="differ"):
            wl.check(results)
    finally:
        path.write_bytes(original)


# ------------------------------------------------------------------ fits


def test_fit_coefficient_check():
    n_grid = workloads.FIT_N_GRID
    s1 = oracle.series("CompressibleMHD", MHD)[0]
    oracle.check_fit("CompressibleMHD", MHD, n_grid, 0.501, s1 * 1.01)
    with pytest.raises(CheckError, match="coefficient"):
        oracle.check_fit("CompressibleMHD", MHD, n_grid, 0.501, s1 * 1.5)
    with pytest.raises(CheckError, match="exponent"):
        oracle.check_fit("CompressibleMHD", MHD, n_grid, 0.6, s1)


def test_real_fit_is_within_the_series_bound():
    from mhdlab import classifier

    out = classifier.numeric_classify(
        ModelKind.CompressibleMHD, _state(MHD), workloads.FIT_N_GRID, [Wavevector(1.0, 0.0)]
    )
    oracle.check_fit("CompressibleMHD", MHD, workloads.FIT_N_GRID, out.evidence.exponent, out.evidence.coefficient)


# ----------------------------------------------------------------- modes


def test_fd_order_check():
    oracle.check_fd_orders({"momentum_1": 4e-6, "zero": 1e-16}, {"momentum_1": 1e-6, "zero": 3e-16}, "ok")
    with pytest.raises(CheckError, match="order"):
        oracle.check_fd_orders({"momentum_1": 1e-3}, {"momentum_1": 1e-3}, "stalled")
    with pytest.raises(CheckError, match="order"):
        oracle.check_fd_orders({"momentum_1": 1.6e-5}, {"momentum_1": 1e-6}, "too fast")


def test_boundary_and_growth_checks():
    oracle.check_boundary({"kinematic": 1e-15}, "ok")
    with pytest.raises(CheckError, match="boundary"):
        oracle.check_boundary({"kinematic": 1e-8}, "bad")
    oracle.check_growth([1.0, 2.0, 4.0], "ok")
    with pytest.raises(CheckError, match="increase"):
        oracle.check_growth([1.0, 2.0, 2.0], "flat")


def test_mode_pass_passes_its_checks():
    wl = workloads.ModeCheck(seed=3, passes=1)
    results = [wl.run_pass(0)]
    assert results[0].failed == 0
    wl.check(results)


def test_root_fit_pass_passes_its_checks():
    wl = workloads.RootFit(seed=3, passes=1)
    results = [wl.run_pass(0)]
    assert results[0].failed == 0
    wl.check(results)


# --------------------------------------------------------------- tracing


def test_tracer_counts_calls_and_restores_the_package():
    from mhdlab import classifier, dispersion

    original = roots.dispersion_eval
    tracer = layers.Tracer()
    with layers.installed(tracer):
        assert roots.dispersion_eval is not original
        roots.solve_dispersion(ModelKind.CompressibleMHD, _state(MHD), Wavevector(1.0, 0.0), 100)
        classifier.classify_frozen(ModelKind.CompressibleMHD, _state(MHD))
    assert roots.dispersion_eval is original is dispersion.dispersion_eval
    assert tracer.calls["roots.solve_dispersion"] == 1
    assert tracer.calls["classifier.classify_frozen"] == 1
    assert tracer.nested[("roots.newton_refine", "dispersion.dispersion_eval")] > 0
    assert tracer.counts["states_built"] == 2
    assert tracer.self_time["roots.solve_dispersion"] < tracer.total["roots.solve_dispersion"]


# ----------------------------------------------------------- entry point


def test_pass_rate_is_taken_at_reference_speed():
    import run

    passes = [workloads.PassResult(0.30, 48, 0), workloads.PassResult(0.34, 48, 0)]
    at_ref = [hostref.REF_S] * 3
    assert run.pass_rate(passes, at_ref) == pytest.approx(48 / 0.32)
    # the same passes on a host running everything twice as slowly
    slower = [workloads.PassResult(2 * r.seconds, r.items, 0) for r in passes]
    assert run.pass_rate(slower, [2 * t for t in at_ref]) == pytest.approx(48 / 0.32)
    # each pass is scaled by the references on either side of it
    assert run.pass_rate(passes[:1], [hostref.REF_S, 3 * hostref.REF_S]) == pytest.approx(2 * 48 / 0.30)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "root_fit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_run_prints_the_result_last():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verdict_sweep", "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"items_per_s", "setup_s", "peak_rss_mb"}


def test_traced_run_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mode_check", "--seed", "2", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
