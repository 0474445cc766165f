"""Configuration parsing and the command-line front end."""
import collections
import gc
import hashlib
import importlib
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import subprocess_env
from mhdlab import cli
from mhdlab.cli import fmt, main
from mhdlab.classifier import SweepSpec, sweep
from mhdlab.config import parse_config_text, load_config, parse_bool, parse_grid
from mhdlab.domain import STATE_FIELDS, BasicState, ModelKind
from mhdlab.errors import ConfigError, DomainError

ILLPOSED_INI = """\
# aligned fields, positive jump coefficient
model = IncompressibleMHD
a_hat = 1.0
H_plasma_2 = 1.0
H_vacuum_2 = 2.0
"""

EULER_INI = """\
model = IncompressibleEuler
a_hat = 1.0
"""
EULER = EULER_INI.encode()

README_INI = """\
model = CompressibleMHD
c_hat = 2.0
a_hat = 1.0
a0_hat = 0.2
a1_hat = 0.7
H_plasma_2 = 0.6
H_plasma_3 = 0.8
H_vacuum_2 = 1.2
H_vacuum_3 = 1.6
"""


# the benchmark's base: tangential fields collinear at H_vacuum_3 = 1.0
SWEEP_MHD_INI = """\
model = CompressibleMHD
rho_hat = 2.0
c_hat = 1.5
a1_hat = 0.3
H_plasma_2 = 1.0
H_plasma_3 = 0.5
H_vacuum_2 = 2.0
"""


def benchmark_shaped_grid() -> str:
    """21 a_hat x 20 a0_hat x 20 H_vacuum_3 values in the benchmark's shape, each
    axis shuffled: a_hat of both signs with one exact 0, a0_hat of both signs,
    and one H_vacuum_3 (1.0) that makes SWEEP_MHD_INI's fields collinear."""
    rng = np.random.default_rng(4900)
    axes = {
        "a_hat": rng.permutation([0.0, *rng.uniform(-4.0, 4.0, 20)]),
        "a0_hat": rng.uniform(-2.0, 2.0, 20),
        "H_vacuum_3": rng.permutation([1.0, *rng.uniform(-3.0, 3.0, 19)]),
    }
    return ";".join(
        f"{name}={','.join(repr(float(v)) for v in values)}" for name, values in axes.items()
    )


# (config, arguments after it, exit code, CSV byte count, CSV sha256, stderr,
# {warning text: count}) of `mhdlab sweep`, each pinned as it was written
# before sweeps were decided by row class, or by axis parts where a case says so
NEAR_ZERO = "a_hat={!r} is below the zero-detection threshold; classifying as the a = 0 case"
SWEEP_PINS = {
    "readme": (
        README_INI,
        ["--grid", "a_hat=-2:2:11;a0_hat=-1:1:11"],
        (0, 5831, "b8c3ea13633b910b92ea9cb1e8ee166b3a8ddec5d1338c213a7f174036b85d01", "", {}),
    ),
    "benchmark-shaped": (
        SWEEP_MHD_INI,
        ["--grid", benchmark_shaped_grid()],
        (0, 677332, "cb578eea9267724199cf2e755f75e09b6b5134946526b52042cd058c323933eb", "", {}),
    ),
    "near-zero-outer": (
        ILLPOSED_INI,
        ["--grid", "a_hat=-1,1e-13,0,-0.0,-1e-300,1;a0_hat=-1,-0.0,0,1;H_vacuum_3=0,-0.0,0.5"],
        (
            0, 2256, "8b725f3779e3143266c6662225423578569808e7d739a2ca326118d1f63efda0", "",
            {NEAR_ZERO.format(1e-13): 12, NEAR_ZERO.format(-1e-300): 12},
        ),
    ),
    "near-zero-last": (
        ILLPOSED_INI,
        ["--grid", "a0_hat=-1,0,1;H_vacuum_3=0,0.5,0;a_hat=-1,1e-13,0,-1e-300,2e-12,1"],
        (
            0, 1695, "64de3c33d1cb8bbe4f52a9f4a01e96e545da417bcdf28c475c68ab246eff4e30", "",
            {NEAR_ZERO.format(1e-13): 9, NEAR_ZERO.format(-1e-300): 9},
        ),
    ),
    "fluid": (
        "model = CompressibleEuler\nrho_hat = 2.0\n",
        ["--grid", "a_hat=-3:3:9;a0_hat=-2:2.5:10"],
        (0, 2402, "349565c81420522f331305e07463e2ef86553890ea5ba853df7acdff2947354f", "", {}),
    ),
    "fluid-field-axis": (
        EULER_INI,
        ["--grid", "a_hat=1,-1;H_vacuum_3=0,-0.0,0.5"],
        (
            1, None, None,
            "error: IncompressibleEuler ignores magnetic fields; set H_plasma and H_vacuum to zero\n",
            {},
        ),
    ),
    "rho-c-outer": (
        SWEEP_MHD_INI + "a_hat = 0.25\n",
        ["--grid", "rho_hat=0.5:4:5;c_hat=1:3:4;H_vacuum_3=-3:3:7"],
        (0, 6208, "7c76a2dc51416ec25fdd80b1989f9420efd07847a083bd618b12dce5b9d3e607", "", {}),
    ),
    # pinned before sweeps were decided by axis parts: rows of signed-zero
    # fields, each with a near-zero a_hat point, and a grid of field pairs alone
    "field-outer-near-zero-last": (
        ILLPOSED_INI,
        ["--grid", "H_vacuum_3=0,-0.0,0.5,1.6,-0.0,0;a_hat=-2,-1e-13,0,-0.0,0.5,1,2"],
        (
            0, 1226, "1f8aaf44032001d95e4dfed96ba2f065002057cb8537ac5492735dd1e07461c5", "",
            {NEAR_ZERO.format(-1e-13): 6},
        ),
    ),
    "field-only": (
        SWEEP_MHD_INI + "a_hat = 1.3\na0_hat = 0.2\n",
        ["--grid", "H_vacuum_2=-4:4:9;H_vacuum_3=-2:2:17"],
        (0, 5136, "cfa98d71ff79ee5cd64f3f1bc6afda27419542e4f32bb14d9440e7459fbb030f", "", {}),
    ),
    # Q's config: the rows at H_vacuum_2 = +-0.005 conflict with their fits
    "numeric-conflict-rows": (
        "model = IncompressibleMHD\na_hat = 1.0\na0_hat = 0.2\na1_hat = 0.7\n"
        "H_plasma_3 = 1.0\nH_vacuum_2 = 0.001\nH_vacuum_3 = 1.0\n",
        ["--numeric", "--grid", "H_vacuum_2=-0.01:0.01:5"],
        (3, 605, "8811cfe6783686905162e7cd66b9ac23ff2eb090efa71fbec635d99dca4e1931", "", {}),
    ),
}


def run_sweep(tmp_path, capsys, ini, argv_tail):
    """(exit code, CSV bytes or None, stderr, warnings) of one in-process sweep."""
    path = tmp_path / "base.ini"
    path.write_text(ini)
    out = tmp_path / "map.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sweep", str(path), *argv_tail, "--out", str(out)])
    data = out.read_bytes() if out.exists() else None
    return code, data, capsys.readouterr().err, caught


@pytest.fixture
def illposed_cfg(tmp_path):
    path = tmp_path / "illposed.ini"
    path.write_text(ILLPOSED_INI)
    return str(path)


@pytest.fixture
def euler_cfg(tmp_path):
    path = tmp_path / "euler.ini"
    path.write_text(EULER_INI)
    return str(path)


class TestConfigParsing:
    def test_full_config_round_trip(self):
        cfg = parse_config_text(
            "model = CompressibleMHD\n"
            "rho_hat = 2.0\n"
            "c_hat = 3.0\n"
            "a_hat = -1.5\n"
            "a0_hat = 0.25\n"
            "a1_hat = 0.5\n"
            "H_plasma_2 = 1.0\n"
            "H_plasma_3 = 0.5\n"
            "H_vacuum_2 = 2.0\n"
            "H_vacuum_3 = 1.0\n"
            "\n"
            "[roots]\n"
            "n = 10,100\n"
        )
        assert cfg.model is ModelKind.CompressibleMHD
        assert cfg.state.rho_hat == 2.0
        assert cfg.state.H_plasma == (1.0, 0.5)
        assert cfg.section("roots")["n"] == (10, 100)
        assert cfg.section("sweep") == {}

    def test_defaults_applied(self):
        cfg = parse_config_text("model = IncompressibleEuler\n")
        assert cfg.state.rho_hat == 1.0 and cfg.state.a_hat == 0.0

    def test_unknown_key_is_line_anchored(self):
        with pytest.raises(ConfigError, match=r"<config>:2: unknown key 'rho'"):
            parse_config_text("model = IncompressibleEuler\nrho = 2\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("model = IncompressibleEuler\n[plots]\nstyle = x\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'a_hat'"):
            parse_config_text("model = IncompressibleEuler\na_hat = 1\na_hat = 2\n")

    def test_missing_model_rejected(self):
        with pytest.raises(ConfigError, match="missing required key 'model'"):
            parse_config_text("a_hat = 1\n")

    def test_bad_model_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown model 'mhd'"):
            parse_config_text("model = mhd\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError, match="needs a number"):
            parse_config_text("model = IncompressibleEuler\na_hat = big\n")

    def test_euler_with_magnetic_data_rejected(self):
        with pytest.raises(DomainError):
            parse_config_text("model = IncompressibleEuler\nH_plasma_2 = 1\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_empty_grid_chunks_are_skipped(self):
        assert parse_grid("a_hat=0,1;; a0_hat=2;") == parse_grid("a_hat=0,1;a0_hat=2")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("a_hat=0,1;a0_hat", "grid axis 'a0_hat' must look like name=lo:hi:count"),
            (" ; ;", "empty grid specification"),
        ],
    )
    def test_malformed_grid_spec(self, euler_cfg, capsys, spec, message):
        with pytest.raises(ConfigError) as exc:
            parse_grid(spec)
        assert str(exc.value) == message
        assert main(["sweep", euler_cfg, "--grid", spec]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (EULER_INI + "[roots]\nn = 10\n[roots]\n", ":5: duplicate section 'roots'"),
            (EULER_INI + "a0_hat 0.5\n", ":3: expected 'key = value', got 'a0_hat 0.5'"),
        ],
    )
    def test_malformed_line_is_line_anchored(self, tmp_path, capsys, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert str(exc.value) == "<config>" + message
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["classify", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}{message}\n"

    def test_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "undecodable.ini"
        path.write_bytes(EULER + b"# \xff\xfe\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        message = str(exc.value)
        assert message.startswith(f"config file not readable: {path} (")
        assert "can't decode byte 0xff" in message
        assert main(["classify", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_parse_bool(self):
        assert parse_bool("true") and parse_bool("1")
        assert not parse_bool("false") and not parse_bool("off")
        with pytest.raises(ConfigError):
            parse_bool("maybe")


LINSPACE_EDGES = [
    (0.0, 1.0, 1),
    (0.0, 1.0, 2),
    (-2.0, 2.0, 11),
    (2.5, 2.5, 7),  # lo == hi
    (-0.0, -0.0, 3),
    (3.0, -1.0, 9),  # hi < lo
    (0.0, 5e-324, 4),  # subnormal span: the step underflows to 0
    (-5e-324, 5e-324, 11),
    (1e-310, 2e-310, 1000),
    (-1e308, 1e308, 5),  # the span overflows to inf
    (0.0, math.inf, 3),
    (-math.inf, math.inf, 2),
    (math.inf, -math.inf, 1),
    (1.0, math.nan, 3),
]


def linspace_bytes(lo, hi, count):
    with np.errstate(all="ignore"):
        return np.linspace(lo, hi, count).tobytes()


@pytest.mark.parametrize("lo, hi, count", LINSPACE_EDGES)
def test_grid_axis_is_np_linspace_bit_for_bit(lo, hi, count):
    ((name, values),) = parse_grid(f"a_hat={lo!r}:{hi!r}:{count}")
    assert name == "a_hat" and len(values) == count
    expected = linspace_bytes(lo, hi, count)
    assert np.array(list(values)).tobytes() == expected
    # negative indices count from the end; past either end is an IndexError
    assert np.array([values[i] for i in range(-count, 0)]).tobytes() == expected
    for i in (count, -count - 1):
        with pytest.raises(IndexError):
            values[i]


def test_grid_axis_matches_np_linspace_on_random_doubles():
    rng = np.random.default_rng(1618)
    for _ in range(3000):
        bits = rng.integers(0, 2**64, size=2, dtype=np.uint64).view(np.float64).tolist()
        lo, hi = (float(repr(x)) for x in bits)  # as read from text: a NaN loses its payload
        if math.isnan(lo) and math.isnan(hi):
            continue  # which of two NaN ends np.linspace carries depends on count
        if rng.random() < 0.5:  # ordinary magnitudes as well as random bit patterns
            lo, hi = rng.uniform(-10.0, 10.0, size=2).tolist()
        count = int(rng.integers(1, 40))
        ((_, values),) = parse_grid(f"x={lo!r}:{hi!r}:{count}")
        assert np.array(list(values)).tobytes() == linspace_bytes(lo, hi, count)


def test_oversized_grid_fails_before_its_axis_is_built(tmp_path, capsys):
    path = tmp_path / "base.ini"
    path.write_text(EULER_INI)
    tracemalloc.start()
    try:
        code = main(["sweep", str(path), "--grid", "a_hat=0:1:3000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "sweep has 3000000 points, exceeding max_points=100000" in capsys.readouterr().err
    # 3,000,000 built floats take over 70 MB
    assert peak < 4e6


def test_grid_axis_count_beyond_an_index_is_a_config_error():
    with pytest.raises(ConfigError, match="count must be in 1.."):
        parse_grid(f"a_hat=0:1:{2**64}")


class TestClassifyCommand:
    def test_illposed_verdict_with_witness(self, illposed_cfg, capsys):
        assert main(["classify", illposed_cfg]) == 0
        out = capsys.readouterr().out
        assert "verdict: IllPosed" in out
        assert "witness: 0 1" in out

    def test_malformed_field_name_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("model = IncompressibleEuler\nrho = 2\n")
        assert main(["classify", str(path)]) == 1
        assert "rho" in capsys.readouterr().err

    def test_numeric_confirmation(self, illposed_cfg, capsys):
        assert main(["classify", illposed_cfg, "--numeric"]) == 0
        out = capsys.readouterr().out
        assert "numeric_verdict: IllPosed" in out
        exponent = float(out.split("fitted_exponent: ")[1].splitlines()[0])
        assert exponent == pytest.approx(0.5, abs=0.01)

    def test_numeric_conflict_exits_two(self, tmp_path, capsys):
        # the square-root window for a tiny positive jump opens past the
        # default n-grid, so the fitted exponent drifts off 1/2 and the
        # mandatory agreement check trips
        path = tmp_path / "tiny.ini"
        path.write_text(
            "model = IncompressibleMHD\na_hat = 0.003\na0_hat = 1.0\n"
            "H_plasma_2 = 1.0\nH_vacuum_2 = 2.0\n"
        )
        assert main(["classify", str(path), "--numeric"]) == 2
        assert "conflict" in capsys.readouterr().err

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP Q")
    def test_a_nearly_collinear_stable_state_is_confirmed(self, tmp_path):
        # the fields are 1e-3 rad from collinear and a > 0: no Hadamard growth;
        # the fit along (1, 0) over n = 1e2 .. 1e4 reads exponent 0.503: exit 2
        path = tmp_path / "near.ini"
        path.write_text(
            "model = IncompressibleMHD\na_hat = 1.0\nrho_hat = 1.0\na0_hat = 0.2\n"
            "a1_hat = 0.7\nH_plasma_2 = 0.0\nH_plasma_3 = 1.0\nH_vacuum_2 = 0.001\n"
            "H_vacuum_3 = 1.0\n"
        )
        assert main(["classify", str(path), "--numeric"]) == 0

    def test_numeric_classifies_once(self, tmp_path, capsys):
        # the near-zero a_hat warning comes from the one classification
        path = tmp_path / "tiny_a.ini"
        path.write_text("model = CompressibleMHD\na_hat = 1e-300\na0_hat = 1.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["classify", str(path), "--numeric"]) == 0
        zero = [w for w in caught if "zero-detection threshold" in str(w.message)]
        assert len(zero) == 1
        out = capsys.readouterr().out
        assert out.startswith("verdict: ExponentiallyUnstable\ncollinear: true\n")
        assert "numeric_verdict: ExponentiallyUnstable\n" in out


class TestRootsCommand:
    HEADER = (
        "n,omega2,omega3,re_s,im_s,re_lambda_plus,im_lambda_plus,"
        "re_lambda_minus,im_lambda_minus,residual,admissible,neutral"
    )

    def test_header_and_known_root(self, euler_cfg, capsys):
        assert main(["roots", euler_cfg, "--n", "100"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == self.HEADER
        admissible = [l for l in lines[1:] if l.split(",")[10] == "true"]
        assert len(admissible) == 1
        assert float(admissible[0].split(",")[3]) == pytest.approx(0.1, rel=1e-12)

    def test_default_n_grid(self, euler_cfg, capsys):
        assert main(["roots", euler_cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        seen = sorted({int(l.split(",")[0]) for l in lines})
        assert seen == [100, 1000, 10000]

    def test_zero_wavevector_exits_one(self, euler_cfg, capsys):
        assert main(["roots", euler_cfg, "--omega", "0", "0"]) == 1
        assert "zero wavevector" in capsys.readouterr().err

    def test_bad_mode_indices_are_domain_error_rows(self, euler_cfg, capsys):
        huge = "1" + "0" * 400
        assert main(["roots", euler_cfg, "--n", "0", huge, "100"]) == 3
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "# error: n=0 DomainError: mode index must be >= 1, got 0"
        assert lines[2] == f"# error: n={huge} DomainError: mode index {huge} overflows a float"
        assert lines[3].startswith("100,") and all(l.startswith("100,") for l in lines[3:])

    def test_compressible_euler_n_whose_square_overflows_is_a_domain_error_row(
        self, tmp_path, capsys
    ):
        path = tmp_path / "euler.ini"
        path.write_text("model = CompressibleEuler\na_hat = 1.0\n")
        huge = str(2 * 10**154)
        assert main(["roots", str(path), "--n", "100", huge]) == 3
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == (
            f"# error: n={huge} DomainError: n^2 overflows a float for mode index n=2e+154"
        )
        assert len(lines) > 2 and all(l.startswith("100,") for l in lines[1:-1])

    def test_compressible_mhd_n_whose_square_overflows_is_a_domain_error_row(
        self, tmp_path, capsys
    ):
        path = tmp_path / "mhd.ini"
        path.write_text("model = CompressibleMHD\na_hat = 1.0\nH_vacuum_2 = 1.0\n")
        huge = str(2 * 10**154)
        assert main(["roots", str(path), "--n", "100", huge]) == 3
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == (
            f"# error: n={huge} DomainError: n^2 overflows a float for mode index n=2e+154"
        )
        assert len(lines) > 2 and all(l.startswith("100,") for l in lines[1:-1])

    def test_underflowing_fast_speed_is_a_domain_error_row(self, tmp_path, capsys):
        path = tmp_path / "tiny_c.ini"
        path.write_text("model = CompressibleMHD\nc_hat = 1e-170\na_hat = 1.0\na0_hat = 0.5\n")
        assert main(["roots", str(path), "--n", "1", "7"]) == 3
        lines = capsys.readouterr().out.strip().splitlines()
        message = "DomainError: c_hat^2 + cA^2 underflows to 0 for c_hat=1e-170, cA=0"
        assert lines == [self.HEADER, f"# error: n=1 {message}", f"# error: n=7 {message}"]

    def test_output_file(self, euler_cfg, tmp_path):
        out = tmp_path / "roots.csv"
        assert main(["roots", euler_cfg, "--n", "50", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == self.HEADER


class TestSweepCommand:
    def test_truth_table_along_jump_coefficient(self, tmp_path, capsys):
        path = tmp_path / "base.ini"
        path.write_text(
            "model = IncompressibleMHD\na0_hat = 1.0\n"
            "H_plasma_2 = 1.0\nH_vacuum_2 = 2.0\n"
        )
        assert main(["sweep", str(path), "--grid", "a_hat=-1:1:3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "a_hat,verdict,collinear"
        verdicts = [l.split(",")[1] for l in lines[1:]]
        assert verdicts == ["NoHadamardGrowth", "ExponentiallyUnstable", "IllPosed"]

    def test_row_major_order_last_axis_fastest(self, tmp_path, capsys):
        path = tmp_path / "base.ini"
        path.write_text("model = IncompressibleEuler\n")
        assert main(
            ["sweep", str(path), "--grid", "a_hat=0:1:2;a0_hat=0:2:3"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        coords = [tuple(l.split(",")[:2]) for l in lines[1:]]
        assert coords == [
            ("0", "0"),
            ("0", "1"),
            ("0", "2"),
            ("1", "0"),
            ("1", "1"),
            ("1", "2"),
        ]

    def test_jobs_do_not_change_bytes(self, tmp_path):
        path = tmp_path / "base.ini"
        path.write_text(
            "model = IncompressibleMHD\nH_plasma_2 = 1.0\nH_vacuum_2 = 2.0\n"
        )
        grid = "a_hat=-2:2:5;a0_hat=-1:1:5"
        outs = []
        for jobs in ("1", "8"):
            out = tmp_path / f"sweep{jobs}.csv"
            assert main(
                ["sweep", str(path), "--grid", grid, "--jobs", jobs, "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_oversized_grid_exits_before_compute(self, tmp_path, capsys):
        path = tmp_path / "base.ini"
        path.write_text("model = IncompressibleEuler\n[sweep]\nmax_points = 10\n")
        assert main(["sweep", str(path), "--grid", "a_hat=0:1:100"]) == 1
        assert "max_points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, grid",
        [
            # both axes hold an invalid value: the first axis's is named
            ("IncompressibleEuler", "a_hat=inf,0;c_hat=-1,1"),
            # the first point's vacuum field is unsupported on an Euler model,
            # but the invalid value fails first, when the grid is built
            ("CompressibleEuler", "H_vacuum_3=1;a_hat=0,inf"),
        ],
    )
    def test_first_invalid_axis_value_fails_before_any_output(
        self, tmp_path, capsys, model, grid
    ):
        path = tmp_path / "base.ini"
        path.write_text(f"model = {model}\n")
        out = tmp_path / "map.csv"
        assert main(["sweep", str(path), "--grid", grid, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: a_hat must be finite, got inf\n"
        assert captured.out == ""
        assert not out.exists()

    def test_grid_comes_from_config_section(self, tmp_path, capsys):
        path = tmp_path / "base.ini"
        path.write_text(
            "model = IncompressibleEuler\n[sweep]\ngrid = a_hat=-1,1\n"
        )
        assert main(["sweep", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["-1", "1"]

    def test_missing_grid_exits_one(self, tmp_path, capsys):
        path = tmp_path / "base.ini"
        path.write_text("model = IncompressibleEuler\n")
        assert main(["sweep", str(path)]) == 1
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["a_hat=x,1", "a_hat=0:1:two"])
    def test_malformed_grid_flag_exits_one(self, euler_cfg, capsys, grid):
        assert main(["sweep", euler_cfg, "--grid", grid]) == 1
        assert "grid axis" in capsys.readouterr().err

    def test_state_fields_round_trip_through_config_axes_and_csv(self, tmp_path, capsys):
        values = {name: 1.5 + i for i, name in enumerate(STATE_FIELDS)}
        path = tmp_path / "base.ini"
        path.write_text(
            "model = CompressibleMHD\n"
            + "".join(f"{name} = {value}\n" for name, value in values.items())
        )
        base = load_config(path).state
        assert base.fields() == values
        # every axis moves its field off the config value
        swept = {name: value + 10.0 for name, value in values.items()}
        axes = tuple((name, (value,)) for name, value in swept.items())
        (state,) = SweepSpec(base=base, axes=axes).points()
        assert state.fields() == swept
        grid = ";".join(f"{name}={value}" for name, value in swept.items())
        assert main(["sweep", str(path), "--grid", grid]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header.split(",") == list(STATE_FIELDS) + ["verdict", "collinear"]
        cells = row.split(",")[: len(STATE_FIELDS)]
        assert [float(c) for c in cells] == list(swept.values())

    @pytest.mark.parametrize(
        "grid",
        [
            "a_hat=-1:1:5;H_vacuum_3=0,-0.0,0.1;a0_hat=-1,0,1",
            "H_plasma_3=-0.0,0.25,1;a0_hat=-1:1:3;a1_hat=0.1,-0.2",
        ],
    )
    def test_rows_match_the_per_row_formula(self, tmp_path, capsys, grid):
        path = tmp_path / "base.ini"
        path.write_text(
            "model = CompressibleMHD\na_hat = 0.3\nH_plasma_2 = 1.0\nH_vacuum_2 = 2.0\n"
        )
        assert main(["sweep", str(path), "--grid", grid]) == 0
        cfg = load_config(path)
        axes = parse_grid(grid)
        names = [name for name, _ in axes]
        header = names + ["verdict", "collinear"] + ([] if "a_hat" in names else ["a_hat"])
        expected = [",".join(header)]
        spec = SweepSpec(base=cfg.state, axes=axes)
        for state, outcome in zip(spec.points(), sweep(cfg.model, spec)):
            fields = state.fields()
            row = [fmt(fields[name]) for name in names]
            row += [outcome.verdict.value, fmt(outcome.collinear)]
            if "a_hat" not in names:
                row.append(fmt(fields["a_hat"]))
            expected.append(",".join(row))
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_axis_values_are_formatted_once(self, tmp_path, monkeypatch):
        counts = collections.Counter()
        fields, plain_fmt = BasicState.fields, cli.fmt

        def counted_fields(state):
            counts["fields"] += 1
            return fields(state)

        def counted_fmt(value):
            counts["fmt"] += 1
            return plain_fmt(value)

        monkeypatch.setattr(BasicState, "fields", counted_fields)
        monkeypatch.setattr(cli, "fmt", counted_fmt)
        path = tmp_path / "base.ini"
        path.write_text("model = IncompressibleMHD\nH_plasma_2 = 1.0\nH_vacuum_2 = 2.0\n")
        sizes = (3, 4, 5)
        grid = "rho_hat=1:2:3;a0_hat=-1:1:4;H_vacuum_3=0:1:5"
        out = tmp_path / "map.csv"
        assert main(["sweep", str(path), "--grid", grid, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == math.prod(sizes) + 1
        assert counts["fields"] == 0
        # the axis values once, each (verdict, collinear) outcome once, the
        # constant a_hat once
        outcomes = len({tuple(line.split(",")[3:5]) for line in lines[1:]})
        assert 1 < outcomes < math.prod(sizes)
        assert counts["fmt"] <= sum(sizes) + outcomes + 1

    @pytest.mark.parametrize("grid", ["a_hat=0,1;rho_hat=1,2,-1", "a0_hat=0,1;c_hat=1,nan"])
    def test_invalid_late_point_exits_one_without_output(self, euler_cfg, tmp_path, capsys, grid):
        base = load_config(euler_cfg).state
        *outer, (name, values) = parse_grid(grid)
        first_bad = {**{n: v[0] for n, v in outer}, name: values[-1]}
        with pytest.raises(DomainError) as direct:
            BasicState.from_fields({**base.fields(), **first_bad})
        out = tmp_path / "f.csv"
        assert main(["sweep", euler_cfg, "--grid", grid, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {direct.value}\n"
        assert not out.exists()

    def test_numeric_conflict_on_one_row_exits_three(self, tmp_path, capsys):
        # a tiny positive jump conflicts with the numeric fit (see
        # TestClassifyCommand.test_numeric_conflict_exits_two); a = 1 does not
        path = tmp_path / "base.ini"
        path.write_text(
            "model = IncompressibleMHD\na0_hat = 1.0\n"
            "H_plasma_2 = 1.0\nH_vacuum_2 = 2.0\n"
        )
        out = tmp_path / "map.csv"
        code = main(
            ["sweep", str(path), "--grid", "a_hat=0.003,1", "--numeric", "--out", str(out)]
        )
        assert code == 3
        lines = out.read_text().splitlines()
        assert lines[0] == "a_hat,verdict,collinear,fitted_exponent"
        assert lines[1].startswith("# error: a_hat=0.0030000000000000001 ConflictError: ")
        assert lines[2].startswith("1,IllPosed,true,0.5")
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "ini, grid, csv",
        [
            (
                "model = CompressibleMHD\nH_plasma_2 = 1.0\nH_vacuum_2 = 2.0\n",
                "H_vacuum_3=0,1;a_hat=-1,0,1;a0_hat=0,1",
                "H_vacuum_3,a_hat,a0_hat,verdict,collinear\n"
                "0,-1,0,NoHadamardGrowth,true\n"
                "0,-1,1,NoHadamardGrowth,true\n"
                "0,0,0,NoHadamardGrowth,true\n"
                "0,0,1,ExponentiallyUnstable,true\n"
                "0,1,0,IllPosed,true\n"
                "0,1,1,IllPosed,true\n"
                "1,-1,0,NoHadamardGrowth,false\n"
                "1,-1,1,NoHadamardGrowth,false\n"
                "1,0,0,NoHadamardGrowth,false\n"
                "1,0,1,NoHadamardGrowth,false\n"
                "1,1,0,NoHadamardGrowth,false\n"
                "1,1,1,NoHadamardGrowth,false\n",
            ),
            (
                "model = CompressibleEuler\n",
                "a_hat=-1,0,1;a0_hat=0,1",
                "a_hat,a0_hat,verdict,collinear\n"
                "-1,0,NoHadamardGrowth,true\n"
                "-1,1,NoHadamardGrowth,true\n"
                "0,0,NoHadamardGrowth,true\n"
                "0,1,ExponentiallyUnstable,true\n"
                "1,0,IllPosed,true\n"
                "1,1,IllPosed,true\n",
            ),
            (
                "model = CompressibleMHD\na_hat = 0.25\n"
                "H_plasma_2 = 1.0\nH_plasma_3 = 0.5\nH_vacuum_2 = 2.0\n",
                "rho_hat=1,2;a0_hat=-0.0,0.5;H_vacuum_3=-1,1,3",
                "rho_hat,a0_hat,H_vacuum_3,verdict,collinear,a_hat\n"
                "1,0,-1,NoHadamardGrowth,false,0.25\n"
                "1,0,1,IllPosed,true,0.25\n"
                "1,0,3,NoHadamardGrowth,false,0.25\n"
                "1,0.5,-1,NoHadamardGrowth,false,0.25\n"
                "1,0.5,1,IllPosed,true,0.25\n"
                "1,0.5,3,NoHadamardGrowth,false,0.25\n"
                "2,0,-1,NoHadamardGrowth,false,0.25\n"
                "2,0,1,IllPosed,true,0.25\n"
                "2,0,3,NoHadamardGrowth,false,0.25\n"
                "2,0.5,-1,NoHadamardGrowth,false,0.25\n"
                "2,0.5,1,IllPosed,true,0.25\n"
                "2,0.5,3,NoHadamardGrowth,false,0.25\n",
            ),
        ],
        ids=["CompressibleMHD", "CompressibleEuler", "CompressibleMHD-fixed-a_hat"],
    )
    def test_pinned_csv_over_every_verdict_branch(self, tmp_path, ini, grid, csv):
        # together the first two grids reach each (verdict, collinear,
        # rt_sign_ok) outcome and a collinear ill-posed magnetic state with its
        # witness; the third has the benchmark's shape, an innermost
        # H_vacuum_3 axis with one collinear value and a_hat not swept
        path = tmp_path / "base.ini"
        path.write_text(ini)
        out = tmp_path / "map.csv"
        assert main(["sweep", str(path), "--grid", grid, "--out", str(out)]) == 0
        assert out.read_bytes() == csv.encode()

    @pytest.mark.parametrize("case", SWEEP_PINS)
    def test_sweep_keeps_every_byte(self, tmp_path, capsys, case):
        ini, argv_tail, (code, size, digest, err, warned) = SWEEP_PINS[case]
        got_code, data, got_err, caught = run_sweep(tmp_path, capsys, ini, argv_tail)
        assert (got_code, got_err) == (code, err)
        assert (data and len(data), data and hashlib.sha256(data).hexdigest()) == (size, digest)
        assert collections.Counter(str(w.message) for w in caught) == warned
        # every near-zero a_hat warns from one line of the classifier
        assert len({(w.filename, w.lineno) for w in caught}) <= 1
        assert all(w.filename.endswith("classifier.py") for w in caught)

    def test_a_benchmark_shaped_sweep_starts_at_most_one_collection(self, tmp_path):
        # 21 x 20 x 20 points, innermost H_vacuum_3 with one collinear value
        # (its last, 1.0); a state lives only until it is classified and most
        # verdicts are shared, so the sweep leaves no tracked container per point
        path = tmp_path / "base.ini"
        path.write_text(
            "model = CompressibleMHD\nH_plasma_2 = 1.0\nH_plasma_3 = 0.5\nH_vacuum_2 = 2.0\n"
        )
        grid = "a_hat=-2:2:21;a0_hat=-1:1:20;H_vacuum_3=-3.75:1:20"
        out = tmp_path / "map.csv"
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            code = main(["sweep", str(path), "--grid", grid, "--out", str(out)])
        finally:
            gc.callbacks.remove(count)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 21 * 20 * 20 + 1
        assert sum(line.split(",")[4] == "true" for line in lines) == 21 * 20
        assert len(starts) <= 1, starts

    def test_a_sweep_peak_grows_by_a_reference_a_point_not_by_its_csv(self, tmp_path):
        # the CSV goes out a block at a time, so what grows with the grid is
        # sweep()'s list of shared verdicts (8 bytes a point) and the witness
        # of each ill-posed point; a CSV held whole costs ~260 bytes a point
        path = tmp_path / "base.ini"
        path.write_text(
            "model = CompressibleMHD\nH_plasma_2 = 1.0\nH_plasma_3 = 0.5\nH_vacuum_2 = 2.0\n"
        )
        out = tmp_path / "map.csv"

        def peak(grid):
            tracemalloc.start()
            try:
                assert main(["sweep", str(path), "--grid", grid, "--out", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = "a_hat=-2:2:21;a0_hat=-1:1:20;H_vacuum_3=-3.75:1:20"
        large = "a_hat=-2:2:21;a0_hat=-1:1:80;H_vacuum_3=-3.75:1:20"  # 4x the points
        peak(small)  # first-use allocations of the package and the interpreter
        base = peak(small)
        growth = peak(large) - base
        assert out.stat().st_size > 2_000_000  # the large grid's CSV
        assert growth <= 32 * 3 * 21 * 20 * 20, growth

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize(
        "ini, argv_tail, code",
        [
            (ILLPOSED_INI, ["--grid", "a_hat=-1:1:3"], 0),
            (EULER_INI, ["--grid", "a_hat=0,1;rho_hat=1,2,-1"], 1),
            (EULER_INI, ["--grid", "a_hat=0,1", "--out", "{tmp}/missing/map.csv"], 1),
            (
                "model = IncompressibleMHD\na0_hat = 1.0\nH_plasma_2 = 1.0\nH_vacuum_2 = 2.0\n",
                ["--grid", "a_hat=0.003,1", "--numeric"],
                3,
            ),
        ],
        ids=["written", "invalid-late-point", "unwritable-out", "numeric-conflict-row"],
    )
    def test_the_collector_is_restored_on_every_exit(self, tmp_path, enabled, ini, argv_tail, code):
        path = tmp_path / "base.ini"
        path.write_text(ini)
        argv = ["sweep", str(path), *(arg.format(tmp=tmp_path) for arg in argv_tail)]
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(argv) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize(
        "ini, grid, code, errors",
        [
            # the README grid: every witness fit of a collinear point runs on
            # the reduced Euler symbol, and no row conflicts
            (README_INI, "a_hat=-2:2:7;a0_hat=-1:1:5", 0, 0),
            # an error path: the fields of the two rows at H_vacuum_2 = +-0.005
            # are 5e-3 rad apart, and their sampled fits see the sqrt(n) growth
            # of the nearby collinear state, which the verdict does not have
            (
                "model = IncompressibleMHD\na_hat = 1.0\na0_hat = 0.2\na1_hat = 0.7\n"
                "H_plasma_3 = 1.0\nH_vacuum_2 = 0.001\nH_vacuum_3 = 1.0\n",
                "H_vacuum_2=-0.01:0.01:5", 3, 2,
            ),
        ],
        ids=["readme", "conflict-rows"],
    )
    def test_a_numeric_sweep_leaves_no_package_cycle(self, tmp_path, ini, grid, code, errors):
        # no package object is left for the collector to find
        path = tmp_path / "base.ini"
        path.write_text(ini)
        out = tmp_path / "map.csv"
        argv = ["sweep", str(path), "--numeric", "--grid", grid]
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            got = main([*argv, "--out", str(out)])
            gc.collect()
            leaked = {
                type(obj).__qualname__
                for obj in gc.garbage
                if type(obj).__module__.split(".")[0] == "mhdlab"
            }
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert got == code
        lines = out.read_text().splitlines()
        assert sum(line.startswith("# error: ") for line in lines) == errors
        assert leaked == set()


@pytest.mark.parametrize(
    "section, argv_tail, message",
    [
        ("[sweep]\njobs = 2\n", [], ":3: unknown key 'jobs' in section [sweep]"),
        ("[classify]\nrel_tol = 1e-9\n", [], ":3: unknown key 'rel_tol' in section [classify]"),
        ("[green]\nk = 6.28\n", [], ":2: unknown section 'green'"),
        ("", ["--seed", "0"], "unrecognized arguments: --seed 0"),
    ],
)
def test_removed_knobs_are_rejected(tmp_path, capsys, section, argv_tail, message):
    path = tmp_path / "knob.ini"
    path.write_text("model = IncompressibleEuler\n" + section)
    argv = ["classify", str(path)] + argv_tail
    if argv_tail:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, message",
    [
        ("roots", "[roots]\nomega2 = x\n", "key 'omega2' needs a number, got 'x'"),
        ("sweep", "[sweep]\nmax_points = ten\n", "key 'max_points' needs an integer"),
        ("hadamard", "[hadamard]\nn_list = 25,a\n", "key 'n_list' needs comma-separated"),
        ("sweep", "[sweep]\ngrid = a_hat=0:1:two\n", "key 'grid' needs axes like"),
        ("classify", "[classify]\nnumeric = maybe\n", "key 'numeric' needs a boolean"),
    ],
)
def test_malformed_value_exits_one_without_traceback(tmp_path, command, section, message):
    path = tmp_path / "bad.ini"
    path.write_text("model = IncompressibleEuler\n" + section)
    proc = subprocess.run(
        [sys.executable, "-m", "mhdlab", command, str(path)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {path}:3: {message}")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, config_bytes",
    [
        pytest.param(["roots", "{cfg}", "--out", "/dev/null/x.csv"], EULER, id="roots-out"),
        pytest.param(
            ["sweep", "{cfg}", "--grid", "a_hat=0:1:3", "--out", "/dev/null/x.csv"],
            EULER,
            id="sweep-out",
        ),
        pytest.param(["classify", "{cfg}"], EULER + b"# \xff\xfe\n", id="non-utf8-config"),
        pytest.param(
            ["hadamard", "{cfg}", "--n-list", "100", "25", "--out", "{out}"],
            EULER,
            id="hadamard-decreasing-n",
        ),
        pytest.param(
            ["hadamard", "{cfg}", "--n-list", "0", "25", "--out", "{out}"],
            EULER,
            id="hadamard-zero-n",
        ),
        pytest.param(
            ["hadamard", "{cfg}", "--n-list", "1" + "0" * 400, "--out", "{out}"],
            EULER,
            id="hadamard-huge-n",
        ),
        pytest.param(
            ["hadamard", "{cfg}", "--t", "nan", "--out", "{out}"], EULER, id="hadamard-nan-t"
        ),
        # the first n's phase n Im(s) t overflows; growth.csv is written first
        pytest.param(
            ["hadamard", "{cfg}", "--t", "1e308", "--n-list", "100", "--omega", "0.6", "0.8",
             "--out", "{out}"],
            b"model = IncompressibleMHD\na_hat = 1\na0_hat = 0.5\na1_hat = 0.7\n"
            b"H_plasma_2 = 1\nH_vacuum_2 = 2\nH_vacuum_3 = 0.3\n",
            id="hadamard-overflowing-phase",
        ),
        # n Re(s) t overflows: no growth.csv row or field holds it
        pytest.param(
            ["hadamard", "{cfg}", "--t", "1e308", "--n-list", "100", "--dump-fields",
             "--out", "{out}"],
            EULER,
            id="hadamard-overflowing-growth",
        ),
        pytest.param(["green", "--k", "inf"], None, id="green-inf-k"),
        pytest.param(["green", "--k", "400", "--points", "3000"], None, id="green-k-400"),
        pytest.param(["green", "--k", "800", "--points", "5000"], None, id="green-k-800"),
    ],
)
def test_bad_input_exits_one_without_traceback(tmp_path, argv, config_bytes):
    cfg, out = tmp_path / "state.ini", tmp_path / "out"
    if config_bytes is not None:
        cfg.write_bytes(config_bytes)
    argv = [arg.format(cfg=cfg, out=out) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "mhdlab", *argv],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    written = [proc.stdout] + [f.read_text() for f in out.glob("*")]
    assert not any("nan" in text.lower() for text in written)


# one hadamard config per model, README's first; the Euler models have no
# vacuum side, so their grid records hold a null spacing
HADAMARD_INIS = {
    "CompressibleMHD": README_INI,
    "IncompressibleMHD": ILLPOSED_INI + "a0_hat = 0.2\n",
    "IncompressibleEuler": EULER_INI + "a0_hat = 0.2\n",
    "CompressibleEuler": "model = CompressibleEuler\nc_hat = 2.0\na_hat = 1.0\na0_hat = 0.2\n",
}

# README's config: the residuals.jsonl lines before its refined records,
# pinned so that appending those records moves none of them
README_RESIDUALS = "".join(line + "\n" for line in (
    '{"block": "interior", "equation": "momentum_1", "value": 0.019136963123996223}',
    '{"block": "interior", "equation": "momentum_2", "value": 0.0005019521348588609}',
    '{"block": "interior", "equation": "momentum_3", "value": 0.0005019521348588407}',
    '{"block": "interior", "equation": "induction_1", "value": 0.0005019521348588669}',
    '{"block": "interior", "equation": "induction_2", "value": 0.017612051814685132}',
    '{"block": "interior", "equation": "induction_3", "value": 0.017619629748695815}',
    '{"block": "interior", "equation": "continuity", "value": 0.01761864136645384}',
    '{"block": "interior", "equation": "magnetic_divergence", "value": 0.025311791331340962}',
    '{"block": "interior", "equation": "vacuum_laplace", "value": 0.01268327987159373}',
    '{"block": "boundary", "condition": "kinematic", "value": 4.6852986501161314e-15}',
    '{"block": "boundary", "condition": "pressure", "value": 1.8849931053367854e-15}',
    '{"block": "boundary", "condition": "vacuum_neumann", "value": 5.942845480605001e-15}',
    '{"block": "grid", "spacings": [0.007882855970555682, '
    '0.006274509803921569, 0.015707963267948967, 0.012935297242993785], "n": 25, "t": 1.0}',
))

# every residuals.jsonl byte per model, refined records included
HADAMARD_RESIDUALS = {
    "CompressibleMHD": README_RESIDUALS + "".join(line + "\n" for line in (
        '{"block": "refined", "equation": "momentum_1", "value": 0.005199778195932602, '
        '"order": 1.8798399149170133}',
        '{"block": "refined", "equation": "momentum_2", "value": 0.00012695176452304094, '
        '"order": 1.9832693508757986}',
        '{"block": "refined", "equation": "momentum_3", "value": 0.0001269517645229597, '
        '"order": 1.9832693508766637}',
        '{"block": "refined", "equation": "induction_1", "value": 0.00012695176452307878, '
        '"order": 1.9832693508753856}',
        '{"block": "refined", "equation": "induction_2", "value": 0.004785431777654132, '
        '"order": 1.879841987308576}',
        '{"block": "refined", "equation": "induction_3", "value": 0.0047875154368011924, '
        '"order": 1.879834564440704}',
        '{"block": "refined", "equation": "continuity", "value": 0.004787243156899197, '
        '"order": 1.8798356860351155}',
        '{"block": "refined", "equation": "magnetic_divergence", "value": 0.006877562577521502, '
        '"order": 1.8798403449960532}',
        '{"block": "refined", "equation": "vacuum_laplace", "value": 0.003440645196362675, '
        '"order": 1.8821768395256118}',
    )),
    "IncompressibleMHD": "".join(line + "\n" for line in (
        '{"block": "interior", "equation": "momentum_1", "value": 0.02020871437483792}',
        '{"block": "interior", "equation": "momentum_2", "value": 7.258037824678915e-05}',
        '{"block": "interior", "equation": "momentum_3", "value": 0.0}',
        '{"block": "interior", "equation": "induction_1", "value": 7.258037824668521e-05}',
        '{"block": "interior", "equation": "induction_2", "value": 7.258037824668521e-05}',
        '{"block": "interior", "equation": "induction_3", "value": 0.0}',
        '{"block": "interior", "equation": "divergence", "value": 0.02531183956405228}',
        '{"block": "interior", "equation": "magnetic_divergence", "value": 0.02531183956405235}',
        '{"block": "interior", "equation": "vacuum_laplace", "value": 0.012683279871593732}',
        '{"block": "boundary", "condition": "kinematic", "value": 1.6605332264622038e-15}',
        '{"block": "boundary", "condition": "pressure", "value": 3.6887277746844163e-16}',
        '{"block": "boundary", "condition": "vacuum_neumann", "value": 2.2794383873495324e-15}',
        '{"block": "grid", "spacings": [0.006274509803921569, 0.006274509803921569, '
        '0.015707963267948967, 0.007053091041956504], "n": 25, "t": 1.0}',
        '{"block": "refined", "equation": "momentum_1", "value": 0.0054909861263877, '
        '"order": 1.8798403729163529}',
        '{"block": "refined", "equation": "momentum_2", "value": 1.8356765061595397e-05, '
        '"order": 1.9832677344822578}',
        '{"block": "refined", "equation": "momentum_3", "value": 0.0}',
        '{"block": "refined", "equation": "induction_1", "value": 1.8356765061432926e-05, '
        '"order": 1.9832677344929606}',
        '{"block": "refined", "equation": "induction_2", "value": 1.8356765061432926e-05, '
        '"order": 1.9832677344929606}',
        '{"block": "refined", "equation": "induction_3", "value": 0.0}',
        '{"block": "refined", "equation": "divergence", "value": 0.006877575562668239, '
        '"order": 1.87984037024073}',
        '{"block": "refined", "equation": "magnetic_divergence", "value": 0.006877575562668358, '
        '"order": 1.879840370240709}',
        '{"block": "refined", "equation": "vacuum_laplace", "value": 0.0034406451963626752, '
        '"order": 1.8821768395256118}',
    )),
    "IncompressibleEuler": "".join(line + "\n" for line in (
        '{"block": "interior", "equation": "momentum_1", "value": 0.008374271912791473}',
        '{"block": "interior", "equation": "momentum_2", "value": 0.02657502297670292}',
        '{"block": "interior", "equation": "momentum_3", "value": 0.0}',
        '{"block": "interior", "equation": "divergence", "value": 0.025311839564052214}',
        '{"block": "boundary", "condition": "kinematic", "value": 3.8088420528814517e-16}',
        '{"block": "boundary", "condition": "pressure", "value": 4.440892098500626e-16}',
        '{"block": "grid", "spacings": [0.006274509803921569, null, 0.015707963267948967, '
        '0.015707963267948967], "n": 25, "t": 1.0}',
        '{"block": "refined", "equation": "momentum_1", "value": 0.0022017009632934056, '
        '"order": 1.9273452289126354}',
        '{"block": "refined", "equation": "momentum_2", "value": 0.006680679783590479, '
        '"order": 1.992004124332067}',
        '{"block": "refined", "equation": "momentum_3", "value": 0.0}',
        '{"block": "refined", "equation": "divergence", "value": 0.006877575562668264, '
        '"order": 1.8798403702407211}',
    )),
    "CompressibleEuler": "".join(line + "\n" for line in (
        '{"block": "interior", "equation": "momentum_1", "value": 0.008379746096544296}',
        '{"block": "interior", "equation": "momentum_2", "value": 0.02658049716045624}',
        '{"block": "interior", "equation": "momentum_3", "value": 0.0}',
        '{"block": "interior", "equation": "continuity", "value": 0.02507660337955835}',
        '{"block": "boundary", "condition": "kinematic", "value": 3.1478611027107484e-16}',
        '{"block": "boundary", "condition": "pressure", "value": 2.2204460492503126e-16}',
        '{"block": "grid", "spacings": [0.006241945341845635, null, 0.015707963267948967, '
        '0.015707963267948967], "n": 25, "t": 1.0}',
        '{"block": "refined", "equation": "momentum_1", "value": 0.0022030688488084756, '
        '"order": 1.9273919495509906}',
        '{"block": "refined", "equation": "momentum_2", "value": 0.0066820476691025, '
        '"order": 1.9920059090977964}',
        '{"block": "refined", "equation": "momentum_3", "value": 0.0}',
        '{"block": "refined", "equation": "continuity", "value": 0.006813614906763891, '
        '"order": 1.8798496323182967}',
    )),
}


def run_hadamard(tmp_path, ini):
    """mhdlab hadamard on ini: residuals.jsonl's text and its records, each
    line parsed as RFC 8259 JSON (no NaN or Infinity)."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    cfg = tmp_path / "state.ini"
    cfg.write_text(ini)
    out = tmp_path / "dump"
    assert main(["hadamard", str(cfg), "--out", str(out)]) == 0
    text = (out / "residuals.jsonl").read_text()
    return text, [json.loads(line, parse_constant=reject) for line in text.splitlines()]


def refinement(records) -> dict:
    """equation -> (coarse residual, refined residual, order or None)."""
    coarse = {r["equation"]: r["value"] for r in records if r["block"] == "interior"}
    refined = [r for r in records if r["block"] == "refined"]
    assert [r["equation"] for r in refined] == list(coarse)
    return {r["equation"]: (coarse[r["equation"]], r["value"], r.get("order")) for r in refined}


class TestHadamardCommand:
    def test_growth_table_and_residuals(self, tmp_path, euler_cfg):
        out = tmp_path / "dump"
        assert main(
            [
                "hadamard",
                euler_cfg,
                "--n-list",
                "25",
                "100",
                "--t",
                "1.0",
                "--out",
                str(out),
            ]
        ) == 0
        growth = (out / "growth.csv").read_text().splitlines()
        assert growth[0] == "n,log_ratio,ratio,admissible"
        first = growth[1].split(",")
        assert first[0] == "25" and float(first[1]) == pytest.approx(5.0, abs=1e-12)
        records = [
            json.loads(line) for line in (out / "residuals.jsonl").read_text().splitlines()
        ]
        interior = [r for r in records if r["block"] == "interior"]
        boundary = [r for r in records if r["block"] == "boundary"]
        assert interior and boundary
        assert all(r["value"] < 0.1 for r in interior)
        assert all(r["value"] <= 1e-12 for r in boundary)
        assert not (out / "fields_plasma.csv").exists()

    def test_field_dump(self, tmp_path, euler_cfg):
        out = tmp_path / "dump"
        assert main(
            ["hadamard", euler_cfg, "--n-list", "25", "--out", str(out), "--dump-fields"]
        ) == 0
        lines = (out / "fields_plasma.csv").read_text().splitlines()
        assert lines[0].startswith("x1,x2,")
        assert len(lines) > 100
        # the Euler models have no vacuum side
        assert not (out / "fields_vacuum.csv").exists()

    def test_field_dump_writes_the_vacuum_block_on_a_magnetic_model(self, tmp_path):
        cfg = tmp_path / "readme.ini"
        cfg.write_text(README_INI)
        out = tmp_path / "dump"
        argv = ["hadamard", str(cfg), "--n-list", "25", "--out", str(out), "--dump-fields"]
        assert main(argv) == 0
        assert (out / "fields_vacuum.csv").read_text().splitlines()[0] == "x1,x2,xi"

    def test_untruncatable_first_n_skips_the_residuals(self, tmp_path, capsys):
        # at n = 1 the README state's mode keeps exp(-17.9) at the depth cap
        cfg = tmp_path / "readme.ini"
        cfg.write_text(README_INI)
        out = tmp_path / "dump"
        assert main(["hadamard", str(cfg), "--n-list", "1", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("note: skipping field dump and residuals: plasma truncation")
        assert sorted(f.name for f in out.iterdir()) == ["growth.csv"]

    def test_no_admissible_first_mode_skips_the_residuals(self, tmp_path, capsys):
        # a < 0 and a0 = 0: the roots s = +-i/5 at n = 25 do not grow
        cfg = tmp_path / "stable.ini"
        cfg.write_text("model = IncompressibleEuler\na_hat = -1.0\n")
        out = tmp_path / "dump"
        argv = ["hadamard", str(cfg), "--n-list", "25", "--out", str(out), "--dump-fields"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err == "note: skipping field dump and residuals: no admissible mode at n=25\n"
        assert sorted(f.name for f in out.iterdir()) == ["growth.csv"]

    def test_unwritable_output_exits_one(self, euler_cfg, capsys):
        assert main(["hadamard", euler_cfg, "--out", "/dev/null/x"]) == 1
        assert "not writable" in capsys.readouterr().err

    @pytest.mark.parametrize("model", HADAMARD_INIS)
    def test_refined_records_converge_at_second_order(self, tmp_path, model):
        _, records = run_hadamard(tmp_path, HADAMARD_INIS[model])
        blocks = [r["block"] for r in records]
        grid_at = blocks.index("grid")
        assert set(blocks[grid_at + 1:]) == {"refined"}
        assert (records[grid_at]["spacings"][1] is None) is not ModelKind(model).is_mhd
        for equation, (coarse, fine, order) in refinement(records).items():
            if max(coarse, fine) < 1e-13:
                assert order is None, equation
            else:
                assert 1.7 <= order <= 2.3, (equation, coarse, fine)

    def test_readme_residuals_keep_their_lines(self, tmp_path):
        text, _ = run_hadamard(tmp_path, README_INI)
        assert text.startswith(README_RESIDUALS)

    @pytest.mark.parametrize("model", HADAMARD_INIS)
    def test_residuals_keep_every_byte(self, tmp_path, model):
        text, _ = run_hadamard(tmp_path, HADAMARD_INIS[model])
        assert text == HADAMARD_RESIDUALS[model]

    def test_a_check_that_does_not_converge_shows_its_order(self, tmp_path, monkeypatch):
        real = cli.pde_residual_fd
        reports = []

        def coarse_every_time(mode, grid, t):
            if not reports:
                reports.append(real(mode, grid, t))
            return reports[0]

        monkeypatch.setattr(cli, "pde_residual_fd", coarse_every_time)
        _, records = run_hadamard(tmp_path, README_INI)
        orders = [order for _, _, order in refinement(records).values()]
        assert orders and not any(1.7 <= order <= 2.3 for order in orders)


class TestGreenCommand:
    def test_report_values(self, capsys):
        assert main(["green", "--k", str(2 * math.pi), "--points", "256"]) == 0
        out = capsys.readouterr().out
        gap = float(out.split("relative_gap = ")[1])
        assert gap == pytest.approx(2.02e-4, rel=0.05)
        assert "lhs = " in out and "rhs = " in out

    def test_under_resolved_exits_one(self, capsys):
        assert main(["green", "--k", "50", "--points", "64"]) == 1
        assert "under-resolve" in capsys.readouterr().err


def test_module_entry_point(euler_cfg):
    proc = subprocess.run(
        [sys.executable, "-m", "mhdlab", "classify", euler_cfg],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert "verdict: IllPosed" in proc.stdout


def test_importing_the_module_entry_point_runs_no_cli(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "entry", lambda: calls.append(sys.argv))
    monkeypatch.setattr(sys, "argv", ["mhdlab", "no-such-command"])
    monkeypatch.delitem(sys.modules, "mhdlab.__main__", raising=False)
    importlib.import_module("mhdlab.__main__")
    # the next import runs the module afresh
    del sys.modules["mhdlab.__main__"]
    assert calls == []
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("count", [0, 1, cli.WRITE_BLOCK - 1, cli.WRITE_BLOCK,
                                   cli.WRITE_BLOCK + 1, 2 * cli.WRITE_BLOCK + 1])
def test_written_lines_are_joined_across_every_block_edge(tmp_path, capsysbinary, count):
    # every seventh line is empty, so a block may start or end with one
    lines = ["" if i % 7 == 3 else f"row {i}," for i in range(count)]
    expected = ("\n".join(lines) + "\n").encode()
    out = tmp_path / "lines.csv"
    cli._write_lines(iter(lines), str(out))
    assert out.read_bytes() == expected
    cli._write_lines(iter(lines), None)
    assert capsysbinary.readouterr().out == expected


def test_lines_go_out_one_block_per_write(monkeypatch):
    writes = []
    monkeypatch.setattr(sys, "stdout", collections.namedtuple("Sink", "write")(writes.append))
    cli._write_lines(map(str, range(2 * cli.WRITE_BLOCK + 1)), "")
    assert [w.count("\n") for w in writes] == [cli.WRITE_BLOCK, cli.WRITE_BLOCK, 1]


def test_an_unwritable_out_exits_one_and_creates_no_file(euler_cfg, tmp_path, capsys):
    out = tmp_path / "missing" / "map.csv"
    assert main(["sweep", euler_cfg, "--grid", "a_hat=0,1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: output not writable: {out} (")
    assert list(tmp_path.iterdir()) == [tmp_path / "euler.ini"]
