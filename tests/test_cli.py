"""Configuration parsing and the command-line front end."""
import json
import math
import subprocess
import sys
import warnings

import pytest

from conftest import subprocess_env
from mhdlab.cli import main
from mhdlab.classifier import SweepSpec
from mhdlab.config import parse_config_text, load_config, parse_bool
from mhdlab.domain import STATE_FIELDS, ModelKind
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

    def test_parse_bool(self):
        assert parse_bool("true", "x") and parse_bool("1", "x")
        assert not parse_bool("false", "x") and not parse_bool("off", "x")
        with pytest.raises(ConfigError):
            parse_bool("maybe", "x")


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

    def test_unwritable_output_exits_one(self, euler_cfg, capsys):
        assert main(["hadamard", euler_cfg, "--out", "/dev/null/x"]) == 1
        assert "not writable" in capsys.readouterr().err


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
