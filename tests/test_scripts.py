"""Smoke runs of the study scripts with small arguments, and their listing."""
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parents[1]


# script -> (small arguments, CSV header)
SCRIPTS = {
    "growth_scaling_study.py": (["--n-max-exp", "3"], "model,a_hat,rho_hat,n,re_s"),
}


def test_every_script_is_smoke_run_and_listed_in_the_readme():
    scripts = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
    section = (ROOT / "README.md").read_text().split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    bullets = sorted(line.split("`")[1] for line in section.splitlines() if line.startswith("- "))
    assert scripts == sorted(SCRIPTS)
    assert bullets == [f"scripts/{name}" for name in scripts]


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs_and_writes_its_csv(tmp_path, script):
    args, header = SCRIPTS[script]
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1
