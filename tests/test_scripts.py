"""Smoke runs of the study scripts with small arguments."""
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parents[1]


# script -> (small arguments, CSV header)
SCRIPTS = {
    "stability_map.py": (["--resolution", "5"], "a_hat,a0_hat,verdict,collinear"),
    "growth_scaling_study.py": (["--n-max-exp", "3"], "model,a_hat,rho_hat,n,re_s"),
    "mode_convergence_study.py": (["--levels", "2"], "equation,level,residual,order"),
}


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
