import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, header, rows",
    [
        # one row per face and case
        ("recovery_sweep.py", ["--n", "20", "--seed", "1"], "worst rel error", 12),
        # one row per case and h0 decade
        ("limit_experiment.py", ["--decades", "2"], "coeff rel gap", 12),
    ],
)
def test_script_runs_from_a_checkout(script, args, header, rows, tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    table = proc.stdout.split("\n\n")[0].splitlines()
    assert header in table[0]
    assert len(table) == 1 + rows
