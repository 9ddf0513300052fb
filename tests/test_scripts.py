import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, args, cwd):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "script, args, header, rows",
    [
        # one row per face and case
        ("recovery_sweep.py", ["--n", "20", "--seed", "1"], "worst rel error", 12),
    ],
)
def test_script_runs_from_a_checkout(script, args, header, rows, tmp_path):
    table = _run(script, args, tmp_path).split("\n\n")[0].splitlines()
    assert header in table[0]
    assert len(table) == 1 + rows


def test_recovery_sweep_digest_follows_the_seed(tmp_path):
    def digest(seed):
        last = _run("recovery_sweep.py", ["--n", "3", "--seed", seed], tmp_path).splitlines()[-1]
        assert re.fullmatch(r"sha256 [0-9a-f]{64} \(0 raised\)", last), last
        return last

    first = digest("1")
    assert digest("1") == first
    assert digest("2") != first


def test_recovery_sweep_digest_is_pinned(tmp_path):
    # Every result of 12 000 recoveries, bit for bit: a change to any number
    # a solve returns, or to its reports, changes this digest.
    last = _run("recovery_sweep.py", ["--n", "1000", "--seed", "7", "--xi-max", "3.0"], tmp_path).splitlines()[-1]
    assert last == "sha256 cc07bb25d875438484f4ba9d697ebf7a82efd1f6a66493b6198a84072612e21f (0 raised)"


def test_recovery_sweep_digest_at_large_xi_is_pinned(tmp_path):
    # 3600 recoveries with xi up to 5.5, where the root solves take the most
    # Newton steps: pins the iterates that the xi <= 3 digest never reaches.
    last = _run("recovery_sweep.py", ["--n", "300", "--seed", "3", "--xi-max", "5.5"], tmp_path).splitlines()[-1]
    assert last == "sha256 8f4fbfe26b101cf7b8e4745756cd4cbc0f023e800f8f9afa7ca34163062b92f9 (0 raised)"
