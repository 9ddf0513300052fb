import json
import os
import re
import shlex
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
    assert proc.stderr == ""
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
    assert last == "sha256 44f98eb20fcdce2de66a71dc196978e96f2992553fdb64dd12c1d9565d081a86 (0 raised)"


def test_recovery_sweep_digest_at_large_xi_is_pinned(tmp_path):
    # 3600 recoveries with xi up to 5.5, where the root solves take the most
    # Newton steps: pins the iterates that the xi <= 3 digest never reaches.
    # erf_inv warns in 153 of them; the sweep counts the warnings.
    lines = _run("recovery_sweep.py", ["--n", "300", "--seed", "3", "--xi-max", "5.5"], tmp_path).splitlines()
    assert lines[-2].endswith("/s; 153 ill-conditioned warnings)"), lines[-2]
    assert lines[-1] == "sha256 b83548a23fa1f7f62cd70ec47fb7593fc6ee9347ce072b4ea100e3738ef8048a (0 raised)"


def test_recovery_sweep_digest_near_erf_saturation_is_pinned(tmp_path):
    # 18 000 recoveries with xi up to 5.8, the only sweep that reaches
    # xi in (5.5, 5.8], where erf_inv works within 1e-12 of saturation and
    # rounding decides 61 restriction verdicts: pins the kernel's values
    # there and the reports of every restriction failure.
    lines = _run("recovery_sweep.py", ["--n", "1500", "--seed", "5", "--xi-max", "5.8"], tmp_path).splitlines()
    assert lines[-2].endswith("/s; 1217 ill-conditioned warnings)"), lines[-2]
    assert lines[-1] == "sha256 d423807424afc497395422e7c2a68d0657a0843f83457d0e2dec11c0a2c54fc6 (61 raised)"


def test_readme_limit_recipe_runs(tmp_path):
    # The commands of the README's Experiments block, as a user would paste them.
    readme = (SCRIPTS.parent / "README.md").read_text()
    block = readme.split("## Experiments", 1)[1].split("```\n", 2)[1]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert [argv[:2] for argv in commands] == [["mushy", "manufacture"], ["mushy", "limit"]]
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(proc.stdout)["fitted_slope"] + 1.0) < 0.005


def test_readme_library_example_runs(tmp_path):
    # The README's python block, run as a user would paste it.
    readme = (SCRIPTS.parent / "README.md").read_text()
    (block,) = re.findall(r"(?ms)^```python\n(.*?)^```$", readme)
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "solve_case(" in block  # the block is the Library example


FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def _code_units(text):
    """Each line of a fenced block (continuations joined) and each inline
    code span of markdown ``text``."""
    units = []
    for i, block in enumerate(re.split(r"(?m)^ *```.*$", text)):
        units += block.replace("\\\n", " ").splitlines() if i % 2 else re.findall(r"`([^`]+)`", block)
    return units


def test_readme_names_only_flags_that_exist(capsys):
    # Outside the install commands and the list of removed options, every
    # --flag the README mentions is an option of some mushy subcommand or of
    # a script under scripts/, and a flag written after a subcommand's name
    # in one command line or code span is an option of that subcommand.
    from mushy.cli import _COMMANDS, main

    readme = (SCRIPTS.parent / "README.md").read_text()
    parts = re.split(r"(?m)^(#+ .*)$", readme)
    skipped = {"## Install", "### Removed options"}
    text = parts[0] + "".join(body for heading, body in zip(parts[1::2], parts[2::2]) if heading not in skipped)

    options = {}
    for sub in _COMMANDS:
        assert main([sub, "--help"]) == 0
        options[sub] = set(FLAG.findall(capsys.readouterr().out))
    known = set().union(*options.values())
    for script in sorted(SCRIPTS.glob("*.py")):
        known |= set(FLAG.findall(_run(script.name, ["--help"], SCRIPTS)))

    misplaced = []
    for unit in _code_units(text):
        sub = None
        for token in unit.split():
            if token in options:
                sub = token
            elif sub is not None:
                misplaced += [f"{sub} {flag}" for flag in FLAG.findall(token) if flag not in options[sub]]
    mentioned = set(FLAG.findall(text))
    assert {"--problem", "--case", "--h0-grid", "--nx"} <= mentioned  # the scan reads the README's text
    assert sorted(mentioned - known) == []
    assert misplaced == []
