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


# Every result of each sweep, bit for bit: a change to any number a solve
# returns, or to its reports, changes the digest.  The sweep also counts
# erf_inv's ill-conditioned warnings.
#  - 12,000 recoveries with xi <= 3.
#  - 3,600 with xi up to 5.5, where the root solves take the most Newton
#    steps: the iterates that the xi <= 3 sweep never reaches.
#  - 18,000 with xi up to 5.8, the only sweep that reaches xi in (5.5, 5.8],
#    where erf_inv works within 1e-12 of saturation and rounding decides
#    59 restriction verdicts: the kernel's values there and the reports of
#    every restriction failure.
@pytest.mark.parametrize("args, warnings, last", [
    (["--n", "1000", "--seed", "7", "--xi-max", "3.0"], 0,
     "sha256 bca801efa489c0f5cfd131d5ba314786ce0809c87a5666edd881a1c0c444093d (0 raised)"),
    (["--n", "300", "--seed", "3", "--xi-max", "5.5"], 153,
     "sha256 e4f445c3d5eed152ea7241eea5a03d075e7a16abe3037897df95a1035d704438 (0 raised)"),
    (["--n", "1500", "--seed", "5", "--xi-max", "5.8"], 1217,
     "sha256 31a70dca9ce7e6acc05e0973c385c696562673fd28f5889a6d82e1093ca84ae2 (59 raised)"),
], ids=["xi-3", "xi-5.5", "xi-5.8"])
def test_recovery_sweep_digest_is_pinned(tmp_path, args, warnings, last):
    lines = _run("recovery_sweep.py", args, tmp_path).splitlines()
    assert lines[-2].endswith(f"/s; {warnings} ill-conditioned warnings)"), lines[-2]
    assert lines[-1] == last


def test_range_probe_finds_no_wrong_answer(tmp_path):
    # The wide-range recipe on 60 draws of seed 2 (the property test of
    # test_faces.py runs seed 1), the l/gamma/epsilon table, then the
    # k/rho/c one: every kept case is answered within 1e-10, or refused
    # with a NumericalError; none is answered wrong, and no solve exhausts
    # its root solve's budget.  The last line is the digest of every outcome,
    # pinned: a change that moves any out-of-band outcome, a value's bits, an
    # error's type or its message, must say which and update it.
    out = _run("range_probe.py", ["--n", "60", "--seed", "2"], tmp_path)
    assert out.splitlines()[-1] == "sha256 3965762ad463e02710b93eb8e711aaa24b8029ae74a52f20a8df8ea491954ca3"
    blocks = out.split("\n\n")
    tables = [block.splitlines()[1:] for block in blocks if block.startswith("outcome")]
    assert len(tables) == 2
    for table in tables:
        counts = {label.strip(): int(count) for label, count in (line.rsplit(None, 1) for line in table)}
        assert counts["returned but wrong"] == 0
        assert counts["within 1e-10"] > 0
    assert counts["ConvergenceError"] == 0  # a row of the k/rho/c table


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
    # Outside the install commands, every --flag the README mentions is an
    # option of some mushy subcommand or of a script under scripts/, and a
    # flag written after a subcommand's name in one command line or code
    # span is an option of that subcommand.
    from mushy.cli import _COMMANDS, main

    readme = (SCRIPTS.parent / "README.md").read_text()
    parts = re.split(r"(?m)^(#+ .*)$", readme)
    text = parts[0] + "".join(body for heading, body in zip(parts[1::2], parts[2::2]) if heading != "## Install")

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
