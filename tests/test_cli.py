import contextlib
import errno
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mushy.cli import (
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_RESIDUAL,
    EXIT_RESTRICTION,
    MAX_STDERR_LINE,
    VERIFY_FD_STEP,
    _json_loads,
    _json_text,
    main,
    parse_scenario,
    scenario_to_ini,
    scenario_to_json,
)
from mushy.errors import ValidationError
from mushy.manufacture import manufacture
from mushy.model import BoundaryData, Face, MushyCoefficients, ProblemInstance, ThermalCoefficients, UnknownCase

from conftest import OUT_OF_RANGE_ROWS, REF_KWARGS

L_REF = 1.4636343789756727

CASE_L_INI = """\
[problem]
type = convective
case = l

[coefficients]
k = 1.0
rho = 1.0
c = 1.0
epsilon = 0.5
gamma = 0.1

[boundary]
q0 = 1.0
h0 = 2.0
d_inf = 1.4225620128255847
"""


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


MANUFACTURE_ARGV = ["manufacture", "--xi", "0.5", "--k", "1", "--rho", "1", "--c", "1",
                    "--epsilon", "0.5", "--gamma", "0.1", "--q0", "1", "--h0", "2"]


def restate(text, problem=None, case=None):
    """INI scenario ``text`` with another ``[problem]`` type or case; a new
    case also leaves that coefficient out."""
    if problem:
        text = re.sub(r"(?m)^type = \w+$", f"type = {problem}", text)
    if case:
        text = re.sub(r"(?m)^case = \w+$", f"case = {case}", text)
        text = re.sub(rf"(?m)^{case} = .*\n", "", text)
    return text


@pytest.fixture()
def case_l_path(tmp_path):
    path = tmp_path / "case_l.ini"
    path.write_text(CASE_L_INI)
    return path


@pytest.fixture()
def direct_path(tmp_path):
    text = CASE_L_INI.replace("case = l", "case = direct")
    text = text.replace("k = 1.0", f"l = {L_REF!r}\nk = 1.0")
    path = tmp_path / "direct.ini"
    path.write_text(text)
    return path


def test_solve_recovers_latent_heat(case_l_path, capsys):
    code, out, _ = run(["solve", str(case_l_path)], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["case"] == "l"
    assert math.isclose(doc["value"], L_REF, rel_tol=1e-12)
    assert abs(doc["xi"] - 0.5) <= 1e-13
    assert [r["id"] for r in doc["restrictions"]] == ["R1", "R2"]
    assert abs(doc["residuals"]["stefan"]) <= 1e-14
    assert abs(doc["residuals"]["face"]) <= 1e-14


#: check-restrictions on a direct scenario, in the order of its keys: no
#: restriction applies, and the note precedes the verdict.
DIRECT_CHECK_DOC = [("problem", "convective"), ("case", "direct"), ("restrictions", []),
                    ("note", "no restrictions apply to a fully specified data set"), ("all_satisfied", True)]


@pytest.mark.parametrize("sub", ["solve", "check-restrictions", "verify", "profile", "limit", "manufacture",
                                 "check-restrictions-direct"])
def test_out_file_holds_the_stdout_bytes(case_l_path, direct_path, request, tmp_path, capsys, sub):
    if sub == "manufacture":
        argv = MANUFACTURE_ARGV
    elif sub == "check-restrictions-direct":
        argv = ["check-restrictions", str(direct_path)]
    else:
        argv = [sub, str(request.getfixturevalue("dirichlet_gamma_path") if sub == "limit" else case_l_path)]
    inputs = sorted(tmp_path.iterdir())
    code, stdout, err = run(argv, capsys)
    assert (code, err) == (EXIT_OK, "")
    out_path = tmp_path / "out.txt"
    assert run([*argv, "--out", str(out_path)], capsys) == (EXIT_OK, "", "")
    assert out_path.read_bytes() == stdout.encode()
    assert sorted(tmp_path.iterdir()) == sorted([*inputs, out_path])
    if sub == "check-restrictions-direct":
        assert list(json.loads(stdout).items()) == DIRECT_CHECK_DOC


@pytest.mark.parametrize("sub", ["solve", "profile", "manufacture"])
@pytest.mark.parametrize("target", ["nodir/x.json", "."], ids=["missing-directory", "a-directory"])
def test_unwritable_out_path_exits_one(case_l_path, tmp_path, monkeypatch, capsys, sub, target):
    monkeypatch.chdir(tmp_path)
    argv = MANUFACTURE_ARGV if sub == "manufacture" else [sub, str(case_l_path)]
    code, out, err = run([*argv, "--out", target], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_manufacture_then_solve_round_trip(tmp_path, capsys):
    scenario = tmp_path / "made.ini"
    code, _, _ = run(
        ["manufacture", "--xi", "0.8", "--k", "2.0", "--rho", "0.7", "--c", "1.3",
         "--epsilon", "0.35", "--gamma", "0.6", "--q0", "1.4", "--h0", "3.0",
         "--case", "rho", "--out", str(scenario)], capsys)
    assert code == EXIT_OK
    text = scenario.read_text()
    truth = float(text.split("; true rho = ")[1].splitlines()[0])
    assert truth == 0.7
    code, out, _ = run(["solve", str(scenario)], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert math.isclose(doc["value"], 0.7, rel_tol=1e-11)
    assert abs(doc["xi"] - 0.8) <= 1e-12


MANUFACTURED_GAMMA_INI = """\
[problem]
type = convective
case = gamma

[coefficients]
l = 0.6151678272588941
k = 2.0
rho = 0.7
c = 1.3
epsilon = 0.35
; true gamma = 0.6

[boundary]
q0 = 1.4
d_inf = 1.8316591951243444
h0 = 3.0
"""

MANUFACTURED_GAMMA_JSON = """\
{
  "problem": {
    "type": "convective",
    "case": "gamma"
  },
  "coefficients": {
    "l": 0.6151678272588941,
    "k": 2.0,
    "rho": 0.7,
    "c": 1.3,
    "epsilon": 0.35
  },
  "boundary": {
    "q0": 1.4,
    "d_inf": 1.8316591951243444,
    "h0": 3.0
  },
  "_truth": {
    "gamma": 0.6
  }
}
"""


@pytest.mark.parametrize("fmt, expected", [("ini", MANUFACTURED_GAMMA_INI), ("json", MANUFACTURED_GAMMA_JSON)])
def test_manufacture_output_bytes(capsys, fmt, expected):
    code, out, _ = run(
        ["manufacture", "--xi", "0.8", "--k", "2.0", "--rho", "0.7", "--c", "1.3",
         "--epsilon", "0.35", "--gamma", "0.6", "--q0", "1.4", "--h0", "3.0",
         "--case", "gamma", "--format", fmt], capsys)
    assert code == EXIT_OK
    assert out == expected


def test_manufacture_requires_h0_for_convective(capsys):
    code, _, err = run(
        ["manufacture", "--xi", "0.5", "--k", "1", "--rho", "1", "--c", "1",
         "--epsilon", "0.5", "--gamma", "0.1", "--q0", "1"], capsys)
    assert code == EXIT_INPUT
    assert "h0" in err


@pytest.mark.parametrize(
    "options",
    [["--k", "-1"], ["--k", "0"], ["--q0", "0"], ["--xi", "30"], ["--k", "nan"], ["--k", "inf"], ["--xi", "20"],
     ["--epsilon", "1"], ["--h0", "0"], ["--gamma", "nan"], ["--k", "1e-120", "--rho", "1e-120", "--c", "1e-120"],
     ["--q0", "1e300", "--h0", "1e-10"], ["--xi", "0"]],
    ids=" ".join,
)
def test_manufacture_rejects_what_it_cannot_compute_with(capsys, options):
    # a later flag overrides the value in MANUFACTURE_ARGV; the error names
    # the value given (the first flag), not a coefficient computed from it
    code, out, err = run([*MANUFACTURE_ARGV, *options], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(rf"\b{options[0][2:]}\b", err.split("error: ", 1)[1].split(",")[0])


def test_direct_mode_consistent_data(direct_path, capsys):
    code, out, _ = run(["solve", str(direct_path)], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["case"] == "direct"
    assert "value" not in doc
    assert abs(doc["xi"] - 0.5) <= 1e-10
    assert abs(doc["residuals"]["face"]) <= 1e-11


def test_direct_mode_surfaces_inconsistency(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(CASE_L_INI.replace("case = l", "case = direct").replace(
        "k = 1.0", "l = 1.38037\nk = 1.0"))
    code, out, _ = run(["solve", str(path)], capsys)
    assert code == EXIT_OK  # solving succeeds; the residual carries the verdict
    doc = json.loads(out)
    assert abs(doc["residuals"]["stefan"]) <= 1e-13
    assert abs(doc["residuals"]["face"]) > 1e-3
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == EXIT_RESIDUAL
    assert json.loads(out)["failures"] == ["face"]


def test_verify_consistent_scenario_passes(case_l_path, tmp_path, capsys):
    code, out, _ = run(["verify", str(case_l_path)], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["pde_residual_max"] < 1e-6
    assert set(doc["condition_residuals"]) == {"fusion_at_s", "stefan", "mushy_width", "flux", "face"}
    # At a large h0 the face residual is taken in temperature form, scaled by
    # d_inf: as an exchange scaled by the flux it multiplied the cancellation
    # in T(0,t) + d_inf by h0 and read 1.6e-9 at h0 = 1e7 and 1.1e14 at 1e30.
    for h0 in ("1e7", "1e30"):
        path = tmp_path / f"h0-{h0}.ini"
        argv = ["manufacture", "--xi", "0.5", "--k", "1", "--rho", "1", "--c", "1", "--epsilon", "0.5",
                "--gamma", "1", "--q0", "1", "--h0", h0, "--case", "k", "--out", str(path)]
        assert run(argv, capsys)[0] == EXIT_OK
        code, out, err = run(["verify", str(path)], capsys)
        assert (code, err) == (EXIT_OK, ""), h0
        assert json.loads(out)["condition_residuals"]["face"] <= 1e-15, h0


@pytest.mark.parametrize("problem", ["convective", "dirichlet"])
@pytest.mark.parametrize("xi", [6.6e-4, 3e-4])
def test_verify_takes_a_smaller_step_at_small_xi(problem, xi, tmp_path, capsys):
    # Below xi of about 6.7e-4 the fixed step would leave the solid.
    path = tmp_path / "small.ini"
    argv = ["manufacture", "--problem", problem, "--xi", str(xi), "--k", "1", "--rho", "1", "--c", "1",
            "--epsilon", "0.5", "--gamma", "0.1", "--q0", "1", "--h0", "2", "--case", "l", "--out", str(path)]
    assert run(argv, capsys)[0] == EXIT_OK
    code, out, err = run(["verify", str(path)], capsys)
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert doc["passed"] is True
    assert 0.0 < doc["fd_step"] < VERIFY_FD_STEP


def test_profile_stdout_contains_both_tables(case_l_path, capsys):
    code, out, _ = run(["profile", str(case_l_path), "--t", "4.0", "--t", "1.0", "--nx", "5"], capsys)
    assert code == EXIT_OK
    profile_text, fronts_text = out.split("\n\n")
    rows = [line.split(",") for line in profile_text.splitlines()]
    assert rows[0] == ["t", "x", "temperature", "region"]
    times = [float(r[0]) for r in rows[1:]]
    assert times == sorted(times)  # unsorted --t flags are ordered
    assert {r[3] for r in rows[1:]} == {"solid", "liquid"}
    front_rows = [line.split(",") for line in fronts_text.splitlines()]
    assert front_rows[0] == ["t", "s", "r"]
    s1, r1 = (float(v) for v in front_rows[1][1:])
    assert math.isclose(s1, 1.0, rel_tol=1e-13)
    assert r1 > s1
    code, out, _ = run(["profile", str(case_l_path)], capsys)
    assert code == EXIT_OK
    assert len(out.split("\n\n")[0].splitlines()) == 51  # header + default 50 points


def test_profile_rejects_nonpositive_time(case_l_path, capsys):
    # case l's data with alpha = 1e306 (k rho c unchanged) and gamma = 100, so
    # mu is about 65: r(t) = 2 mu sqrt(alpha) sqrt(t) itself overflows at t = 1e308
    case_l_path.write_text(CASE_L_INI.replace("k = 1.0\nrho = 1.0", "k = 1e153\nrho = 1e-153")
                           .replace("gamma = 0.1", "gamma = 100.0"))
    bad = "must be a positive finite number"
    for flag, value, message in [
        ("--t", "0", bad), ("--t", "nan", bad), ("--t", "inf", bad),
        ("--xmax", "-1", bad), ("--xmax", "nan", bad), ("--xmax", "inf", bad),
        ("--t", "1e308", "1e+308 puts the profile end 1.1 r(t) past the range of a double; give --xmax\n"),
    ]:
        code, out, err = run(["profile", str(case_l_path), f"{flag}={value}"], capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: {flag} {message}")


def test_profile_fronts_stay_finite_at_extreme_time(case_l_path, capsys):
    # case l's data with alpha = 4 (k rho c unchanged): alpha t overflows at
    # t = 1e308, while s(t) = 2 xi sqrt(alpha) sqrt(t) ~ 2e154 does not (xi
    # is 0.49999999999999994, an ulp under 0.5, within erf_inv's floor)
    case_l_path.write_text(CASE_L_INI.replace("k = 1.0\nrho = 1.0", "k = 2.0\nrho = 0.5"))
    code, out, err = run(["profile", str(case_l_path), "--t", "1e308", "--xmax", "4e154", "--nx", "5"], capsys)
    assert (code, err) == (EXIT_OK, "")
    profile, fronts = out.split("\n\n")
    assert fronts.splitlines()[1] == "1e+308,1.9999999999999998e+154,2.256805083337548e+154"
    # T depends on x / sqrt(t) only: the rows are those of t = 1 on [0, 4]
    code, out, _ = run(["profile", str(case_l_path), "--t", "1", "--xmax", "4", "--nx", "5"], capsys)
    expected = [row.split(",")[2:] for row in out.split("\n\n")[0].splitlines()[1:]]
    assert [row.split(",")[2:] for row in profile.splitlines()[1:]] == expected
    # x = 2 is s(1) = 4 xi to an ulp, so it falls just past the solid front
    assert [row[1] for row in expected] == ["solid", "solid", "mushy", "liquid", "liquid"]


@pytest.mark.parametrize("nx", ["1", "10001"])
def test_profile_grid_size_is_bounded(case_l_path, capsys, nx):
    code, out, err = run(["profile", str(case_l_path), "--nx", nx], capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:")


@pytest.fixture()
def dirichlet_gamma_path(tmp_path, capsys):
    path = tmp_path / "diri_gamma.ini"
    code, _, _ = run(
        ["manufacture", "--problem", "dirichlet", "--xi", "0.7", "--k", "1", "--rho", "1",
         "--c", "1", "--epsilon", "0.5", "--gamma", "1.72", "--q0", "1",
         "--case", "gamma", "--out", str(path)], capsys)
    assert code == EXIT_OK
    return path


def test_limit_study_fits_a_first_order_slope(dirichlet_gamma_path, capsys):
    code, out, _ = run(["limit", str(dirichlet_gamma_path), "--h0-grid", "10,100,1000,10000"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [row["h0"] for row in doc["rows"]] == [10.0, 100.0, 1000.0, 10000.0]
    assert doc["excluded"] == [] and "note" not in doc
    assert abs(doc["fitted_slope"] + 1.0) < 0.1


def test_limit_study_json_reports_exclusions(dirichlet_gamma_path, capsys):
    code, out, _ = run(
        ["limit", str(dirichlet_gamma_path), "--h0-grid", "0.4,100,1000,10000"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["rows"]) == 3
    assert doc["excluded"][0]["failed"] == ["R1"]
    assert abs(doc["fitted_slope"] + 1.0) < 0.15


def test_limit_study_notes_an_unsorted_grid(dirichlet_gamma_path, capsys):
    code, out, _ = run(["limit", str(dirichlet_gamma_path), "--h0-grid", "1000,10"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [row["h0"] for row in doc["rows"]] == [10.0, 1000.0]
    assert list(doc.items())[-1] == ("note", "h0 grid was unsorted; processed in ascending order")


def test_limit_requires_dirichlet_scenario(case_l_path, direct_path, tmp_path, capsys):
    code, _, err = run(["limit", str(case_l_path)], capsys)
    assert code == EXIT_INPUT
    assert "dirichlet" in err
    # a Dirichlet scenario with no unknown has nothing to study
    path = tmp_path / "dirichlet_direct.ini"
    path.write_text(restate(direct_path.read_text(), problem="dirichlet"))
    assert run(["limit", str(path)], capsys) == (
        EXIT_INPUT, "", "error: the limit study needs an unknown coefficient, not a direct scenario\n")


def test_check_restrictions_pass(case_l_path, capsys):
    code, out, _ = run(["check-restrictions", str(case_l_path)], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["all_satisfied"] is True
    assert [r["id"] for r in doc["restrictions"]] == ["R1", "R2"]


def test_check_restrictions_failure_exit(tmp_path, capsys):
    path = tmp_path / "hot.ini"
    path.write_text(CASE_L_INI.replace("q0 = 1.0", "q0 = 99.0"))
    code, out, _ = run(["check-restrictions", str(path)], capsys)
    assert code == EXIT_RESTRICTION
    doc = json.loads(out)
    assert doc["all_satisfied"] is False
    assert doc["restrictions"][0]["id"] == "R1"
    assert doc["restrictions"][0]["satisfied"] is False


def test_restriction_failure_exit_and_report(tmp_path, capsys):
    path = tmp_path / "hot.ini"
    path.write_text(CASE_L_INI.replace("q0 = 1.0", "q0 = 99.0"))
    code, out, err = run(["solve", str(path)], capsys)
    assert code == EXIT_RESTRICTION
    assert "R1" in err
    doc = json.loads(out)
    assert doc["error"] == "restriction failure"
    assert doc["restrictions"][0]["id"] == "R1"


JSON_COEFFICIENTS_LIST = '{"problem": {"type": "convective", "case": "l"}, "coefficients": [1, 2]}'
JSON_PROBLEM_STRING = '{"problem": "convective"}'
JSON_BOOLEAN_K = (
    '{"problem": {"type": "convective", "case": "l"}, '
    '"coefficients": {"k": true, "rho": 1.0, "c": 1.0, "epsilon": 0.5, "gamma": 0.1}, '
    '"boundary": {"q0": 1.0, "h0": 2.0, "d_inf": 1.4225620128255847}}'
)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda text: text.replace("k = 1.0", "k = -3.0"),
        lambda text: text.replace("case = l", "case = latentheat"),
        lambda text: text.replace("q0 = 1.0", "q0 = banana"),
        lambda text: text + "\nwhatever = 1\n",
        lambda text: text.replace("[boundary]\nq0 = 1.0\n", "[boundary]\n"),
        lambda text: "",
        lambda text: text + "\n[options]\nmax_iter = nan\n",
        lambda text: text + "\n[options]\nmax_iter = 1e400\n",
        lambda text: text + "\n[options]\nmax_iter = 2.5\n",
        lambda text: text + "\n[options]\nabs_tol = 1e-13\n",
        lambda text: JSON_COEFFICIENTS_LIST,
        lambda text: JSON_PROBLEM_STRING,
        lambda text: JSON_BOOLEAN_K,
        lambda text: text.replace("k = 1.0", "k = 1%"),
        lambda text: text.replace("k = 1.0", "k = %(rho)s"),  # not read as rho's value
        lambda text: b"\xff\xfe" + text.encode(),  # not UTF-8
        lambda text: JSON_BOOLEAN_K.replace("true", "1" * 400),  # an int no double holds
        lambda text: JSON_BOOLEAN_K.replace("true", "1" * 5001),  # past the int-digit limit
        lambda text: JSON_BOOLEAN_K.replace('"case": "l"', '"case": null'),
        lambda text: JSON_BOOLEAN_K.replace('"type": "convective"', '"type": null'),
    ],
)
def test_malformed_scenarios_exit_one(tmp_path, capsys, mutate):
    path = tmp_path / "broken.ini"
    data = mutate(CASE_L_INI)
    path.write_bytes(data.encode() if isinstance(data, str) else data)
    code, _, err = run(["solve", str(path)], capsys)
    assert code == EXIT_INPUT
    assert err.startswith("error:") and err.count("\n") == 1


def _error_lines(err):
    """The ``error:`` lines of stderr ``err``, after checking that each of
    its lines is an ``error:`` or a ``warning:`` one."""
    lines = err.splitlines()
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), err
    return [line for line in lines if line.startswith("error: ")]


@pytest.mark.parametrize("fmt", ["ini", "json"])
def test_leading_byte_order_mark_is_ignored(case_l_path, tmp_path, capsys, fmt):
    text = case_l_path.read_text()
    if fmt == "json":
        text = scenario_to_json(parse_scenario(text))
    path = tmp_path / f"plain.{fmt}"
    path.write_text(text, encoding="utf-8")
    expected = run(["solve", str(path)], capsys)
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert run(["solve", str(path)], capsys) == expected
    assert expected[0] == EXIT_OK


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"problem": ' + "[" * 100_000 + "]" * 100_000 + "}", "invalid JSON scenario: maximum recursion depth"),
        ('{"problem": ' + "[" * 900 + "]" * 900 + "}", "[problem] section must be a JSON object, got [[[[[[[...]]]]]]]"),
        ("garbage\n", "invalid scenario file: File contains no section headers. file: '<string>', line: 1"),
        (CASE_L_INI + "k = 2.0\n[broken\n", "invalid scenario file: Source contains parsing errors: '<string>' "),
        (CASE_L_INI.replace("type = convective\n", ""), "[problem] section must set `type`"),
    ],
    ids=["nested-past-the-recursion-limit", "nested-below-it", "no-section-header", "parsing-errors",
         "problem-without-type"],
)
def test_malformed_scenario_is_one_error_line(tmp_path, capsys, text, message):
    path = tmp_path / "malformed"
    path.write_text(text)
    code, out, err = run(["solve", str(path)], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert _error_lines(err) == [err.rstrip("\n")]
    assert err.startswith(f"error: {message}")


def _strict(obj):
    """``obj`` with each non-finite float replaced by its repr: what the
    JSON writer handed ``json.dumps(..., indent=2, allow_nan=False)``."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


#: Strings with non-ASCII characters, lone surrogates and control characters.
json_strings = st.text(st.characters(exclude_categories=()) | st.sampled_from("\x00\x1f\x7f\"\\é\u2028\ud800\udfff"))
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | json_strings,
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(json_strings, children),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(doc=json_documents)
def test_json_text_is_what_json_dumps_wrote(doc):
    assert _json_text(doc) == json.dumps(_strict(doc), indent=2, allow_nan=False)


def _outcome(loads, text):
    """What ``loads(text)`` returns, by repr (a NaN is not equal to
    itself), or the type and message of the error it raises."""
    try:
        return repr(loads(text))
    except (ValueError, RecursionError) as err:  # a JSONDecodeError is a ValueError
        return type(err), str(err)


@st.composite
def json_texts(draw):
    """The text of a document, maybe cut short, with JSON and other white
    space before it and white space or data after it."""
    text = json.dumps(draw(json_documents), indent=draw(st.sampled_from([None, 0, 2])), ensure_ascii=draw(st.booleans()))
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    before = draw(st.text(st.sampled_from(" \t\n\r\x0b\x0c\xa0\u2028\ufeff"), max_size=3))
    return before + text + draw(st.text(st.sampled_from(" \t\n\r\x0c\xa0x}1"), max_size=3))


@settings(max_examples=200, deadline=None)
@given(text=json_texts())
@example(text='{"a": 1, "a": 2}')
@example(text='{"a": NaN, "b": Infinity, "c": -Infinity, "d": -0.0, "e": 1e400}')
@example(text='{"a": 1} x')
@example(text='{"a": 1}{}')
@example(text=' {"a": 1}')
@example(text='\x0c{"a": 1}')
@example(text='{"a": 1}\x0c')
@example(text="\ufeff{}")
@example(text=" \t\n\r")
@example(text='{"problem": }')
@example(text='{"problem": ' + "[" * 100_000 + "]" * 100_000 + "}")
@example(text="[" + "1" * 5_000 + "]")
def test_json_loads_is_json_loads(text):
    assert _outcome(_json_loads, text) == _outcome(json.loads, text)


@pytest.mark.parametrize("text", [
    '{"problem": }', '{"problem" }', '{problem: 1}', '{"problem": {"type": "dirichlet",}}', '{"a": "\x01"}',
    '{"a": "b', '{"a": "\\x"}', '{"a": -}', '{"a": 1,', '{"a": 1} x', '{"a": ' + "1" * 5_000 + "}",
], ids=["no-value", "no-colon", "bare-key", "trailing-comma", "control-character", "unterminated-string",
        "bad-escape", "bare-minus", "cut-short", "extra-data", "digits-past-the-limit"])
def test_a_process_reports_a_json_error_as_json_loads_does(tmp_path, text):
    # A fresh process, where json is not loaded: before Python 3.12 the C
    # scanner raises its JSONDecodeError only when json.decoder is.
    path = tmp_path / "malformed.json"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        json.loads(text)
    proc = subprocess.run([sys.executable, "-S", "-m", "mushy", "solve", str(path)], capture_output=True, text=True,
                          env=_python_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_INPUT, "", f"error: invalid JSON scenario: {err.value}\n")


def test_null_byte_in_a_path_is_an_input_error(case_l_path, capsys):
    # the NUL reaches stderr as its escape, a backslash and x00
    code, out, err = run(["solve", "case\0l.ini"], capsys)
    assert (code, out, err) == (EXIT_INPUT, "", "error: cannot read scenario case\\x00l.ini: embedded null byte\n")
    code, out, err = run(["solve", str(case_l_path), "--out", "out\0.json"], capsys)
    assert (code, out, err) == (EXIT_INPUT, "", "error: cannot write out\\x00.json: embedded null byte\n")


LONG = 100_000


def _cut(line):
    return line[:MAX_STDERR_LINE - 1] + "…"


@pytest.mark.parametrize(
    "argv, scenario, expected",
    [
        (["solve"], CASE_L_INI + "[" * LONG + " = 1\n", _cut("error: unknown key(s) " + "[" * LONG)),
        (["solve"], JSON_BOOLEAN_K.replace('"k": true', '"' + "k" * LONG + '": 1.0'),
         _cut("error: unknown key(s) " + "k" * LONG)),
        (["solve"], "x" * LONG + "\n", _cut("error: invalid scenario file: File contains no section headers. "
                                            "file: '<string>', line: 1 '" + "x" * LONG)),
        (["solve"], CASE_L_INI.replace("case = l", "case = " + "l" * LONG), _cut("error: unknown case '" + "l" * LONG)),
        (["solve", "p" * 5_000], None, _cut("error: cannot read scenario " + "p" * 5_000)),
        (["solve", "--" + "x" * LONG], CASE_L_INI, _cut("mushy solve: error: unrecognized arguments: --" + "x" * LONG)),
        (["solve"], CASE_L_INI.replace("k = 1.0", "\x1b[31mk = 1.0"),
         "error: unknown key(s) \\x1b[31mk in [coefficients]"),
        (["solve", "case\x1bl.ini"], None,
         "error: cannot read scenario case\\x1bl.ini: [Errno 2] No such file or directory: 'case\\x1bl.ini'"),
    ],
    ids=["long-ini-key", "long-json-key", "long-first-line", "long-case", "long-path", "long-flag", "escape-in-key",
         "escape-in-path"],
)
def test_stderr_lines_are_bounded_and_printable(tmp_path, capsys, argv, scenario, expected):
    if scenario is not None:
        path = tmp_path / "scenario"
        path.write_text(scenario)
        argv = [*argv, str(path)]
    code, out, err = run(argv, capsys)
    assert (code, out, err.splitlines()[-1]) == (EXIT_INPUT, "", expected)
    assert all(len(line) <= MAX_STDERR_LINE and line.isprintable() for line in err.splitlines())


def _manufactured_scenario(face, case, fmt):
    """The reference data on ``face`` as a scenario with ``case`` unknown."""
    problem = manufacture(face=face, h0=2.0 if face is Face.CONVECTIVE else None, **REF_KWARGS)
    thermal, mushy, value = problem.hide(case)
    instance = ProblemInstance(face, case, thermal, mushy, problem.boundary)
    write = scenario_to_json if fmt == "json" else scenario_to_ini
    return write(instance, (case.value, value)).encode()


SCENARIO_BYTES = [
    _manufactured_scenario(face, case, fmt) for face in Face for case in UnknownCase for fmt in ("ini", "json")
]

# What a mutation puts in place of a number, or inserts: the numbers past
# the double range, other JSON values, nesting below and past the parser's
# recursion limit, bytes that are not UTF-8 or that a path cannot hold, and
# a 100 kB run and an escape byte, which make a key too long or unprintable.
NUMBER_STANDINS = [b"1e999", b"-1e999", b"1" + b"0" * 400, b"nan", b"true", b"null", b'"1"', b"{}", b"[1]"] + [
    b"[" * depth + b"1" + b"]" * depth for depth in (50, 900, 100_000)
]
INSERTED_BYTES = [b"\x00", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\n", b"{", b"[", b"\r",
                  b"k" * 100_000, b"\x1b"]
NUMBER = re.compile(rb"-?\d[\d.e+-]*")


@st.composite
def mutated_scenarios(draw):
    data = draw(st.sampled_from(SCENARIO_BYTES))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "number", "insert", "byte-order-mark", "duplicate-line"]))
        if kind == "truncate":
            data = data[:draw(st.integers(0, len(data)))]
        elif kind == "number":
            numbers = list(NUMBER.finditer(data))
            if numbers:
                match = draw(st.sampled_from(numbers))
                data = data[:match.start()] + draw(st.sampled_from(NUMBER_STANDINS)) + data[match.end():]
        elif kind == "insert":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.sampled_from(INSERTED_BYTES)) + data[at:]
        elif kind == "byte-order-mark":
            data = b"\xef\xbb\xbf" + data
        else:  # a repeated INI key or section, or a repeated JSON key
            lines = data.splitlines(keepends=True)
            if lines:
                at = draw(st.integers(0, len(lines) - 1))
                data = b"".join(lines[:at + 1] + lines[at:])
    return data


@settings(max_examples=300, deadline=None)
@given(data=mutated_scenarios())
def test_any_scenario_bytes_give_an_exit_code_and_one_error_line(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated-scenario"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", str(path)])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_RESTRICTION, EXIT_NUMERICAL, EXIT_RESIDUAL)
    assert len(_error_lines(err.getvalue())) == (code != EXIT_OK)
    assert all(len(line) <= MAX_STDERR_LINE and line.isprintable() for line in err.getvalue().splitlines())


def test_json_boolean_is_not_a_number(tmp_path, capsys):
    path = tmp_path / "boolean.json"
    path.write_text(JSON_BOOLEAN_K)
    code, out, err = run(["solve", str(path)], capsys)
    assert (code, out, err) == (EXIT_INPUT, "", "error: [coefficients] k = True is not a number\n")


@pytest.mark.parametrize("key", ["type", "case"])
def test_json_null_in_problem_is_not_a_string(tmp_path, capsys, key):
    # str(None) would report a case 'none' or a type None that the file does not hold
    path = tmp_path / "null.json"
    path.write_text(re.sub(rf'"{key}": "\w+"', f'"{key}": null', JSON_BOOLEAN_K))
    code, out, err = run(["solve", str(path)], capsys)
    assert (code, out, err) == (EXIT_INPUT, "", f"error: [problem] {key} = None is not a string\n")


@pytest.mark.parametrize(
    "text,section",
    [(JSON_COEFFICIENTS_LIST, "coefficients"), (JSON_PROBLEM_STRING, "problem")],
    ids=["coefficients-list", "problem-string"],
)
def test_json_section_must_be_an_object(text, section):
    with pytest.raises(ValidationError, match=rf"^\[{section}\] section must be a JSON object"):
        parse_scenario(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["--h0-grid", "10,abc"],
        ["--h0-grid", ""],
        ["--h0-grid", "0,100"],
        ["--h0-grid", "100,-5"],
        ["--h0-grid", "10,0"],
        ["--h0-grid", ",".join(["10"] * 10001)],  # one entry past MAX_GRID_POINTS
    ],
)
def test_malformed_limit_grids_exit_one(dirichlet_gamma_path, capsys, argv):
    code, out, err = run(["limit", str(dirichlet_gamma_path)] + argv, capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "sub, flag",
    [("verify", "--t=1"), ("verify", "--x-fracs=0.5"), ("verify", "--fd-step=1e-4"),
     ("verify", "--tol-residual=1e-10"), ("verify", "--pde-tol=1e-6"), ("verify", "--xi-perturb=0"),
     ("limit", "--h0-min=10"), ("limit", "--h0-max=1e6"), ("limit", "--points=6"),
     ("solve", "--format=json"), ("verify", "--format=json"), ("check-restrictions", "--format=json"),
     ("limit", "--format=csv")]
    + [(sub, flag) for sub in ("solve", "profile", "limit", "verify", "check-restrictions")
       for flag in ("--problem=dirichlet", "--case=k")],
)
def test_removed_flags_are_usage_errors(case_l_path, dirichlet_gamma_path, capsys, sub, flag):
    # verify's sample and bounds are fixed, limit takes only --h0-grid, a
    # report is JSON only, and the scenario file alone names the face and the
    # unknown: even a removed flag's former default is rejected
    path = dirichlet_gamma_path if sub == "limit" else case_l_path
    code, out, err = run([sub, str(path), flag], capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


def test_missing_file_exits_one(tmp_path, capsys):
    code, _, err = run(["solve", str(tmp_path / "nope.ini")], capsys)
    assert code == EXIT_INPUT


def test_unsolvable_direct_data_exit_numerical(direct_path, tmp_path, capsys):
    text = direct_path.read_text().replace(f"l = {L_REF!r}", "l = 1e9")
    path = tmp_path / "noroot.ini"
    path.write_text(text)
    code, _, err = run(["solve", str(path)], capsys)
    assert code == EXIT_NUMERICAL


# A direct scenario whose rho k underflows to 0 in the front balance.
DIRECT_UNDERFLOW_ROW = (Face.CONVECTIVE, None, ThermalCoefficients(l=1.0, k=1e-300, rho=1e-300, c=1.0),
                        MushyCoefficients(epsilon=0.5, gamma=0.1), BoundaryData(q0=1.0, d_inf=1.0, h0=2.0))


# Scenarios whose restriction checks leave the double range: rho k in R3,
# 2 q0^2 in R9 and R5, k rho c in R2 and R6 (rho k stays in range), rho l k
# in R9; the face argument in R6 and the Stefan target in R7 are 0 times inf.
RESTRICTION_UNDERFLOW_ROWS = [
    (Face.CONVECTIVE, UnknownCase.GAMMA, ThermalCoefficients(l=1.0, k=1e-300, rho=1e-300, c=1.0),
     MushyCoefficients(epsilon=0.5), BoundaryData(q0=1.0, d_inf=1.0, h0=2.0)),
    (Face.CONVECTIVE, UnknownCase.L, ThermalCoefficients(k=1.0, rho=1e-30, c=1e-300),
     MushyCoefficients(epsilon=0.5, gamma=0.1), BoundaryData(q0=1.0, d_inf=1.0, h0=2.0)),
    (Face.DIRICHLET, UnknownCase.L, ThermalCoefficients(k=1.0, rho=1e-30, c=1e-300),
     MushyCoefficients(epsilon=0.5, gamma=0.1), BoundaryData(q0=1.0, d_inf=1.0)),
    (Face.DIRICHLET, UnknownCase.C, ThermalCoefficients(l=1.0, k=1.0, rho=1.0),
     MushyCoefficients(epsilon=0.5, gamma=0.1), BoundaryData(q0=1e-200, d_inf=1.0)),
    (Face.CONVECTIVE, UnknownCase.C, ThermalCoefficients(l=1e-100, k=1e-100, rho=1e-110),
     MushyCoefficients(epsilon=0.5, gamma=2e-17), BoundaryData(q0=1e-163, d_inf=1e-16, h0=1e300)),
    (Face.DIRICHLET, UnknownCase.C, ThermalCoefficients(l=1e-110, k=1e-110, rho=1e-110),
     MushyCoefficients(epsilon=0.5, gamma=1.0), BoundaryData(q0=1e-161, d_inf=1e9)),
    (Face.DIRICHLET, UnknownCase.L, ThermalCoefficients(k=1e150, rho=1e150, c=1e150),
     MushyCoefficients(epsilon=0.5, gamma=0.1), BoundaryData(q0=1e200, d_inf=1e-200)),
    (Face.DIRICHLET, UnknownCase.GAMMA, ThermalCoefficients(l=1e200, k=1e-100, rho=1e-100, c=1e200),
     MushyCoefficients(epsilon=0.5), BoundaryData(q0=1e-200, d_inf=1.0)),
]


# A Dirichlet k scenario whose k rho c overflows although sqrt(k rho c) is
# finite, so the liquid front mu is inf.
INFINITE_MU_ROW = (Face.DIRICHLET, UnknownCase.K,
                   ThermalCoefficients(l=4.793954489598483e-94, rho=1.668299896274269e-208, c=1.7e308),
                   MushyCoefficients(epsilon=0.17541148807025056, gamma=4.858041955922482e-209),
                   BoundaryData(q0=59.68649591507172, d_inf=1.83137070194321e-171))

# A direct scenario that solves (xi = 23.87), whose conducted flux
# k dT/dx at s(t) underflows to 0 with e^{-xi^2}: only verify forms it.
CONDUCTED_FLUX_UNDERFLOW_ROW = (
    Face.DIRICHLET, None,
    ThermalCoefficients(l=5e-324, k=2.9929541669233957e24, rho=947425611.8290899, c=4959.6611156499075),
    MushyCoefficients(epsilon=0.4821750452202234, gamma=5e-324),
    BoundaryData(q0=7.965444514700714e-60, d_inf=3.161757674811056e-110))

# Valid data whose solution record the double range cannot hold: b_coef
# underflows to 0; d_inf / q0 underflows, so the face argument and xi are
# 0; the zone width is below an ulp of xi, so mu = xi.
SOLUTION_OUT_OF_RANGE_ROWS = [
    (Face.DIRICHLET, UnknownCase.K,
     ThermalCoefficients(l=3.7126539620620064e-89, rho=4753772345872347.0, c=4.475086668190959e+248),
     MushyCoefficients(epsilon=0.06970844741843737, gamma=3.4567775510753537e-104),
     BoundaryData(q0=1.0, d_inf=3.1567916276458684e-82)),
    (Face.DIRICHLET, UnknownCase.GAMMA,
     ThermalCoefficients(l=3.985716307894161e+96, k=1.5362730209334724e+118, rho=0.0008453645108408014,
                         c=28.119181699172245),
     MushyCoefficients(epsilon=0.0692452985407008), BoundaryData(q0=4.377958488297406e+138, d_inf=1e-310)),
    (Face.CONVECTIVE, UnknownCase.K, ThermalCoefficients(l=1.5576015661428098, rho=1.0, c=1.0),
     MushyCoefficients(epsilon=0.5, gamma=1e-20), BoundaryData(q0=1.0, d_inf=1.4225620128255847, h0=2.0)),
]

# A Dirichlet gamma scenario that solves, whose verify step 0.5 x / reach
# underflows to 0 at the nearest sample point: only verify fails.
FD_STEP_UNDERFLOW_ROW = (
    Face.DIRICHLET, UnknownCase.GAMMA,
    ThermalCoefficients(l=78830074411186.88, k=4.0882466212144997e-91, rho=0.002846980799529645,
                        c=1.1273698198813088e-38),
    MushyCoefficients(epsilon=0.13065986204265423),
    BoundaryData(q0=2.624098373972576e-17, d_inf=1.9146477759761452e-260))

# A direct scenario that solves (xi = 11.1), whose face argument, and so its
# face residual, is -3.3e376 (q0 / (h0 d_inf) overflows): solve cannot print
# it, and verify's step underflows.
FACE_ARGUMENT_OVERFLOW_ROW = (
    Face.CONVECTIVE, None,
    ThermalCoefficients(l=2.552964153638182, k=5.018256092643702e-59, rho=2.5764937623793767e+259,
                        c=1.18648380624629),
    MushyCoefficients(epsilon=0.5581584136865895, gamma=55457.065957314604),
    BoundaryData(q0=3.958694033159616e+156, d_inf=6.394029238797965e+56, h0=6.613652447241081e-277))

# Scenarios 1660 (Dirichlet) and 2301 (convective) of the wide-range probe
# (wide_range_scenario on random.Random(1)): 1 - epsilon lies below half an
# ulp of 1, so the recovered epsilon rounds to 1.0, outside (0, 1).
EPSILON_ROUNDS_TO_ONE_ROWS = [
    (Face.DIRICHLET, UnknownCase.EPSILON,
     ThermalCoefficients(l=1.286596340633006e-134, k=8.510263637591234e-140, rho=1.0074295972224085e-67,
                         c=3.1825198100822516e-87),
     MushyCoefficients(gamma=6.786616359461075e+231), BoundaryData(q0=1.325725708825394e-85, d_inf=1.0)),
    (Face.CONVECTIVE, UnknownCase.EPSILON,
     ThermalCoefficients(l=2.0, k=67.40899116745612, rho=4871.645760848639, c=3.9373042158671724e-200),
     MushyCoefficients(gamma=1.0),
     BoundaryData(q0=1.989268250308328e-83, d_inf=3.0620097981048868e-201, h0=1.0239938108594061e+243)),
]


# The rows above were all valid data whose arithmetic left the double range
# (exit 3 from every subcommand the test ran) until the solves formed the
# groups whose products leave the range apart.  These now exit otherwise,
# each checked at 60 digits on the double data: an answer that is right
# (solve exit 0, the value within 3.2e-16 of the reference), a restriction
# that fails in exact arithmetic (exit 2), or direct data whose face
# condition the solution cannot meet (verify exit 4).  A subcommand not
# named exits 3.
NOW_ANSWERED = {
    "direct-underflow": {"solve": EXIT_OK, "verify": EXIT_RESIDUAL, "profile": EXIT_OK},
    "r3-rho-k-underflow": {"check-restrictions": EXIT_OK},
    "r2-k-rho-c-underflow": {"check-restrictions": EXIT_OK},
    "r6-k-rho-c-underflow": {"check-restrictions": EXIT_OK},
    "r9-q0-squared-underflow": dict.fromkeys(("solve", "verify", "profile", "check-restrictions"), EXIT_RESTRICTION),
    "r5-q0-squared-underflow": dict.fromkeys(("solve", "verify", "profile", "check-restrictions"), EXIT_OK),
    "r9-rho-l-k-underflow": dict.fromkeys(("solve", "verify", "profile", "check-restrictions"), EXIT_RESTRICTION),
    "r6-face-argument-nan": {"solve": EXIT_OK, "profile": EXIT_OK, "check-restrictions": EXIT_OK},
    "r7-stefan-target-nan": dict.fromkeys(("solve", "verify", "profile", "check-restrictions"), EXIT_RESTRICTION),
    "mu-inf": dict.fromkeys(("solve", "verify", "profile"), EXIT_OK),
    "conducted-flux-underflow": {"verify": EXIT_RESIDUAL},
}
#: The values those solves print, and the 60-digit references they match.
NOW_ANSWERED_VALUES = {
    "r5-q0-squared-underflow": (1.315080997033114e-84, "1.3150809970331135637e-84"),
    "r6-face-argument-nan": (4.0000000000000005e+101, "3.9999999999999996891e+101"),
    "mu-inf": (1.176593569016246e+245, "1.1765935690162459609e+245"),
}


@pytest.mark.parametrize("row", [*OUT_OF_RANGE_ROWS, DIRECT_UNDERFLOW_ROW, *RESTRICTION_UNDERFLOW_ROWS,
                                 INFINITE_MU_ROW, CONDUCTED_FLUX_UNDERFLOW_ROW, *SOLUTION_OUT_OF_RANGE_ROWS,
                                 FD_STEP_UNDERFLOW_ROW, FACE_ARGUMENT_OVERFLOW_ROW, *EPSILON_ROUNDS_TO_ONE_ROWS],
                         ids=["value-inf", "rho-k-underflow", "direct-underflow", "r3-rho-k-underflow",
                              "r2-k-rho-c-underflow", "r6-k-rho-c-underflow", "r9-q0-squared-underflow",
                              "r5-q0-squared-underflow", "r9-rho-l-k-underflow", "r6-face-argument-nan",
                              "r7-stefan-target-nan", "mu-inf", "conducted-flux-underflow", "b-coef-underflow",
                              "face-argument-underflow", "mu-equals-xi", "fd-step-underflow",
                              "face-argument-overflow", "epsilon-rounds-to-one-dirichlet",
                              "epsilon-rounds-to-one-convective"])
def test_data_out_of_double_range_exit_numerical(row, request, tmp_path, capsys):
    row_id = request.node.callspec.id
    path = tmp_path / "range.ini"
    path.write_text(scenario_to_ini(ProblemInstance(*row)))
    # check-restrictions fails only where a restriction's own product or group leaves the range
    checks = ("check-restrictions",) if row in RESTRICTION_UNDERFLOW_ROWS else ()
    subs = ("solve", "verify", "profile", *checks)
    if row in (CONDUCTED_FLUX_UNDERFLOW_ROW, FD_STEP_UNDERFLOW_ROW):
        subs = ("solve", "verify")
    if row is FACE_ARGUMENT_OVERFLOW_ROW:
        subs = ("solve", "verify")
    for sub in subs:
        code, out, err = run([sub, str(path)], capsys)
        expected = NOW_ANSWERED.get(row_id, {}).get(sub, EXIT_NUMERICAL)
        if row is CONDUCTED_FLUX_UNDERFLOW_ROW and sub == "solve":
            expected = EXIT_OK  # it solves; only verify forms the conducted flux
        assert code == expected, (sub, err)
        if code == EXIT_NUMERICAL:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and "range of a double" in err
            if row in EPSILON_ROUNDS_TO_ONE_ROWS:
                assert "epsilon = 1.0 is not representable in (0, 1)" in err
        elif code == EXIT_RESTRICTION and sub != "check-restrictions":
            assert err.startswith("error: restriction(s) ") and err.count("\n") == 1, (sub, err)
        else:
            assert err == "", (sub, err)  # check-restrictions, and exit 0 and 4, write no error or warning
        if code == EXIT_OK and sub == "solve" and row_id in NOW_ANSWERED_VALUES:
            value, reference = NOW_ANSWERED_VALUES[row_id]
            assert json.loads(out)["value"] == value
            assert math.isclose(value, float(reference), rel_tol=4e-16)


@pytest.mark.parametrize("face", list(Face))
def test_a_solution_past_the_callers_range_names_its_case(face, tmp_path, capsys):
    # Draw 1 of the wide-range recipe (tests/oracle.wide_range_draws(n, 1)):
    # rho solves, and its alpha overflows.  The error names the case, as a
    # refusal of mu does.
    row = (face, UnknownCase.RHO,
           ThermalCoefficients(l=5.567979722130627e-147, k=9.40794511031426e+138, c=1.0656394648496912e-98),
           MushyCoefficients(epsilon=0.10198239503875019, gamma=0.014929141583508831),
           BoundaryData(q0=6.2578610454487596e-21, d_inf=4.3369966741241404e+60,
                        h0=3.0856058852941595e+115 if face is Face.CONVECTIVE else None))
    path = tmp_path / "rho.ini"
    path.write_text(scenario_to_ini(ProblemInstance(*row)))
    assert run(["solve", str(path)], capsys) == (
        EXIT_NUMERICAL, "", "error: case rho: the solution leaves the range of a double: "
                            "alpha must be positive and finite, got inf\n")


#: A wide-range direct scenario, two data at the recipe's edge values (rho =
#: 1e-310, gamma = 1.7e308): its front balance solves, and its alpha
#: overflows.
DIRECT_ALPHA_PAST_RANGE = {
    "problem": {"type": "dirichlet", "case": "direct"},
    "coefficients": {"l": 0.0015617841832365254, "k": 5.6277371418857445e-05, "rho": 1e-310,
                     "c": 5.3799041406319547e-45, "gamma": 1.7e+308, "epsilon": 0.10003781731246071},
    "boundary": {"q0": 5.089941596725677e+33, "d_inf": 7.1350985001936375e+267},
}


@pytest.mark.parametrize("sub", ["solve", "verify", "profile"])
def test_a_direct_solution_past_the_callers_range_names_its_case(sub, tmp_path, capsys):
    path = tmp_path / "direct.json"
    path.write_text(json.dumps(DIRECT_ALPHA_PAST_RANGE))
    assert run([sub, str(path)], capsys) == (
        EXIT_NUMERICAL, "", "error: case direct: the solution leaves the range of a double: "
                            "alpha must be positive and finite, got inf\n")


#: The edge values of a wide-range draw; see :func:`wide_range_scenario`.
WIDE_RANGE_EDGES = (5e-324, 1.7e308, 1e-310, 1.0, 2.0)


def wide_range_scenario(rng):
    """A scenario document whose data span the double range: each of l, k,
    rho, c, gamma, q0, d_inf (and h0 on the convective face) is 10^U(-300,
    300) with probability 0.7, 10^U(-5, 5) with probability 0.15, and an
    edge value otherwise; epsilon is U(0.001, 0.999).  The face and the
    case (direct included) are uniform."""

    def datum():
        u = rng.random()
        if u < 0.7:
            return 10.0 ** rng.uniform(-300.0, 300.0)
        if u < 0.85:
            return 10.0 ** rng.uniform(-5.0, 5.0)
        return rng.choice(WIDE_RANGE_EDGES)

    face = rng.choice(("convective", "dirichlet"))
    case = rng.choice(("l", "gamma", "epsilon", "k", "rho", "c", "direct"))
    coefficients = {name: datum() for name in ("l", "k", "rho", "c", "gamma")}
    coefficients["epsilon"] = rng.uniform(0.001, 0.999)
    coefficients.pop(case, None)
    boundary = {"q0": datum(), "d_inf": datum()}
    if face == "convective":
        boundary["h0"] = datum()
    return {"problem": {"type": face, "case": case}, "coefficients": coefficients, "boundary": boundary}


def test_wide_range_data_keep_the_exit_code_contract(tmp_path, capsys):
    # Valid data anywhere in the double range get an exit code, never a
    # traceback, and a solve that exits 0 prints finite numbers.  Whether
    # the numbers are accurate is not checked here.  Every draw parses, so
    # exit 1 (bad input) is never right, but for profile's hint to give
    # --xmax where 1.1 r(t) overflows: a value derived from valid data that
    # leaves the double range is a numerical failure.
    rng = random.Random(1)
    path = tmp_path / "wide.json"
    for _ in range(2000):
        scenario = wide_range_scenario(rng)
        path.write_text(json.dumps(scenario))
        commands = [["solve"], ["check-restrictions"], ["verify"], ["profile", "--nx", "3"]]
        if scenario["problem"]["type"] == "dirichlet" and scenario["problem"]["case"] != "direct":
            commands.append(["limit"])  # limit studies a Dirichlet unknown
        for argv in commands:
            try:
                code, out, err = run([*argv, str(path)], capsys)
            except Exception as exc:
                pytest.fail(f"{argv[0]} raised {exc!r} on {json.dumps(scenario)}")
            if code == EXIT_INPUT:
                assert argv[0] == "profile" and err.endswith("give --xmax\n"), (
                    argv[0], err, json.dumps(scenario))
            if argv[0] == "solve" and code == EXIT_OK:
                doc = json.loads(out)
                # a non-finite number prints as a string; a direct solve has no value
                numbers = {key: doc[key] for key in ("value", "xi", "mu", "alpha", "a_coef", "b_coef")
                           if key in doc}
                assert all(type(v) is float and math.isfinite(v) for v in numbers.values()), (
                    json.dumps(scenario), numbers)
                residuals = doc["residuals"]
                assert all(type(v) is float and math.isfinite(v) for v in residuals.values()), (
                    json.dumps(scenario), residuals)
                # A k, rho or c root below 1 is certified relative to its own
                # scale, so the front balance holds at the printed xi.
                if scenario["problem"]["case"] in ("k", "rho", "c") and doc["xi"] < 1.0:
                    assert abs(residuals["stefan"]) <= 1e-6, (json.dumps(scenario), residuals)


#: Draw 677 of the wide-range recipe (random.Random(1)): a Dirichlet rho whose
#: Stefan target (q0 / l) sqrt(c / (rho k)) overflows, although the answer
#: rho = 4.159e-164 is right to 3e-16 (mpmath at 60 digits).
RIGHT_ANSWER_OVERFLOWING_TARGET = {
    "problem": {"type": "dirichlet", "case": "rho"},
    "coefficients": {"l": 3.3047353089544846e+194, "k": 21.701473402767245, "c": 2.4884795463403926e+269,
                     "gamma": 9.035248245398827e-37, "epsilon": 0.6883447778270636},
    "boundary": {"q0": 0.006480541798207844, "d_inf": 1.046895312271176e-120},
}


def test_residuals_of_a_right_answer_stay_finite_past_the_double_range(tmp_path, capsys):
    path = tmp_path / "overflowing-target.json"
    path.write_text(json.dumps(RIGHT_ANSWER_OVERFLOWING_TARGET))
    code, out, err = run(["solve", str(path)], capsys)
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert math.isclose(doc["value"], 4.159e-164, rel_tol=1e-3)
    stefan = doc["residuals"]["stefan"]
    assert type(stefan) is float and abs(stefan) <= 1e-6, stefan


#: Scenario 775 of the wide-range draws (wide_range_scenario on
#: random.Random(1)): a direct solve at xi = 14.4 whose face argument
#: A beta, about 1e-361, lies below the double range.
FACE_ARGUMENT_BELOW_RANGE = {
    "problem": {"type": "dirichlet", "case": "direct"},
    "coefficients": {"l": 1.008885712190131e-117, "k": 2.0355619939677977e-207, "rho": 58431.14195671333,
                     "c": 1.1827654818081418e-63, "gamma": 1.0, "epsilon": 0.3984183549146433},
    "boundary": {"q0": 5.7730704104373e-70, "d_inf": 1.0614366180412117e-298},
}


def test_face_residual_without_a_scale_is_absolute(tmp_path, capsys):
    # (erf(xi) - A beta) / (A beta) has no double where A beta underflows:
    # the solve still answers, and the face residual is the absolute
    # erf(xi) - A beta = 1 - 0.
    path = tmp_path / "face-below-range.json"
    path.write_text(json.dumps(FACE_ARGUMENT_BELOW_RANGE))
    code, out, err = run(["solve", str(path)], capsys)
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert doc["xi"] == 14.43412939464398
    assert doc["residuals"]["face"] == 1.0
    assert abs(doc["residuals"]["stefan"]) <= 1e-12


# alpha = k / (rho c) = 1e308 while k rho c = 1, so pi alpha overflows while
# every figure but alpha and the lengths is that of the unit scenario.
LARGE_ALPHA_INI = CASE_L_INI.replace("k = 1.0", "k = 1e154").replace("rho = 1.0", "rho = 1e-154")


@pytest.mark.parametrize("problem", ["convective", "dirichlet"])
def test_large_diffusivity_is_the_unit_scenario_rescaled(tmp_path, capsys, problem):
    docs = {}
    for name, text in (("unit", CASE_L_INI), ("large", LARGE_ALPHA_INI)):
        path = tmp_path / f"{name}.ini"
        path.write_text(restate(text, problem=problem))
        code, out, err = run(["solve", str(path)], capsys)
        assert (code, err) == (EXIT_OK, "")
        docs[name] = json.loads(out)
        code, out, err = run(["profile", str(path), "--nx", "5"], capsys)
        assert (code, err) == (EXIT_OK, "")
        rows = [line.split(",") for line in out.split("\n\n")[0].splitlines()[1:]]
        docs[name]["regions"] = [region for _, _, _, region in rows]
        docs[name]["temperatures"] = [float(temperature) for _, _, temperature, _ in rows]
        code, out, err = run(["verify", str(path)], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["passed"] is True
    assert docs["large"].pop("alpha") == 1e308
    assert docs["unit"].pop("alpha") == 1.0
    # b_coef = sqrt(pi / (k rho)), and k rho = 1e154 * 1e-154 is not 1: the
    # correctly rounded value (60 digits: 1.7724538509055160186) is the
    # double above sqrt(pi), and a_coef = -b_coef erf(xi) moves with it.  At
    # 60 digits -sqrt(pi / (k rho)) erf(xi) is -0.92256201282558480650
    # (convective) and -1.4225620128255846578 (Dirichlet); the product of
    # the rounded b_coef and erf(xi) is the double one ulp past each.
    assert docs["large"].pop("b_coef") == 1.772453850905516
    assert docs["unit"].pop("b_coef") == 1.7724538509055159  # sqrt(pi)
    a_coef = {"convective": (-0.9225620128255849, -0.9225620128255848),
              "dirichlet": (-1.422562012825585, -1.4225620128255847)}[problem]
    assert (docs["large"].pop("a_coef"), docs["unit"].pop("a_coef")) == a_coef
    # l comes from sqrt(c / (rho k)) = 1e-154 times 1e154, one ulp off
    assert math.isclose(docs["large"].pop("value"), docs["unit"].pop("value"), rel_tol=4e-16)
    # the profile's x grid is the unit one times 1e154, rounded
    for large, unit in zip(docs["large"].pop("temperatures"), docs["unit"].pop("temperatures"), strict=True):
        assert math.isclose(large, unit, rel_tol=1e-14, abs_tol=1e-15)
    assert docs["large"] == docs["unit"]


def test_direct_scenario_restated_for_each_unknown(direct_path, tmp_path, capsys):
    # l is a bulk coefficient, gamma and epsilon belong to the mushy zone
    for case, truth in (("l", L_REF), ("gamma", 0.1), ("epsilon", 0.5)):
        path = tmp_path / f"{case}.ini"
        path.write_text(restate(direct_path.read_text(), case=case))
        code, out, _ = run(["solve", str(path)], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["case"] == case
        assert math.isclose(doc["value"], truth, rel_tol=1e-12)


def test_scenario_restated_as_dirichlet(case_l_path, tmp_path, capsys):
    path = tmp_path / "dirichlet.ini"
    path.write_text(restate(case_l_path.read_text(), problem="dirichlet"))
    code, out, _ = run(["solve", str(path)], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["problem"] == "dirichlet"
    # same datum read as prescribed temperature gives a deeper front
    assert doc["xi"] > 0.5


def test_json_scenario_files_are_interchangeable(case_l_path, tmp_path, capsys):
    scenario = parse_scenario(case_l_path.read_text())
    json_path = tmp_path / "case_l.json"
    json_path.write_text(scenario_to_json(scenario))
    code, out, _ = run(["solve", str(json_path)], capsys)
    assert code == EXIT_OK
    assert math.isclose(json.loads(out)["value"], L_REF, rel_tol=1e-12)


# Malformed command lines and the error each prints; S stands for a scenario path.
USAGE_ERRORS = [
    (["solve", "S", "--tol", "1e-10"], "unrecognized arguments: --tol 1e-10"),
    (["solve", "S", "--bogus"], "unrecognized arguments: --bogus"),
    (["solve", "S", "--case", "banana"], "unrecognized arguments: --case banana"),
    (["limit", "S", "--h0", "10"], "unrecognized arguments: --h0 10"),  # no prefix match to --h0-grid
    (["solve", "S", "--out"], "argument --out: expected one argument"),
    (["profile", "S", "--nx", "abc"], "argument --nx: invalid int value: 'abc'"),
    ([*MANUFACTURE_ARGV, "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (MANUFACTURE_ARGV[:1] + MANUFACTURE_ARGV[3:], "the following arguments are required: --xi"),
    (["solve", "S", "second.ini"], "unrecognized arguments: second.ini"),
    (["resolve", "S"], "invalid choice: 'resolve'"),
    ([], "a subcommand is required"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
def test_usage_errors_exit_one(case_l_path, capsys, argv, message):
    # a usage line, then "mushy <subcommand>: error: ..."
    argv = [str(case_l_path) if token == "S" else token for token in argv]
    code, out, err = run(argv, capsys)
    assert (code, out) == (EXIT_INPUT, "")
    usage, error = err.splitlines()
    prog = " ".join(["mushy", *argv[:1]]) if argv and argv[0] in SUBCOMMAND_OPTIONS else "mushy"
    assert usage.startswith(f"usage: {prog} [-h] ")
    assert error.startswith(f"{prog}: error: {message}")


def test_option_spellings_are_one_option(case_l_path, tmp_path, capsys):
    # --out=F, --out F and --out F before the scenario write the same bytes
    scenario, paths = str(case_l_path), [tmp_path / f"{i}.json" for i in range(3)]
    for argv in ([scenario, f"--out={paths[0]}"], [scenario, "--out", str(paths[1])],
                 ["--out", str(paths[2]), scenario]):
        assert run(["solve", *argv], capsys) == (EXIT_OK, "", "")
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes() != b""
    # --t is kept at each occurrence; any other option's last value wins
    code, out, _ = run(["profile", str(case_l_path), "--t", "2", "--t", "1", "--nx", "9", "--nx", "3"], capsys)
    assert code == EXIT_OK
    profile, fronts = out.split("\n\n")
    assert [line.split(",")[0] for line in fronts.splitlines()[1:]] == ["1.0", "2.0"]
    assert len(profile.splitlines()) == 1 + 2 * 3


SUBCOMMAND_OPTIONS = {
    "solve": ["--out"],
    "profile": ["--nx", "--out", "--t", "--xmax"],
    "limit": ["--h0-grid", "--out"],
    "verify": ["--out"],
    "manufacture": ["--c", "--case", "--epsilon", "--format", "--gamma", "--h0", "--k", "--out", "--problem",
                    "--q0", "--rho", "--xi"],
    "check-restrictions": ["--out"],
}


def test_help_exits_zero(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == EXIT_OK
    assert "usage:" in out
    assert all(sub in out for sub in SUBCOMMAND_OPTIONS)


@pytest.mark.parametrize("sub", list(SUBCOMMAND_OPTIONS))
def test_subcommand_help_lists_its_options(capsys, sub):
    code, out, _ = run([sub, "--help"], capsys)
    assert code == EXIT_OK
    options = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", out)) - {"-h", "--help"}
    assert sorted(options) == SUBCOMMAND_OPTIONS[sub]


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_non_finite_numbers_print_as_valid_json(tmp_path, capsys):
    path = tmp_path / "limit.ini"
    path.write_text(CASE_L_INI.replace("h0 = 2.0", "h0 = inf"))
    code, out, _ = run(["check-restrictions", str(path)], capsys)
    assert code == EXIT_OK
    r1 = _strict_json(out)["restrictions"][0]
    assert r1["id"] == "R1" and r1["rhs"] == "inf" and r1["margin"] == "inf"

    scenario = tmp_path / "made.json"
    code, out, _ = run(
        ["manufacture", "--xi", "0.8", "--k", "2.0", "--rho", "0.7", "--c", "1.3",
         "--epsilon", "0.35", "--gamma", "0.6", "--q0", "1.4", "--h0", "inf",
         "--case", "rho", "--format", "json"], capsys)
    assert code == EXIT_OK
    assert _strict_json(out)["boundary"]["h0"] == "inf"
    scenario.write_text(out)
    code, out, _ = run(["solve", str(scenario)], capsys)
    assert code == EXIT_OK
    assert math.isclose(_strict_json(out)["value"], 0.7, rel_tol=1e-10)


positive_floats = st.floats(min_value=1e-6, max_value=1e6)


@given(k=positive_floats, rho=positive_floats, c=positive_floats,
       gamma=positive_floats, q0=positive_floats, d_inf=positive_floats,
       eps=st.floats(min_value=1e-3, max_value=0.999))
def test_serialization_is_lossless(k, rho, c, gamma, q0, d_inf, eps):
    instance = ProblemInstance(
        face=Face.CONVECTIVE,
        case=UnknownCase.L,
        thermal=ThermalCoefficients(k=k, rho=rho, c=c),
        mushy=MushyCoefficients(epsilon=eps, gamma=gamma),
        boundary=BoundaryData(q0=q0, d_inf=d_inf, h0=2.0),
    )
    assert parse_scenario(scenario_to_ini(instance)) == instance
    assert parse_scenario(scenario_to_json(instance)) == instance


def _python_env():
    """The environment of a fresh interpreter that imports this ``mushy``."""
    import mushy

    return dict(os.environ, PYTHONPATH=str(Path(mushy.__file__).parents[1]))


def test_module_entry_point(case_l_path, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mushy", "solve", str(case_l_path)],
        capture_output=True, text=True, env=_python_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["case"] == "l"


def test_library_warning_is_one_stderr_line(tmp_path):
    # erf_inv warns near saturation: the CLI writes one `warning:` line, as
    # it writes `error:` lines, not the warning's source location and line.
    mushy = [sys.executable, "-m", "mushy"]
    scenario = tmp_path / "s.json"
    subprocess.run([*mushy, "manufacture", "--xi", "5.3", "--k", "1", "--rho", "1", "--c", "1", "--epsilon", "0.5",
                    "--gamma", "1", "--q0", "1", "--h0", "2", "--case", "l", "--format", "json", "--out", str(scenario)],
                   check=True, env=_python_env(), timeout=60)
    proc = subprocess.run([*mushy, "solve", str(scenario)], capture_output=True, text=True, env=_python_env(),
                          timeout=60)
    assert proc.returncode == EXIT_OK
    message = "erf_inv argument 0.9999999999999338 is within 1e-12 of saturation; the result is ill conditioned"
    assert proc.stderr == f"warning: {message}\n"
    doc = json.loads(proc.stdout)
    assert doc["case"] == "l"
    assert list(doc)[-1] == "warnings" and doc["warnings"] == [message]


def test_main_records_warnings_without_touching_the_process_hook(tmp_path, capsys):
    # In-process, main reports a warning as a mushy process does, under the
    # error filter of this suite too, and leaves warnings.showwarning as is.
    scenario = tmp_path / "s.json"
    code, _, _ = run(["manufacture", "--xi", "5.3", "--k", "1", "--rho", "1", "--c", "1", "--epsilon", "0.5",
                      "--gamma", "1", "--q0", "1", "--h0", "2", "--case", "l", "--format", "json",
                      "--out", str(scenario)], capsys)
    assert code == EXIT_OK
    hook = warnings.showwarning
    for _ in range(2):  # each call reports its own warning, as a fresh process would
        code, out, err = run(["solve", str(scenario)], capsys)
        assert code == EXIT_OK and err.startswith("warning: erf_inv argument ") and err.count("\n") == 1
        assert json.loads(out)["warnings"] == [err[len("warning: "):-1]]
    assert warnings.showwarning is hook


def _read_then_close(argv, lines):
    """Exit code and stderr of ``mushy argv`` whose stdout reader takes
    ``lines`` lines and then closes the pipe."""
    proc = subprocess.Popen([sys.executable, "-m", "mushy", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=_python_env())
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


@pytest.mark.parametrize(
    "sub, options, lines",
    [("profile", ["--nx", "10000"], 1), ("solve", [], 0)],
    ids=["profile-reader-leaves-after-one-line", "solve-pipe-closed-before-any-write"],
)
def test_closed_stdout_exits_quietly(case_l_path, sub, options, lines):
    # as in `mushy solve s.json | head -1`
    assert _read_then_close([sub, str(case_l_path), *options], lines) == (EXIT_OK, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("sub, scenario", [("solve", CASE_L_INI), ("profile", CASE_L_INI),
                                           ("solve", CASE_L_INI.replace("q0 = 1.0", "q0 = 99.0"))],
                         ids=["solve", "profile", "solve-restriction-failure"])
def test_full_stdout_is_an_input_error(tmp_path, sub, scenario):
    # as in `mushy solve s.json > /dev/full`: one error line, and no second
    # report from the flush at exit
    path = tmp_path / "s.ini"
    path.write_text(scenario)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "mushy", sub, str(path)], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=_python_env(), timeout=60)
    message = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert (proc.returncode, proc.stderr) == (EXIT_INPUT, f"error: cannot write <stdout>: {message}\n")


#: The process entries, which end through os._exit once main has flushed:
#: the console script's call (perfbench's cli-oneshot entry) and the module's.
ENTRIES = {
    "script": ["-c", "import sys; from mushy.cli import main; sys.exit(main())"],
    "module": ["-m", "mushy"],
}

#: One command line per exit code; {name} is a file of _entry_files.
ENTRY_CASES = {
    "solve": ["solve", "{l}"],
    "help": ["--help"],  # main's only write that it does not flush itself
    "unknown-flag": ["solve", "{l}", "--bogus"],
    "unreadable-scenario": ["solve", "{missing}"],
    "restriction-failure": ["solve", "{q0_99}"],  # its document goes to stdout
    "mu-equals-xi": ["solve", "{gamma_1e-20}"],
    "verify-residual": ["verify", "{gamma_1e-6}"],  # mushy_width 1.56e-10 against 1e-10
    "solve-out": ["solve", "{l}", "--out", "{out}"],
}
ENTRY_EXIT_CODES = {"solve": EXIT_OK, "help": EXIT_OK, "unknown-flag": EXIT_INPUT, "unreadable-scenario": EXIT_INPUT,
                    "restriction-failure": EXIT_RESTRICTION, "mu-equals-xi": EXIT_NUMERICAL,
                    "verify-residual": EXIT_RESIDUAL, "solve-out": EXIT_OK}


def _entry_files(tmp_path, capsys) -> dict:
    """The paths that ENTRY_CASES name: the case-l scenario, the same with
    q0 = 99, the k cases of `manufacture` at gamma 1e-20 and 1e-6, a file
    that does not exist and an --out target."""
    paths = {name: str(tmp_path / f"{name}.ini") for name in ("l", "q0_99", "gamma_1e-20", "gamma_1e-6", "missing")}
    paths["out"] = str(tmp_path / "out.json")
    Path(paths["l"]).write_text(CASE_L_INI)
    Path(paths["q0_99"]).write_text(CASE_L_INI.replace("q0 = 1.0", "q0 = 99.0"))
    for gamma in ("1e-20", "1e-6"):
        argv = ["manufacture", "--xi", "0.5", "--k", "1", "--rho", "1", "--c", "1", "--epsilon", "0.5",
                "--gamma", gamma, "--q0", "1", "--h0", "2", "--case", "k", "--out", paths[f"gamma_{gamma}"]]
        assert run(argv, capsys) == (EXIT_OK, "", "")
    return paths


def _take(path: Path) -> bytes | None:
    """The bytes of ``path``, which is then removed, or None where it is absent."""
    if not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


@pytest.mark.parametrize("case", ENTRY_CASES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_process_entry_writes_what_main_returns(tmp_path, capsys, entry, case):
    # The process ends through os._exit, with no interpreter teardown, so
    # everything main wrote must be flushed first: its exit code, stdout,
    # stderr and --out file are byte for byte those of main(argv) in process.
    # Its stdout is buffered, as it is by default, whatever this one's is.
    paths = _entry_files(tmp_path, capsys)
    argv = [token.format(**paths) for token in ENTRY_CASES[case]]
    out = Path(paths["out"])
    code, stdout, stderr = run(argv, capsys)
    written = _take(out)
    assert code == ENTRY_EXIT_CODES[case], stderr
    assert (written is not None) == (case == "solve-out")
    env = _python_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, *ENTRIES[entry], *argv], capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout.encode(), stderr.encode())
    assert _take(out) == written


#: Ends a process as the console script does, with an atexit handler that
#: reports whether the interpreter's exit ran; TRACED installs a tracer first.
ATEXIT_ENTRY = ("import atexit, sys; {}atexit.register(print, 'atexit ran', file=sys.stderr); "
                "from mushy.cli import main; sys.exit(main())")
TRACED = "sys.settrace(lambda frame, event, arg: None); "


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "settrace"])
def test_a_traced_process_exits_through_sys_exit(case_l_path, traced):
    # Untraced, main ends the process and no atexit handler runs; under a
    # tracer (coverage) it returns, and the interpreter exits as usual.
    code = ATEXIT_ENTRY.format(TRACED if traced else "")
    proc = subprocess.run([sys.executable, "-c", code, "solve", str(case_l_path)], capture_output=True, text=True,
                          env=_python_env(), timeout=60)
    assert proc.returncode == EXIT_OK and json.loads(proc.stdout)["case"] == "l"
    assert proc.stderr == ("atexit ran\n" if traced else "")


def test_a_profiled_process_prints_its_profile(case_l_path, capsys):
    # python -m cProfile -m mushy: the profiler (sys.setprofile, or from
    # Python 3.12 a sys.monitoring tool) prints its table after main returns.
    path = case_l_path.with_suffix(".json")
    path.write_text(scenario_to_json(parse_scenario(CASE_L_INI)))
    _, stdout, _ = run(["solve", str(path)], capsys)
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "mushy", "solve", str(path)],
                          capture_output=True, text=True, env=_python_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout.startswith(stdout)
    assert proc.stdout[len(stdout):].count(" function calls ") == 1


def _run_python(code, cwd):
    """Run ``code`` in a fresh interpreter importing this ``mushy``; its
    last stdout line is JSON."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd,
                          env=_python_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


#: What no mushy process imports: typing and pathlib, argparse and its
#: gettext, dataclasses and its inspect, and __future__, whose deferred
#: annotations Python 3.10 does not need.
FORBIDDEN_IMPORTS = {"typing", "pathlib", "argparse", "gettext", "dataclasses", "inspect", "__future__"}

#: What a mushy process imports only when its subcommand or scenario needs
#: it.  configparser, for an INI scenario, brings in re; json, which also
#: brings in re, is imported only to report a text that is not JSON.
LAZY_IMPORTS = {"configparser", "json", "re", "mushy.inverse_dirichlet", "mushy.verify", "mushy.manufacture"}

STDLIB_OR_MUSHY = sys.stdlib_module_names | {"mushy"}


def _modules_imported_by(args, cwd):
    """The exit code of the process ``python -S *args``, the modules it
    imports and the rest of its stderr.  Without ``site`` no installed
    package is importable, and no ``.pth`` file imports typing, pathlib or
    re before mushy starts."""
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", *args], capture_output=True, text=True,
                          cwd=cwd, env=_python_env(), timeout=60)
    lines = proc.stderr.splitlines(keepends=True)
    names = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    names -= {"imported package"}  # importtime's header line
    rest = "".join(line for line in lines if not line.startswith("import time:"))
    return proc.returncode, names, rest


def test_no_subcommand_imports_typing_or_pathlib(tmp_path):
    # Every subcommand on manufactured scenarios of both faces, in INI and
    # JSON, the bare import, and a JSON text with no value where one must
    # be: 24 processes, each with its own lazy set.  Only that last one
    # imports json, for its error.
    runs = [(["-c", "import mushy.cli"], set(), "")]
    for fmt in ("ini", "json"):
        for face, case in (("convective", "l"), ("dirichlet", "k")):
            options = ["--problem", face, "--case", case, "--format", fmt, "--out", f"{face}.{fmt}"]
            runs.append((["-m", "mushy", *MANUFACTURE_ARGV, *options], {"mushy.manufacture"}, ""))
        for face in ("convective", "dirichlet"):
            reads = {"configparser", "re"} if fmt == "ini" else set()
            subcommands = [["solve"], ["check-restrictions"], ["verify"], ["profile", "--nx", "5"]]
            if face == "dirichlet":
                reads.add("mushy.inverse_dirichlet")
                subcommands.append(["limit"])
            for sub, *options in subcommands:
                lazy = reads | {"mushy.verify"} if sub == "verify" else reads
                runs.append((["-m", "mushy", sub, f"{face}.{fmt}", *options], lazy, ""))
    (tmp_path / "malformed.json").write_text('{"problem": }')
    runs.append((["-m", "mushy", "solve", "malformed.json"], {"json", "re"},
                 "error: invalid JSON scenario: Expecting value: line 1 column 13 (char 12)\n"))
    assert len(runs) == 24
    for args, lazy, error in runs:
        code, imported, err = _modules_imported_by(args, tmp_path)
        assert (code, err) == (EXIT_INPUT if error else EXIT_OK, error), args
        assert "mushy.cli" in imported, args
        assert sorted(name for name in imported if name.partition(".")[0] not in STDLIB_OR_MUSHY) == [], args
        assert not FORBIDDEN_IMPORTS & imported, args
        assert LAZY_IMPORTS & imported == lazy, args


PUBLIC_NAMES = [
    "__version__",
    "Face", "UnknownCase", "ThermalCoefficients", "MushyCoefficients", "BoundaryData", "CaseResult",
    "SolverError", "ValidationError", "DomainError", "RestrictionError", "NumericalError",
    "random_problem", "solve_convective_case", "solve_dirichlet_case",
]

PACKAGE_NAMES = """
import json, sys
import mushy

unknown = [name for name in ("no_such_name", "validate", "erf_inv", "limit_study") if hasattr(mushy, name)]
names = {}
exec("from mushy import *", names)
import mushy.manufacture


def defined(value):  # the object of that name in the module that defines value
    return getattr(sys.modules[value.__module__], value.__name__)


print(json.dumps({
    "public": sorted(n for n in names if n != "__builtins__"),
    "same": all(names[n] is getattr(mushy, n) is defined(names[n]) for n in names if n[0] != "_"),
    "convective": mushy.solve_convective_case is sys.modules["mushy.inverse_convective"].solve_case,
    "manufacture": mushy.manufacture is sys.modules["mushy.manufacture"],
    "dir": set(mushy.__all__) <= set(dir(mushy)),
    "unknown": unknown == [],
}))
"""


def test_package_names_resolve_on_first_use(tmp_path):
    import mushy

    assert sorted(mushy.__all__) == sorted(PUBLIC_NAMES)
    result = _run_python(PACKAGE_NAMES, tmp_path)
    assert result.pop("public") == sorted(PUBLIC_NAMES)
    assert result == dict.fromkeys(result, True)


def _assert_repr_numbers(tokens):
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            continue  # a label, a verdict or a region name
        assert tok == repr(value)


def test_output_numbers_are_shortest_round_trip(case_l_path, dirichlet_gamma_path, capsys):
    manufacture = ["manufacture", "--xi", "0.8", "--k", "2.0", "--rho", "0.7", "--c", "1.3",
                   "--epsilon", "0.35", "--gamma", "0.1", "--q0", "1.4", "--h0", "3.0", "--case", "rho"]
    for argv in (["solve", str(case_l_path)], ["check-restrictions", str(case_l_path)],
                 ["limit", str(dirichlet_gamma_path)], manufacture + ["--format", "json"]):
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    code, out, _ = run(["profile", str(case_l_path), "--nx", "5"], capsys)
    assert code == EXIT_OK
    _assert_repr_numbers(re.split(r"[,\n]", out))

    code, out, _ = run(manufacture, capsys)
    assert code == EXIT_OK
    values = [line.split(" = ")[1] for line in out.splitlines() if " = " in line]
    assert "0.1" in values  # gamma
    _assert_repr_numbers(values)


# sha256 of stdout, and the exit code, of each report on five scenarios: the
# README case-l scenario and a manufactured Dirichlet gamma one, each also
# restated for the unknown k with the former unknown at its true value, and
# case-l restated for the Dirichlet face.  A change to any byte these
# commands print changes a digest; limit refuses the two convective ones.
REPORT_DIGESTS = {
    "solve case-l": (0, "cd0e5d71f3d3880803adee7f844d7a06dc4d0b929789fc8103acdeac98c68193"),
    "check-restrictions case-l": (0, "31c997a646b21e328ae88a733ecb1c9527b2327f5ac077a1393cc33ffa3e5799"),
    "verify case-l": (0, "dcf585caa64fb52e616486c58415ee5882ff313de73379ae1009b0ae99bfbb1d"),
    "limit case-l": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "profile case-l": (0, "8f51d992d615da74eba2c1dc3fa3b9e096459c4c250705858b83d4b349640dbf"),
    "solve case-l-k": (0, "f7fbe1311e08dbcaf6be4767168549c601808f5fdaa693379f778fd9f0b9b85f"),
    "check-restrictions case-l-k": (0, "ed6105a322ca2efd4dafa8fa01c1ba39603a1974281fc788cbc0d6daf9cc42c1"),
    "verify case-l-k": (0, "ab0e7b22c4e53bceea17ba8d014ef080cccf180e10736ae3da8889dec495091f"),
    "limit case-l-k": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "profile case-l-k": (0, "31a048a8a127b08d579b1c3d860f82d5c35fc79a81d03e11ef186bc1433eab95"),
    "solve case-l-dirichlet": (0, "1e793290c3ddd0f6a4c61ba8446c1a1537feafa83cf6c13d650c8f818cd982b5"),
    "check-restrictions case-l-dirichlet": (0, "5c54fa26a232f31a0ed90592710f7d56b7174562c6580b41265d941cfdaedcd4"),
    "verify case-l-dirichlet": (0, "a7bf9b6e282da27ede68217cef2d648c717d58295513d8b437ebeee86e99d306"),
    "limit case-l-dirichlet": (0, "9791fb1e2764f0635b52a693344c774e5e9d229d717c5b80bd181de5568df21a"),
    "profile case-l-dirichlet": (0, "0fa033ca7a812984769a4dbf29be6d59a071995ffe9d5c4ae25f84b798ff027e"),
    "solve dirichlet-gamma": (0, "8c7cc4b202caa7fbc26f08c4b352fd72fd4be5342dd0e900a0a306a57296442a"),
    "check-restrictions dirichlet-gamma": (0, "5ab038914f8e1350d4f441c4177d90c5213a2439cf8ea43fe8bf2b8b550ba18c"),
    "verify dirichlet-gamma": (0, "5813d865addd9623dc3339679cc05ee785ea17d48b30dfdc2e959640feb42556"),
    "limit dirichlet-gamma": (0, "4d5b377864bdccc017d2fe7059074dba24d36bf63ed5bce36979c328d0b556dd"),
    "profile dirichlet-gamma": (0, "348b5afc7f8afc430931f4084d373ec0e847522a78c07fa076d06f31ce209793"),
    "solve dirichlet-gamma-k": (0, "083978d31f871fa476ba8b06da807469d09e353fe71103a761575adec28589fe"),
    "check-restrictions dirichlet-gamma-k": (0, "de4523c5376f76c1ffd7d4b1ce0656899b514ac934cc9561898f33e015a9b594"),
    "verify dirichlet-gamma-k": (0, "a7cc284b1ff48fdbc1651218ab6a80f7923bfb77254afa1ee1598f2cc962b4a1"),
    "limit dirichlet-gamma-k": (0, "22ae4ac339d3ccbdd5a650a3bc25f4776cec6a6b37e99c83089cd953386d9bd0"),
    "profile dirichlet-gamma-k": (0, "ca67294a87613e52bd59a84079fc7692a7cce3050b65376ff344375cfd6384e5"),
}


def test_report_bytes_are_pinned(case_l_path, dirichlet_gamma_path, tmp_path, capsys):
    scenarios = {}
    for label, path, known in (("case-l", case_l_path, f"l = {L_REF!r}"),
                               ("dirichlet-gamma", dirichlet_gamma_path, "gamma = 1.72")):
        text = path.read_text()
        scenarios[label] = text
        scenarios[f"{label}-k"] = restate(text.replace("[coefficients]\n", f"[coefficients]\n{known}\n"), case="k")
    scenarios["case-l-dirichlet"] = restate(case_l_path.read_text(), problem="dirichlet")
    digests = {}
    for label, text in scenarios.items():
        path = tmp_path / f"{label}.ini"
        path.write_text(text)
        for sub, options in (("solve", []), ("check-restrictions", []), ("verify", []),
                             ("limit", []), ("profile", ["--nx", "5"])):
            code, out, _ = run([sub, str(path), *options], capsys)
            digests[f"{sub} {label}"] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert digests == REPORT_DIGESTS
