import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mushy.cli import (
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_RESIDUAL,
    EXIT_RESTRICTION,
    Scenario,
    main,
    parse_scenario,
    scenario_to_ini,
    scenario_to_json,
)
from mushy.errors import ValidationError
from mushy.model import BoundaryData, Face, MushyCoefficients, ThermalCoefficients, UnknownCase

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


def test_solve_csv_format(case_l_path, capsys):
    code, out, _ = run(["solve", str(case_l_path), "--format", "csv"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "key,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert math.isclose(float(table["value"]), L_REF, rel_tol=1e-12)
    assert table["restrictions.R1.satisfied"] == "true"


def test_solve_writes_output_file(case_l_path, tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = run(["solve", str(case_l_path), "--out", str(out_path)], capsys)
    assert code == EXIT_OK and out == ""
    assert math.isclose(json.loads(out_path.read_text())["value"], L_REF, rel_tol=1e-12)


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


def test_verify_consistent_scenario_passes(case_l_path, capsys):
    code, out, _ = run(["verify", str(case_l_path)], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["pde_residual_max"] < 1e-6
    assert set(doc["condition_residuals"]) == {"fusion_at_s", "stefan", "mushy_width", "flux", "face"}


def test_verify_detects_front_perturbation(case_l_path, capsys):
    code, out, _ = run(["verify", str(case_l_path), "--xi-perturb", "1e-3"], capsys)
    assert code == EXIT_RESIDUAL
    assert json.loads(out)["failures"] == ["face", "stefan"]


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


def test_profile_files(case_l_path, tmp_path, capsys):
    out_path = tmp_path / "profile.csv"
    code, _, err = run(["profile", str(case_l_path), "--out", str(out_path)], capsys)
    assert code == EXIT_OK
    fronts = tmp_path / "profile.fronts.csv"
    assert out_path.exists() and fronts.exists()
    assert str(fronts) in err
    body = out_path.read_text().splitlines()
    assert len(body) == 51  # header + default 50 points


def test_profile_rejects_nonpositive_time(case_l_path, capsys):
    for flag, value in [("--t", "0"), ("--t", "nan"), ("--t", "inf"),
                        ("--xmax", "-1"), ("--xmax", "nan"), ("--xmax", "inf")]:
        code, out, err = run(["profile", str(case_l_path), f"{flag}={value}"], capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: {flag} must be a positive finite number")


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


def test_limit_study_csv(dirichlet_gamma_path, capsys):
    code, out, _ = run(
        ["limit", str(dirichlet_gamma_path), "--format", "csv", "--h0-grid", "10,100,1000,10000"],
        capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "h0,xi_conv,delta_xi,coefficient"
    assert len([l for l in lines if not l.startswith("#")]) == 5
    slope_line = next(l for l in lines if l.startswith("# fitted_slope"))
    assert abs(float(slope_line.split("=")[1]) + 1.0) < 0.1


def test_limit_study_json_reports_exclusions(dirichlet_gamma_path, capsys):
    code, out, _ = run(
        ["limit", str(dirichlet_gamma_path), "--h0-grid", "0.4,100,1000,10000"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["rows"]) == 3
    assert doc["excluded"][0]["failed"] == ["R1"]
    assert abs(doc["fitted_slope"] + 1.0) < 0.15


def test_limit_requires_dirichlet_scenario(case_l_path, capsys):
    code, _, err = run(["limit", str(case_l_path)], capsys)
    assert code == EXIT_INPUT
    assert "dirichlet" in err


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


def test_restriction_failure_follows_format(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(CASE_L_INI.replace("h0 = 2.0", "h0 = 0.5"))
    code, out, err = run(["solve", str(path), "--format", "csv"], capsys)
    assert code == EXIT_RESTRICTION
    assert err.startswith("error:")
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "error,restriction failure" in lines
    assert "restrictions.R1.satisfied,false" in lines


JSON_COEFFICIENTS_LIST = '{"problem": {"type": "convective", "case": "l"}, "coefficients": [1, 2]}'
JSON_PROBLEM_STRING = '{"problem": "convective"}'


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
    ],
)
def test_malformed_scenarios_exit_one(tmp_path, capsys, mutate):
    path = tmp_path / "broken.ini"
    path.write_text(mutate(CASE_L_INI))
    code, _, err = run(["solve", str(path)], capsys)
    assert code == EXIT_INPUT
    assert err.startswith("error:")


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
        ["--h0-min", "0"],
        ["--h0-min", "-5"],
        ["--h0-max", "0"],
        ["--points", "10001"],
    ],
)
def test_malformed_limit_grids_exit_one(dirichlet_gamma_path, capsys, argv):
    code, out, err = run(["limit", str(dirichlet_gamma_path)] + argv, capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("flag", ["--tol-residual", "--pde-tol", "--t", "--fd-step"])
@pytest.mark.parametrize("value", ["nan", "-1e-10", "inf"])
def test_verify_rejects_unusable_tolerances(case_l_path, capsys, flag, value):
    # a NaN bound would pass every residual, since value > nan is false
    code, out, err = run(["verify", str(case_l_path), f"{flag}={value}"], capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: {flag} must be a ")


@pytest.mark.parametrize(
    "flag, value",
    # xi = 0.5 here, so a perturbation of -1 moves it below zero
    [("--xi-perturb", "nan"), ("--xi-perturb", "inf"), ("--xi-perturb", "-1"), ("--x-fracs", "0,1.5")],
)
def test_verify_names_the_flag_of_a_bad_sample(case_l_path, capsys, flag, value):
    code, out, err = run(["verify", str(case_l_path), f"{flag}={value}"], capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: {flag} must be ")


def test_missing_file_exits_one(tmp_path, capsys):
    code, _, err = run(["solve", str(tmp_path / "nope.ini")], capsys)
    assert code == EXIT_INPUT


def test_unsolvable_direct_data_exit_numerical(direct_path, tmp_path, capsys):
    text = direct_path.read_text().replace(f"l = {L_REF!r}", "l = 1e9")
    path = tmp_path / "noroot.ini"
    path.write_text(text)
    code, _, err = run(["solve", str(path)], capsys)
    assert code == EXIT_NUMERICAL


def test_case_override_reuses_direct_scenario(direct_path, capsys):
    # l is a bulk coefficient, gamma and epsilon belong to the mushy zone
    for case, truth in (("l", L_REF), ("gamma", 0.1), ("epsilon", 0.5)):
        code, out, _ = run(["solve", str(direct_path), "--case", case], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["case"] == case
        assert math.isclose(doc["value"], truth, rel_tol=1e-12)


def test_problem_override_to_dirichlet(case_l_path, capsys):
    code, out, _ = run(
        ["solve", str(case_l_path), "--problem", "dirichlet"], capsys)
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


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--tol", "1e-10"],
        ["solve", "--bogus"],
        ["solve", "--case", "banana"],
        ["verify", "--tol", "1e-10"],  # no prefix match to --tol-residual
    ],
)
def test_usage_errors_exit_one(case_l_path, capsys, argv):
    code, out, err = run(argv[:1] + [str(case_l_path)] + argv[1:], capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert "usage:" in err


SUBCOMMAND_OPTIONS = {
    "solve": ["--case", "--format", "--out", "--problem"],
    "profile": ["--case", "--nx", "--out", "--problem", "--t", "--xmax"],
    "limit": ["--case", "--format", "--h0-grid", "--h0-max", "--h0-min", "--out", "--points", "--problem"],
    "verify": ["--case", "--fd-step", "--format", "--out", "--pde-tol", "--problem", "--t", "--tol-residual",
               "--x-fracs", "--xi-perturb"],
    "manufacture": ["--c", "--case", "--epsilon", "--format", "--gamma", "--h0", "--k", "--out", "--problem",
                    "--q0", "--rho", "--xi"],
    "check-restrictions": ["--case", "--format", "--out", "--problem"],
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
    scenario = Scenario(
        problem=Face.CONVECTIVE,
        case=UnknownCase.L,
        thermal=ThermalCoefficients(k=k, rho=rho, c=c),
        mushy=MushyCoefficients(epsilon=eps, gamma=gamma),
        boundary=BoundaryData(q0=q0, d_inf=d_inf, h0=2.0),
    )
    assert parse_scenario(scenario_to_ini(scenario)) == scenario
    assert parse_scenario(scenario_to_json(scenario)) == scenario


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


def _run_python(code, cwd):
    """Run ``code`` in a fresh interpreter importing this ``mushy``; its
    last stdout line is JSON."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd,
                          env=_python_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADS_PER_COMMAND = """
import contextlib, io, json, sys
from mushy.cli import main

WATCHED = ("mushy.verify", "mushy.manufacture", "mushy.inverse_dirichlet", "configparser")
loaded = {}
for label, argv in [
    ("import", None),
    ("solve-json", ["solve", "case_l.json"]),
    ("solve-ini", ["solve", "case_l.ini"]),
    ("solve-dirichlet", ["solve", "case_l.json", "--problem", "dirichlet"]),
    ("verify", ["verify", "case_l.json"]),
    ("manufacture", ["manufacture", "--xi", "0.5", "--k", "1", "--rho", "1", "--c", "1",
                     "--epsilon", "0.5", "--gamma", "0.1", "--q0", "1", "--h0", "2"]),
]:
    if argv is not None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    loaded[label] = [name for name in WATCHED if name in sys.modules]
print(json.dumps(loaded))
"""


def test_each_subcommand_imports_only_what_it_runs(case_l_path, tmp_path):
    (tmp_path / "case_l.json").write_text(scenario_to_json(parse_scenario(case_l_path.read_text())))
    (tmp_path / "case_l.ini").write_text(case_l_path.read_text())
    loaded = _run_python(LOADS_PER_COMMAND, tmp_path)
    assert loaded["import"] == []
    assert loaded["solve-json"] == []
    assert loaded["solve-ini"] == ["configparser"]
    assert loaded["solve-dirichlet"] == ["mushy.inverse_dirichlet", "configparser"]
    assert loaded["verify"] == ["mushy.verify", "mushy.inverse_dirichlet", "configparser"]
    assert loaded["manufacture"] == ["mushy.verify", "mushy.manufacture", "mushy.inverse_dirichlet", "configparser"]


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
                 manufacture + ["--format", "json"]):
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    for argv in (["solve", str(case_l_path), "--format", "csv"],
                 ["check-restrictions", str(case_l_path), "--format", "csv"],
                 ["profile", str(case_l_path), "--nx", "5"],
                 ["limit", str(dirichlet_gamma_path), "--format", "csv"]):
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        _assert_repr_numbers(re.split(r"[,\n]| = ", out))

    code, out, _ = run(manufacture, capsys)
    assert code == EXIT_OK
    values = [line.split(" = ")[1] for line in out.splitlines() if " = " in line]
    assert "0.1" in values  # gamma
    _assert_repr_numbers(values)
