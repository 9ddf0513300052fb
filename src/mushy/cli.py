"""Command-line interface.

Subcommands: solve, profile, limit, verify, manufacture, check-restrictions.
Scenario files are INI-style key-value sections (JSON bodies with the same
structure are accepted interchangeably)::

    [problem]
    type = convective        ; or dirichlet
    case = l                 ; l gamma epsilon k rho c, or direct

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

Exactly the coefficient named by ``case`` is omitted (none for ``direct``).
Exit codes: 0 success, 1 input error (a malformed command line included),
2 restriction failure, 3 numerical failure, 4 verification residual
failure.  Machine-readable output writes every float as Python's repr, the
shortest string that reads back as the same double; non-finite numbers are
written as the strings "inf", "-inf" and "nan", also in JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

# Only what a convective solve runs is imported here; configparser, verify,
# manufacture and inverse_dirichlet are imported where they are used, so a
# process loads what its subcommand needs.  perfbench's tracer rebinds
# validate, build_solution and solve_increasing on this module, and reaches
# the case solvers through their modules' attributes.
from . import inverse_convective
from .direct import (
    build_solution,
    consistency_residuals,
    front_r,
    front_s,
    mushy_strength,
    stefan_lhs,
    stefan_lhs_derivative,
    stefan_rhs,
    temperature,
)
from .errors import (
    DomainError,
    RestrictionError,
    SolverError,
    ValidationError,
)
from .model import (
    BoundaryData,
    CaseResult,
    Face,
    MushyCoefficients,
    ProblemInstance,
    RestrictionReport,
    SimilaritySolution,
    ThermalCoefficients,
    UnknownCase,
    validate,
    with_coefficient,
)
from .rootfind import MonotoneEquation, solve_increasing

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESTRICTION = 2
EXIT_NUMERICAL = 3
EXIT_RESIDUAL = 4

#: Upper bound on ``profile --nx`` and ``limit --points``: each point costs a
#: row of output (and a convective solve in ``limit``).
MAX_GRID_POINTS = 10_000

_SECTIONS = ("problem", "coefficients", "boundary")


def _strict(obj):
    """``obj`` with each non-finite float replaced by its repr, "inf", "-inf"
    or "nan", which strict JSON can carry and the scenario parser reads back."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _json_text(doc: dict) -> str:
    return json.dumps(_strict(doc), indent=2, allow_nan=False)


# --- scenario files ---------------------------------------------------------


class Scenario(NamedTuple):
    """Parsed scenario file, prior to physical validation: a key the file
    leaves out is None in its record."""

    problem: Face
    case: Optional[UnknownCase]
    thermal: ThermalCoefficients
    mushy: MushyCoefficients
    boundary: BoundaryData


def _parse_case(token: str) -> Optional[UnknownCase]:
    if token == "direct":
        return None
    try:
        return UnknownCase(token)
    except ValueError:
        raise ValidationError(
            f"unknown case {token!r}; expected one of l, gamma, epsilon, k, rho, c, direct"
        ) from None


def _case_name(case: Optional[UnknownCase]) -> str:
    return case.value if case else "direct"


def _to_float(section: str, key: str, raw) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"[{section}] {key} = {raw!r} is not a number") from None


def _check_keys(section: str, present, allowed: tuple[str, ...]) -> None:
    extra = sorted(set(present) - set(allowed))
    if extra:
        raise ValidationError(f"unknown key(s) {', '.join(extra)} in [{section}]")


def _keys(*records: type) -> tuple[str, ...]:
    return tuple(f.name for record in records for f in fields(record))


def _record(record: type, section: str, values: dict):
    """``record`` with its fields read from one scenario section."""
    return record(**{
        key: _to_float(section, key, values[key]) if key in values else None for key in _keys(record)
    })


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario from INI or JSON text (sniffed by the first byte)."""
    stripped = text.lstrip()
    if not stripped:
        raise ValidationError("scenario file is empty")
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValidationError(f"invalid JSON scenario: {err}") from None
        sections = {name: {} if doc.get(name) is None else doc[name] for name in _SECTIONS}
        for name, section in sections.items():
            if not isinstance(section, dict):
                raise ValidationError(f"[{name}] section must be a JSON object, got {section!r}")
        doc.pop("_truth", None)  # advisory block written by `manufacture`
        _check_keys("<top level>", doc, _SECTIONS)
    else:
        import configparser

        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            cp.read_string(text)
        except configparser.Error as err:
            raise ValidationError(f"invalid scenario file: {err}") from None
        _check_keys("<top level>", cp.sections(), _SECTIONS)
        sections = {name: dict(cp[name]) if cp.has_section(name) else {} for name in _SECTIONS}

    problem_sec = {str(k): v for k, v in sections["problem"].items()}
    _check_keys("problem", problem_sec, ("type", "case"))
    if "type" not in problem_sec:
        raise ValidationError("[problem] section must set `type`")
    try:
        face = Face(str(problem_sec["type"]).strip().lower())
    except ValueError:
        raise ValidationError(
            f"unknown problem type {problem_sec['type']!r}; expected convective or dirichlet"
        ) from None
    case = _parse_case(str(problem_sec.get("case", "direct")).strip().lower())

    coefficients = sections["coefficients"]
    _check_keys("coefficients", coefficients, _keys(ThermalCoefficients, MushyCoefficients))
    _check_keys("boundary", sections["boundary"], _keys(BoundaryData))
    return Scenario(
        problem=face,
        case=case,
        thermal=_record(ThermalCoefficients, "coefficients", coefficients),
        mushy=_record(MushyCoefficients, "coefficients", coefficients),
        boundary=_record(BoundaryData, "boundary", sections["boundary"]),
    )


def load_scenario(path: Path) -> Scenario:
    try:
        text = path.read_text()
    except OSError as err:
        raise ValidationError(f"cannot read scenario {path}: {err}") from None
    return parse_scenario(text)


def _given(record) -> dict:
    return {key: value for key, value in vars(record).items() if value is not None}


def _scenario_doc(scenario: Scenario) -> dict:
    """The scenario's sections, each with the keys it sets, in field order."""
    return {
        "problem": {"type": scenario.problem.value, "case": _case_name(scenario.case)},
        "coefficients": {**_given(scenario.thermal), **_given(scenario.mushy)},
        "boundary": _given(scenario.boundary),
    }


def scenario_to_ini(scenario: Scenario, truth: Optional[tuple[str, float]] = None) -> str:
    """Canonical INI serialization; parsing it back reproduces the scenario.
    ``truth`` is written as a comment that closes the coefficients."""
    lines = []
    for section, values in _scenario_doc(scenario).items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())  # a float's str is its repr
        if section == "coefficients" and truth is not None:
            lines.append(f"; true {truth[0]} = {truth[1]!r}")
        lines.append("")
    return "\n".join(lines)


def scenario_to_json(scenario: Scenario, truth: Optional[tuple[str, float]] = None) -> str:
    doc = _scenario_doc(scenario)
    if truth is not None:
        doc["_truth"] = {truth[0]: truth[1]}
    return _json_text(doc) + "\n"


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    """--problem/--case flags override the scenario file.

    Overriding the case drops the matching coefficient from the data, so a
    fully specified (direct) scenario can be re-solved for any unknown.
    """
    if getattr(args, "problem", None):
        scenario = scenario._replace(problem=Face(args.problem))
    if getattr(args, "case", None):
        case = _parse_case(args.case)
        thermal, mushy = scenario.thermal, scenario.mushy
        if case is not None:
            thermal, mushy = with_coefficient(thermal, mushy, case, None)
        scenario = scenario._replace(case=case, thermal=thermal, mushy=mushy)
    return scenario


def _validated(scenario: Scenario) -> ProblemInstance:
    return validate(scenario.thermal, scenario.mushy, scenario.boundary, case=scenario.case, face=scenario.problem)


# --- solving ----------------------------------------------------------------


def _solve_direct_xi(instance: ProblemInstance) -> float:
    """xi for a fully specified data set, from the front balance.

    The face condition is then a derived quantity: its residual reveals
    whether the data are actually consistent.
    """
    strength = mushy_strength(instance.thermal, instance.mushy, instance.boundary)
    eq = MonotoneEquation(
        f=lambda x: stefan_lhs(x, strength),
        target=stefan_rhs(instance.thermal, instance.boundary),
        lower_limit=strength,
        df=lambda x: stefan_lhs_derivative(x, strength),
        name="front balance",
    )
    return solve_increasing(eq)


def _solve(
    args: argparse.Namespace,
) -> tuple[Scenario, ProblemInstance, Optional[CaseResult], SimilaritySolution]:
    """The scenario of ``args`` (overrides applied), solved.

    Returns the scenario, the completed direct instance (the recovered
    value filled in), the case result (None in direct mode) and the
    solution.
    """
    scenario = _apply_overrides(load_scenario(Path(args.scenario)), args)
    instance = _validated(scenario)
    if scenario.case is None:
        xi = _solve_direct_xi(instance)
        return scenario, instance, None, build_solution(instance.thermal, instance.mushy, instance.boundary, xi)
    if scenario.problem is Face.CONVECTIVE:
        solve_case = inverse_convective.solve_case
    else:
        from . import inverse_dirichlet

        solve_case = inverse_dirichlet.solve_dirichlet_case
    result = solve_case(scenario.case, instance.thermal, instance.mushy, instance.boundary)
    thermal, mushy = with_coefficient(instance.thermal, instance.mushy, scenario.case, result.value)
    instance = instance._replace(case=None, thermal=thermal, mushy=mushy)
    return scenario, instance, result, result.solution


def _report_doc(report: RestrictionReport) -> dict:
    doc = {
        "id": report.restriction_id,
        "satisfied": report.satisfied,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "margin": report.margin,
    }
    if report.note:
        doc["note"] = report.note
    return doc


def _write(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        out.write_text(text if text.endswith("\n") else text + "\n")


def _flatten(doc: dict, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    label = item.get("id", str(i))
                    rows.extend(_flatten({k: v for k, v in item.items() if k != "id"}, f"{name}.{label}."))
                else:
                    rows.append((f"{name}.{i}", _csv_cell(item)))
        else:
            rows.append((name, _csv_cell(value)))
    return rows


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # a float's str is its repr


def _emit_doc(doc: dict, fmt: str, out: Optional[Path]) -> None:
    if fmt == "csv":
        _write("key,value\n" + "".join(f"{key},{value}\n" for key, value in _flatten(doc)), out)
    else:
        _write(_json_text(doc), out)


def _check_positive(flag: str, *values: float) -> None:
    for value in values:
        if not 0.0 < value < math.inf:
            raise ValidationError(f"{flag} must be a positive finite number, got {value!r}")


# --- subcommands ------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    scenario, instance, result, solution = _solve(args)
    residuals = consistency_residuals(
        instance.thermal, instance.mushy, instance.boundary, solution.xi, instance.face
    )
    doc: dict = {"problem": scenario.problem.value, "case": _case_name(scenario.case)}
    if result is not None:
        doc["coefficient"] = result.case.value
        doc["value"] = result.value
    doc.update(
        xi=solution.xi,
        mu=solution.mu,
        alpha=solution.alpha,
        a_coef=solution.a_coef,
        b_coef=solution.b_coef,
        restrictions=[_report_doc(r) for r in (result.reports if result else ())],
        residuals={"stefan": residuals.res_stefan, "face": residuals.res_face},
    )
    _emit_doc(doc, args.format, args.out)
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    times = sorted(args.t or [1.0])
    _check_positive("--t", *times)
    if args.xmax is not None:
        _check_positive("--xmax", args.xmax)
    if args.nx < 2:
        raise ValidationError("--nx must be at least 2")
    if args.nx > MAX_GRID_POINTS:
        raise ValidationError(f"--nx must be at most {MAX_GRID_POINTS}")
    solution = _solve(args)[3]

    profile = io.StringIO()
    profile.write("t,x,temperature,region\n")
    for t in times:
        xmax = args.xmax if args.xmax is not None else 1.1 * front_r(solution, t)
        step = xmax / (args.nx - 1)
        for i in range(args.nx):
            x = i * step
            value, region = temperature(solution, x, t)
            profile.write(f"{t!r},{x!r},{value!r},{region.value}\n")

    fronts = io.StringIO()
    fronts.write("t,s,r\n")
    for t in times:
        fronts.write(f"{t!r},{front_s(solution, t)!r},{front_r(solution, t)!r}\n")

    if args.out is None:
        sys.stdout.write(profile.getvalue())
        sys.stdout.write("\n")
        sys.stdout.write(fronts.getvalue())
    else:
        out = Path(args.out)
        out.write_text(profile.getvalue())
        fronts_path = out.with_name(out.stem + ".fronts.csv")
        fronts_path.write_text(fronts.getvalue())
        sys.stderr.write(f"wrote {out} and {fronts_path}\n")
    return EXIT_OK


def cmd_limit(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(load_scenario(Path(args.scenario)), args)
    if scenario.problem is not Face.DIRICHLET:
        raise ValidationError("the limit study needs a dirichlet scenario (the convective side is generated)")
    if scenario.case is None:
        raise ValidationError("the limit study needs an unknown coefficient, not a direct scenario")
    instance = _validated(scenario)

    if args.h0_grid is not None:
        try:
            grid = tuple(float(tok) for tok in args.h0_grid.split(","))
        except ValueError:
            raise ValidationError(f"--h0-grid must be comma-separated numbers, got {args.h0_grid!r}") from None
    else:
        if args.points < 2:
            raise ValidationError("--points must be at least 2")
        if args.points > MAX_GRID_POINTS:
            raise ValidationError(f"--points must be at most {MAX_GRID_POINTS}")
        if not (args.h0_min > 0.0 and args.h0_max > 0.0):
            raise ValidationError("--h0-min and --h0-max must be positive")
        lo, hi = math.log10(args.h0_min), math.log10(args.h0_max)
        grid = tuple(10.0 ** (lo + (hi - lo) * i / (args.points - 1)) for i in range(args.points))
    if any(not (h > 0.0 and math.isfinite(h)) for h in grid):
        raise ValidationError("h0 grid entries must be positive finite numbers")
    was_sorted = list(grid) == sorted(grid)

    from . import inverse_dirichlet

    study = inverse_dirichlet.limit_study(
        scenario.case, instance.thermal, instance.mushy, instance.boundary, grid
    )

    rows = [
        {"h0": h0, "xi_conv": xc, "delta_xi": abs(xc - study.xi_dirichlet), "coefficient": cc}
        for h0, xc, cc in zip(study.h0_grid, study.xi_conv, study.coeff_conv)
    ]
    if args.format == "json":
        doc = {
            "case": scenario.case.value,
            "xi_dirichlet": study.xi_dirichlet,
            "coefficient_dirichlet": study.coeff_dirichlet,
            "fitted_slope": study.fitted_slope,
            "rows": rows,
            "excluded": [
                {"h0": h0, "failed": [r.restriction_id for r in reports if not r.satisfied]}
                for h0, reports in study.excluded
            ],
        }
        if not was_sorted:
            doc["note"] = "h0 grid was unsorted; processed in ascending order"
        _emit_doc(doc, "json", args.out)
    else:
        buf = io.StringIO()
        buf.write("h0,xi_conv,delta_xi,coefficient\n")
        for row in rows:
            buf.write(",".join(repr(row[k]) for k in ("h0", "xi_conv", "delta_xi", "coefficient")) + "\n")
        buf.write(f"# xi_dirichlet = {study.xi_dirichlet!r}\n")
        buf.write(f"# coefficient_dirichlet = {study.coeff_dirichlet!r}\n")
        slope = "undefined (fewer than two usable grid points)" if study.fitted_slope is None else repr(study.fitted_slope)
        buf.write(f"# fitted_slope = {slope}\n")
        for h0, reports in study.excluded:
            failed = ",".join(r.restriction_id for r in reports if not r.satisfied)
            buf.write(f"# excluded h0 = {h0!r} ({failed})\n")
        if not was_sorted:
            buf.write("# note: h0 grid was unsorted; processed in ascending order\n")
        _write(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    for flag, tol in (("--tol-residual", args.tol_residual), ("--pde-tol", args.pde_tol)):
        # a NaN bound would pass every residual: value > nan is always false
        if not (0.0 <= tol < math.inf):
            raise ValidationError(f"{flag} must be a finite non-negative number, got {tol!r}")
    times = sorted(args.t or [0.5, 1.0, 2.0])
    _check_positive("--t", *times)
    fracs = args.x_fracs or [0.3, 0.5, 0.7]
    if any(not 0.0 < f < 1.0 for f in fracs):
        raise ValidationError(f"--x-fracs must be fractions strictly inside (0, 1), got {fracs!r}")
    if not 0.0 < args.fd_step < 0.5:
        raise ValidationError(f"--fd-step must be a number inside (0, 0.5), got {args.fd_step!r}")
    if not math.isfinite(args.xi_perturb):
        raise ValidationError(f"--xi-perturb must be a finite number, got {args.xi_perturb!r}")
    scenario, instance, _, solution = _solve(args)
    xi = solution.xi
    if args.xi_perturb:
        if not xi + args.xi_perturb > 0.0:
            raise ValidationError(f"--xi-perturb must be greater than -xi = {-xi!r}, got {args.xi_perturb!r}")
        xi += args.xi_perturb
        solution = build_solution(instance.thermal, instance.mushy, instance.boundary, xi)
    xs = [f * front_s(solution, min(times)) for f in fracs]

    conditions = verify.condition_residuals(
        solution, instance.thermal, instance.mushy, instance.boundary, times, instance.face
    )
    fd = verify.pde_residual(solution, xs, times, fd_step=args.fd_step)

    failures = sorted(
        name for name, value in conditions.condition_residuals.items() if value > args.tol_residual
    )
    if fd.pde_residual_max > args.pde_tol:
        failures.insert(0, "pde")
    doc = {
        "problem": scenario.problem.value,
        "case": _case_name(scenario.case),
        "xi": xi,
        "xi_perturbation": args.xi_perturb,
        "condition_residuals": dict(sorted(conditions.condition_residuals.items())),
        "pde_residual_max": fd.pde_residual_max,
        "fd_step": args.fd_step,
        "condition_tolerance": args.tol_residual,
        "pde_tolerance": args.pde_tol,
        "failures": failures,
        "passed": not failures,
    }
    _emit_doc(doc, args.format, args.out)
    return EXIT_OK if not failures else EXIT_RESIDUAL


def cmd_manufacture(args: argparse.Namespace) -> int:
    from .manufacture import manufacture

    problem = manufacture(
        xi=args.xi,
        k=args.k,
        rho=args.rho,
        c=args.c,
        epsilon=args.epsilon,
        gamma=args.gamma,
        q0=args.q0,
        h0=args.h0,
        face=Face(args.problem),
    )
    case = _parse_case(args.case) if args.case else None
    thermal, mushy, truth = problem.thermal, problem.mushy, None
    if case is not None:
        thermal, mushy, value = problem.hide(case)
        truth = (case.value, value)
    scenario = Scenario(problem=problem.face, case=case, thermal=thermal, mushy=mushy, boundary=problem.boundary)
    text = scenario_to_json(scenario, truth) if args.format == "json" else scenario_to_ini(scenario, truth)
    _write(text, args.out)
    return EXIT_OK


def cmd_check_restrictions(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(load_scenario(Path(args.scenario)), args)
    instance = _validated(scenario)
    reports: tuple[RestrictionReport, ...] = ()
    if scenario.case is not None:
        if scenario.problem is Face.CONVECTIVE:
            inverse = inverse_convective
        else:
            from . import inverse_dirichlet as inverse
        reports = inverse.check_all(scenario.case, instance.thermal, instance.mushy, instance.boundary)
    all_ok = all(r.satisfied for r in reports)
    doc = {
        "problem": scenario.problem.value,
        "case": _case_name(scenario.case),
        "restrictions": [_report_doc(r) for r in reports],
    }
    if scenario.case is None:  # key order is output: here the note precedes the verdict
        doc["note"] = "no restrictions apply to a fully specified data set"
    doc["all_satisfied"] = all_ok
    if scenario.case is not None and not reports:
        doc["note"] = "this case carries no solvability restriction"
    _emit_doc(doc, args.format, args.out)
    return EXIT_OK if all_ok else EXIT_RESTRICTION


# --- argument parsing --------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, with_format: bool = True) -> None:
    sub.add_argument("scenario", help="scenario file (INI key-value sections or JSON)")
    sub.add_argument("--problem", choices=[f.value for f in Face], help="override the scenario's problem type")
    sub.add_argument(
        "--case",
        choices=[c.value for c in UnknownCase] + ["direct"],
        help="override the scenario's case (drops that coefficient from the data)",
    )
    sub.add_argument("--out", type=Path, default=None, help="write output here instead of stdout")
    if with_format:
        sub.add_argument("--format", choices=("json", "csv"), default="json", help="output format")


def _profile_args(p: argparse.ArgumentParser) -> None:
    _add_common(p, with_format=False)
    p.add_argument("--t", type=float, action="append", help="sample time (repeatable; default 1.0)")
    p.add_argument("--nx", type=int, default=50, help=f"points per profile (default 50, at most {MAX_GRID_POINTS})")
    p.add_argument("--xmax", type=float, default=None, help="profile end (default 1.1 r(t))")


def _limit_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--h0-grid", help="comma-separated h0 values (overrides the log grid)")
    p.add_argument("--h0-min", type=float, default=1e1, help="log grid start (default 1e1)")
    p.add_argument("--h0-max", type=float, default=1e6, help="log grid end (default 1e6)")
    p.add_argument("--points", type=int, default=6, help=f"log grid size (default 6, at most {MAX_GRID_POINTS})")


def _verify_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--t", type=float, action="append", help="sample time (repeatable; default 0.5 1 2)")
    p.add_argument(
        "--x-fracs",
        type=lambda s: [float(tok) for tok in s.split(",")],
        default=None,
        help="interior sample positions as fractions of s(t_min), comma separated (default 0.3,0.5,0.7)",
    )
    p.add_argument("--fd-step", type=float, default=1e-4, help="relative finite-difference step (default 1e-4)")
    p.add_argument("--tol-residual", type=float, default=1e-10, help="condition residual bound (default 1e-10)")
    p.add_argument("--pde-tol", type=float, default=1e-6, help="PDE residual bound (default 1e-6)")
    p.add_argument("--xi-perturb", type=float, default=0.0, help="offset added to xi before verification")


def _manufacture_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", choices=[f.value for f in Face], default="convective")
    p.add_argument("--xi", type=float, required=True, help="dimensionless solid-front position")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--q0", type=float, required=True)
    p.add_argument("--h0", type=float, default=None, help="required for the convective problem")
    p.add_argument("--case", choices=[c.value for c in UnknownCase], default=None,
                   help="omit this coefficient from the emitted scenario (true value kept as a comment)")
    p.add_argument("--format", choices=("ini", "json"), default="ini")
    p.add_argument("--out", type=Path, default=None)


#: Subcommand name -> (help, function adding its arguments, handler).
_COMMANDS = {
    "solve": ("recover the unknown coefficient (or solve a direct scenario)", _add_common, cmd_solve),
    "profile": ("temperature profiles and front positions as CSV", _profile_args, cmd_profile),
    "limit": ("convective-to-prescribed-temperature limit study", _limit_args, cmd_limit),
    "verify": ("residuals of the governing equations for a solved scenario", _verify_args, cmd_verify),
    "manufacture": ("emit a consistent scenario built around a chosen xi", _manufacture_args, cmd_manufacture),
    "check-restrictions": ("evaluate the case's solvability restrictions only", _add_common, cmd_check_restrictions),
}


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The ``mushy`` parser for the command line ``argv``.

    Every subcommand is registered with its help, but only the one named by
    ``argv[0]`` gets its arguments: a process parses one command line, and
    building the other parsers' arguments would be wasted start-up time.
    """
    parser = argparse.ArgumentParser(
        prog="mushy",
        description="Solidification with an isothermal mushy zone: solve, identify coefficients, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv else None
    for name, (help_text, add_args, _) in _COMMANDS.items():
        # No prefix matching: an abbreviation such as --tol must not pass for --tol-residual.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if name == named:
            add_args(p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as err:  # argparse's usage error (2) would read as EXIT_RESTRICTION
        return EXIT_INPUT if err.code else EXIT_OK
    try:
        return _COMMANDS[args.command][2](args)
    except RestrictionError as err:
        doc = {
            "error": "restriction failure",
            "detail": str(err),
            "restrictions": [_report_doc(r) for r in err.reports],
        }
        _emit_doc(doc, getattr(args, "format", "json"), None)
        sys.stderr.write(f"error: {err}\n")
        return EXIT_RESTRICTION
    except (ValidationError, DomainError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT
    except SolverError as err:  # any remaining package error is a numerical one
        sys.stderr.write(f"error: {err}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
