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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

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
    NumericalError,
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
    ThermalCoefficients,
    UnknownCase,
    validate,
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

_COEFFICIENT_KEYS = ("l", "k", "rho", "c", "epsilon", "gamma")
_BOUNDARY_KEYS = ("q0", "d_inf", "h0")
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


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario file, prior to physical validation."""

    problem: Face
    case: Optional[UnknownCase]
    coefficients: dict[str, float]
    boundary: dict[str, float]


def _parse_case(token: str) -> Optional[UnknownCase]:
    if token == "direct":
        return None
    try:
        return UnknownCase(token)
    except ValueError:
        raise ValidationError(
            f"unknown case {token!r}; expected one of l, gamma, epsilon, k, rho, c, direct"
        ) from None


def _to_float(section: str, key: str, raw) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"[{section}] {key} = {raw!r} is not a number") from None
    return value


def _check_keys(section: str, present, allowed: tuple[str, ...]) -> None:
    extra = sorted(set(present) - set(allowed))
    if extra:
        raise ValidationError(f"unknown key(s) {', '.join(extra)} in [{section}]")


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
        sections = {name: dict(doc.get(name) or {}) for name in _SECTIONS}
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

    _check_keys("coefficients", sections["coefficients"], _COEFFICIENT_KEYS)
    _check_keys("boundary", sections["boundary"], _BOUNDARY_KEYS)
    coefficients = {
        key: _to_float("coefficients", key, sections["coefficients"][key])
        for key in _COEFFICIENT_KEYS
        if key in sections["coefficients"]
    }
    boundary = {
        key: _to_float("boundary", key, sections["boundary"][key])
        for key in _BOUNDARY_KEYS
        if key in sections["boundary"]
    }
    return Scenario(problem=face, case=case, coefficients=coefficients, boundary=boundary)


def load_scenario(path: Path) -> Scenario:
    try:
        text = path.read_text()
    except OSError as err:
        raise ValidationError(f"cannot read scenario {path}: {err}") from None
    return parse_scenario(text)


def scenario_to_ini(scenario: Scenario, truth: Optional[tuple[str, float]] = None) -> str:
    """Canonical INI serialization; parsing it back reproduces the scenario."""
    lines = ["[problem]", f"type = {scenario.problem.value}",
             f"case = {scenario.case.value if scenario.case else 'direct'}", "", "[coefficients]"]
    for key in _COEFFICIENT_KEYS:
        if key in scenario.coefficients:
            lines.append(f"{key} = {scenario.coefficients[key]!r}")
    if truth is not None:
        lines.append(f"; true {truth[0]} = {truth[1]!r}")
    lines.append("")
    lines.append("[boundary]")
    for key in _BOUNDARY_KEYS:
        if key in scenario.boundary:
            lines.append(f"{key} = {scenario.boundary[key]!r}")
    lines.append("")
    return "\n".join(lines)


def scenario_to_json(scenario: Scenario, truth: Optional[tuple[str, float]] = None) -> str:
    doc: dict = {
        "problem": {
            "type": scenario.problem.value,
            "case": scenario.case.value if scenario.case else "direct",
        },
        "coefficients": {k: scenario.coefficients[k] for k in _COEFFICIENT_KEYS if k in scenario.coefficients},
        "boundary": {k: scenario.boundary[k] for k in _BOUNDARY_KEYS if k in scenario.boundary},
    }
    if truth is not None:
        doc["_truth"] = {truth[0]: truth[1]}
    return _json_text(doc) + "\n"


def _scenario_instance(scenario: Scenario) -> ProblemInstance:
    thermal = ThermalCoefficients(**{k: scenario.coefficients.get(k) for k in ("l", "k", "rho", "c")})
    mushy = MushyCoefficients(
        epsilon=scenario.coefficients.get("epsilon"), gamma=scenario.coefficients.get("gamma")
    )
    boundary = BoundaryData(
        q0=scenario.boundary.get("q0", math.nan),
        d_inf=scenario.boundary.get("d_inf", math.nan),
        h0=scenario.boundary.get("h0"),
    )
    if "q0" not in scenario.boundary:
        raise ValidationError("[boundary] section must set q0")
    if "d_inf" not in scenario.boundary:
        raise ValidationError("[boundary] section must set d_inf")
    return validate(thermal, mushy, boundary, case=scenario.case, face=scenario.problem)


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    """--problem/--case flags override the scenario file.

    Overriding the case drops the matching coefficient from the data, so a
    fully specified (direct) scenario can be re-solved for any unknown.
    """
    if getattr(args, "problem", None):
        scenario = replace(scenario, problem=Face(args.problem))
    if getattr(args, "case", None):
        case = _parse_case(args.case)
        coefficients = dict(scenario.coefficients)
        if case is not None:
            coefficients.pop(case.value, None)
        scenario = replace(scenario, case=case, coefficients=coefficients)
    return scenario


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


def _solve_scenario(scenario: Scenario) -> tuple[ProblemInstance, Optional[CaseResult], float]:
    """Returns the completed instance, the case result (None in direct mode)
    and the front position."""
    instance = _scenario_instance(scenario)
    if scenario.case is None:
        xi = _solve_direct_xi(instance)
        return instance, None, xi
    if scenario.problem is Face.CONVECTIVE:
        result = inverse_convective.solve_case(
            scenario.case, instance.thermal, instance.mushy, instance.boundary
        )
    else:
        from . import inverse_dirichlet

        result = inverse_dirichlet.solve_dirichlet_case(
            scenario.case, instance.thermal, instance.mushy, instance.boundary
        )
    return instance.with_value(result.value), result, result.xi


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
    scenario = _apply_overrides(load_scenario(Path(args.scenario)), args)
    instance, result, xi = _solve_scenario(scenario)
    solution = result.solution if result is not None else build_solution(
        instance.thermal, instance.mushy, instance.boundary, xi
    )
    residuals = consistency_residuals(
        instance.thermal, instance.mushy, instance.boundary, xi, scenario.problem
    )
    doc: dict = {
        "problem": scenario.problem.value,
        "case": scenario.case.value if scenario.case else "direct",
    }
    if result is not None:
        doc["coefficient"] = result.case.value
        doc["value"] = result.value
    doc.update(
        xi=xi,
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
    scenario = _apply_overrides(load_scenario(Path(args.scenario)), args)
    instance, result, xi = _solve_scenario(scenario)
    solution = result.solution if result is not None else build_solution(
        instance.thermal, instance.mushy, instance.boundary, xi
    )

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
    instance = _scenario_instance(scenario)

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
        raise ValidationError("x fractions must lie strictly inside (0, 1)")
    scenario = _apply_overrides(load_scenario(Path(args.scenario)), args)
    instance, result, xi = _solve_scenario(scenario)
    if args.xi_perturb:
        xi += args.xi_perturb
    solution = build_solution(instance.thermal, instance.mushy, instance.boundary, xi)
    xs = [f * front_s(solution, min(times)) for f in fracs]

    conditions = verify.condition_residuals(
        solution, instance.thermal, instance.mushy, instance.boundary, times, scenario.problem
    )
    fd = verify.pde_residual(solution, xs, times, fd_step=args.fd_step)

    failures = sorted(
        name for name, value in conditions.condition_residuals.items() if value > args.tol_residual
    )
    if fd.pde_residual_max > args.pde_tol:
        failures.insert(0, "pde")
    doc = {
        "problem": scenario.problem.value,
        "case": scenario.case.value if scenario.case else "direct",
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

    face = Face(args.problem)
    problem = manufacture(
        xi=args.xi,
        k=args.k,
        rho=args.rho,
        c=args.c,
        epsilon=args.epsilon,
        gamma=args.gamma,
        q0=args.q0,
        h0=args.h0,
        face=face,
    )
    case = _parse_case(args.case) if args.case else None
    coefficients = {
        "l": problem.thermal.l,
        "k": problem.thermal.k,
        "rho": problem.thermal.rho,
        "c": problem.thermal.c,
        "epsilon": problem.mushy.epsilon,
        "gamma": problem.mushy.gamma,
    }
    truth = None
    if case is not None:
        truth = (case.value, coefficients.pop(case.value))
    boundary = {"q0": problem.boundary.q0, "d_inf": problem.boundary.d_inf}
    if face is Face.CONVECTIVE:
        boundary["h0"] = problem.boundary.h0
    scenario = Scenario(problem=face, case=case, coefficients=coefficients, boundary=boundary)
    text = scenario_to_json(scenario, truth) if args.format == "json" else scenario_to_ini(scenario, truth)
    _write(text, args.out)
    return EXIT_OK


def cmd_check_restrictions(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(load_scenario(Path(args.scenario)), args)
    instance = _scenario_instance(scenario)
    if scenario.case is None:
        doc = {
            "problem": scenario.problem.value,
            "case": "direct",
            "restrictions": [],
            "note": "no restrictions apply to a fully specified data set",
            "all_satisfied": True,
        }
        _emit_doc(doc, args.format, args.out)
        return EXIT_OK

    if scenario.problem is Face.CONVECTIVE:
        inverse = inverse_convective
    else:
        from . import inverse_dirichlet as inverse
    reports = inverse.check_all(scenario.case, instance.thermal, instance.mushy, instance.boundary)
    all_ok = all(r.satisfied for r in reports)
    doc = {
        "problem": scenario.problem.value,
        "case": scenario.case.value,
        "restrictions": [_report_doc(r) for r in reports],
        "all_satisfied": all_ok,
    }
    if not reports:
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
    except NumericalError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_NUMERICAL
    except SolverError as err:  # any remaining package error is a numerical one
        sys.stderr.write(f"error: {err}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
