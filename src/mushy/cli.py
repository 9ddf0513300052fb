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
``verify`` checks the solution at fixed points with fixed bounds (the
``VERIFY_*`` constants below); ``limit`` sweeps h0 over ``--h0-grid``.

The command line is read against ``_COMMANDS``, the one table of the
subcommands, their options and their handlers.  Options are exact long
flags, each taking one value as ``--flag value`` or ``--flag=value``; the
value is the next token taken verbatim, even when it starts with ``-``, and
the option's own check rejects a bad one.  The last occurrence of an option
wins, except ``profile --t``, whose values are all kept.  The scenario may
come anywhere among the options.  ``-h``/``--help`` prints help and exits 0.

Exit codes: 0 success, 1 input error (a malformed command line, a scenario
that does not validate, an output that cannot be written), 2 restriction
failure, 3 numerical failure (valid data whose solution leaves the double
range included), 4 verification residual failure.  Each handler returns
its result and exit code, and ``main`` writes the result: solve, verify,
check-restrictions and limit write one JSON document, whose last key is
the ``"warnings"`` the library raised, when it raised any; profile writes
two CSV tables separated by a blank line.  Every
float is written as Python's repr, the shortest string that reads back as
the same double; in JSON a non-finite number is the string "inf", "-inf" or
"nan".  JSON is read by ``_json_loads`` and written by ``_json_text``, which
use ``_json``, the C accelerator of the standard library's ``json``: they
give what ``json.loads`` and ``json.dumps(..., indent=2)`` give, without
importing ``json``, whose import compiles regular expressions.

The process entry, ``main()`` with no ``argv`` as the ``mushy`` script and
``python -m mushy`` call it, ends the process itself: once its output and
its ``warning:``/``error:`` lines are written, it flushes stdout and stderr
and calls ``os._exit`` with the exit code.  That skips the interpreter's
finalization and the ``atexit`` handlers of other packages.  It returns
the code instead, for ``sys.exit``, when a flush raises or a tracer or
profiler is installed.  A caller in process passes ``argv``, and
``main(argv)`` always returns.
"""

import _json
import io
import math
import os
import reprlib
import sys
import warnings
from collections.abc import Sequence
from types import SimpleNamespace

# Only what a convective solve runs is imported here; configparser, verify,
# manufacture and inverse_dirichlet are imported where they are used, so a
# process loads what its subcommand needs.  perfbench's tracer rebinds
# validate, build_solution and solve_increasing on this module, and reaches
# the case solvers through their modules' attributes.
from . import inverse_convective
from .direct import (
    build_solution,
    consistency_residuals,
    front_balance,
    front_r,
    front_s,
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
    SimilaritySolution,
    ThermalCoefficients,
    UnknownCase,
    _refused_solution,
    validate,
    with_coefficient,
)
from .rootfind import solve_increasing

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESTRICTION = 2
EXIT_NUMERICAL = 3
EXIT_RESIDUAL = 4

#: Upper bound on ``profile --nx`` and on the length of ``limit --h0-grid``:
#: each point costs a row of output (and a convective solve in ``limit``).
MAX_GRID_POINTS = 10_000

#: ``limit``'s default h0 grid, one point per decade.
LIMIT_H0_GRID = "1e1,1e2,1e3,1e4,1e5,1e6"

#: ``verify``'s fixed check: the sample times (ascending, in the units of
#: ``_record_units``), the interior sample positions (ascending) as shares
#: of s at the first time, the relative finite-difference step, and the
#: bounds on the condition residuals and on the PDE residual.
VERIFY_TIMES = (0.5, 1.0, 2.0)
VERIFY_X_FRACS = (0.3, 0.5, 0.7)
VERIFY_FD_STEP = 1e-4
VERIFY_CONDITION_TOL = 1e-10
VERIFY_PDE_TOL = 1e-6

#: The longest line ``main`` writes to stderr, in characters: a message
#: that echoes a key, a path or a flag of any length is cut to it.
MAX_STDERR_LINE = 1_000

_SECTIONS = ("problem", "coefficients", "boundary")


# --- JSON -------------------------------------------------------------------

#: json.loads's scanner: its constants, NaN and the infinities, and no hooks.
_scan = _json.make_scanner(SimpleNamespace(
    strict=True, object_hook=None, object_pairs_hook=None, parse_float=float, parse_int=int,
    parse_constant={"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}.__getitem__,
))

_JSON_SPACE = " \t\n\r"


def _json_loads(text: str):
    """``json.loads(text)``: the value, or, for a text that is not one JSON
    value, json's own error, for which json is imported."""
    try:
        doc, end = _scan(text, len(text) - len(text.lstrip(_JSON_SPACE)))
    except (StopIteration, SystemError):  # no value where one starts, or a malformed one:
        pass  # before Python 3.12 the scanner raises its JSONDecodeError only once json is loaded
    else:
        if end == len(text.rstrip(_JSON_SPACE)):  # only space follows; no value ends in one
            return doc
    import json

    return json.loads(text)


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` of a document of
    dicts with string keys, lists, tuples, strings, numbers, booleans and
    None, except that a non-finite float is written as the string of its
    repr, "inf", "-inf" or "nan", which strict JSON can carry and the
    scenario parser reads back.  ``indent`` is the line break and the
    indentation of ``obj``'s level."""
    if isinstance(obj, str):
        return _json.encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else f'"{float.__repr__(obj)}"'
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{_json.encode_basestring_ascii(key)}: {_json_text(value, inner)}" for key, value in obj.items()]
        brackets = "{}"
    else:  # a list or a tuple
        items = [_json_text(value, inner) for value in obj]
        brackets = "[]"
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1] if items else brackets


# --- scenario files ---------------------------------------------------------


def _parse_case(token: str) -> UnknownCase | None:
    if token == "direct":
        return None
    try:
        return UnknownCase(token)
    except ValueError:
        raise ValidationError(
            f"unknown case {token!r}; expected one of l, gamma, epsilon, k, rho, c, direct"
        ) from None


def _case_name(case: UnknownCase | None) -> str:
    return case.value if case else "direct"


def _to_str(key: str, raw) -> str:
    if not isinstance(raw, str):  # a JSON null or number; str(None) would read as "none"
        raise ValidationError(f"[problem] {key} = {reprlib.repr(raw)} is not a string")
    return raw.strip().lower()


def _to_float(section: str, key: str, raw) -> float:
    if not isinstance(raw, bool):  # float(true) would be 1.0
        try:
            return float(raw)
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int no double holds
            pass
    raise ValidationError(f"[{section}] {key} = {reprlib.repr(raw)} is not a number")


def _check_keys(section: str, present, allowed: tuple[str, ...]) -> None:
    extra = sorted(set(present) - set(allowed))
    if extra:
        raise ValidationError(f"unknown key(s) {', '.join(extra)} in [{section}]")


def _keys(*records: type) -> tuple[str, ...]:
    return tuple(name for record in records for name in record.__match_args__)


def _record(record: type, section: str, values: dict):
    """``record`` with its fields read from one scenario section."""
    return record(**{
        key: _to_float(section, key, values[key]) if key in values else None for key in _keys(record)
    })


def parse_scenario(text: str) -> ProblemInstance:
    """Parse a scenario from INI or JSON text (sniffed by the first byte
    after one leading byte order mark) and validate it: the file's
    ``[problem]`` section names the face and the unknown, and exactly that
    coefficient is left out.  Values are shown in errors by ``reprlib``,
    which stops at a depth that ``repr`` could not reach."""
    text = text.removeprefix("\ufeff")
    stripped = text.lstrip()
    if not stripped:
        raise ValidationError("scenario file is empty")
    if stripped.startswith("{"):
        try:
            doc = _json_loads(text)
        except (ValueError, RecursionError) as err:  # a JSONDecodeError, an int past the digit limit, or nesting
            raise ValidationError(f"invalid JSON scenario: {err}") from None
        sections = {name: {} if doc.get(name) is None else doc[name] for name in _SECTIONS}
        for name, section in sections.items():
            if not isinstance(section, dict):
                raise ValidationError(f"[{name}] section must be a JSON object, got {reprlib.repr(section)}")
        doc.pop("_truth", None)  # advisory block written by `manufacture`
        _check_keys("<top level>", doc, _SECTIONS)
    else:
        import configparser

        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
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
    kind = _to_str("type", problem_sec["type"])  # outside the try: a ValidationError is a ValueError
    try:
        face = Face(kind)
    except ValueError:
        raise ValidationError(
            f"unknown problem type {problem_sec['type']!r}; expected convective or dirichlet"
        ) from None
    case = _parse_case(_to_str("case", problem_sec.get("case", "direct")))

    coefficients = sections["coefficients"]
    _check_keys("coefficients", coefficients, _keys(ThermalCoefficients, MushyCoefficients))
    _check_keys("boundary", sections["boundary"], _keys(BoundaryData))
    return validate(
        _record(ThermalCoefficients, "coefficients", coefficients),
        _record(MushyCoefficients, "coefficients", coefficients),
        _record(BoundaryData, "boundary", sections["boundary"]),
        case=case,
        face=face,
    )


def load_scenario(path: str) -> ProblemInstance:
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except (OSError, ValueError) as err:  # ValueError: text that is not UTF-8, or a NUL in the path
        raise ValidationError(f"cannot read scenario {path}: {err}") from None
    return parse_scenario(text)


def _given(record) -> dict:
    return {key: value for key, value in vars(record).items() if value is not None}


def _scenario_doc(instance: ProblemInstance) -> dict:
    """The scenario's sections, each with the keys it sets, in field order."""
    return {
        "problem": {"type": instance.face.value, "case": _case_name(instance.case)},
        "coefficients": {**_given(instance.thermal), **_given(instance.mushy)},
        "boundary": _given(instance.boundary),
    }


def scenario_to_ini(instance: ProblemInstance, truth: tuple[str, float] | None = None) -> str:
    """Canonical INI serialization; parsing it back reproduces the instance.
    ``truth`` is written as a comment that closes the coefficients."""
    lines = []
    for section, values in _scenario_doc(instance).items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())  # a float's str is its repr
        if section == "coefficients" and truth is not None:
            lines.append(f"; true {truth[0]} = {truth[1]!r}")
        lines.append("")
    return "\n".join(lines)


def scenario_to_json(instance: ProblemInstance, truth: tuple[str, float] | None = None) -> str:
    doc = _scenario_doc(instance)
    if truth is not None:
        doc["_truth"] = {truth[0]: truth[1]}
    return _json_text(doc) + "\n"


# --- solving ----------------------------------------------------------------


def _solve(args: SimpleNamespace) -> tuple[ProblemInstance, CaseResult | None, SimilaritySolution]:
    """The scenario of ``args``, solved.

    Returns the completed direct instance (the recovered value filled in),
    the case result (None in direct mode) and the solution.
    """
    instance = load_scenario(args.scenario)
    case = instance.case
    if case is None:
        return instance, None, _solve_direct(*instance[2:])
    if instance.face is Face.CONVECTIVE:
        solve_case = inverse_convective.solve_case
    else:
        from . import inverse_dirichlet

        solve_case = inverse_dirichlet.solve_dirichlet_case
    result = solve_case(case, instance.thermal, instance.mushy, instance.boundary)
    thermal, mushy = with_coefficient(instance.thermal, instance.mushy, case, result.value)
    return instance._replace(case=None, thermal=thermal, mushy=mushy), result, result.solution


def _solve_direct(thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData) -> SimilaritySolution:
    try:
        return build_solution(thermal, mushy, boundary, solve_increasing(front_balance(thermal, mushy, boundary)))
    except (ValidationError, DomainError) as err:  # as in the case solvers: the solution left the range
        raise _refused_solution("direct", err) from None


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


def _write(text: str, out: str | None) -> None:
    """Write ``text``, newline-terminated, to ``out`` or to stdout.

    A reader that stops early (``mushy solve s.json | head -1``) is not an
    error: the rest of the output, and the flush at exit, go to the null
    device, and the subcommand keeps its exit code.  Any other failed write
    to stdout (a full disk) raises ValidationError, as one to ``out`` does;
    what is left unwritten goes to the null device, so that the flush at
    exit does not fail again.
    """
    if not text.endswith("\n"):
        text += "\n"
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as file:
                file.write(text)
        except (OSError, ValueError) as err:  # ValueError: a NUL in the path
            raise ValidationError(f"cannot write {out}: {err}") from None
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as err:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(err, BrokenPipeError):
            raise ValidationError(f"cannot write <stdout>: {err}") from None


def _check_positive(flag: str, *values: float) -> None:
    for value in values:
        if not 0.0 < value < math.inf:
            raise ValidationError(f"{flag} must be a positive finite number, got {value!r}")


# --- subcommands ------------------------------------------------------------


def cmd_solve(args: SimpleNamespace) -> tuple[dict, int]:
    instance, result, solution = _solve(args)
    residuals = consistency_residuals(
        instance.thermal, instance.mushy, instance.boundary, solution.xi, instance.face
    )
    doc: dict = {"problem": instance.face.value, "case": "direct"}
    if result is not None:
        doc.update(case=result.case.value, value=result.value)
    doc.update(
        xi=solution.xi,
        mu=solution.mu,
        alpha=solution.alpha,
        a_coef=solution.a_coef,
        b_coef=solution.b_coef,
        restrictions=[_report_doc(r) for r in (result.reports if result else ())],
        residuals={"stefan": residuals.res_stefan, "face": residuals.res_face},
    )
    return doc, EXIT_OK


def cmd_profile(args: SimpleNamespace) -> tuple[str, int]:
    times = sorted(args.t or [1.0])
    _check_positive("--t", *times)
    if args.xmax is not None:
        _check_positive("--xmax", args.xmax)
    if args.nx < 2:
        raise ValidationError("--nx must be at least 2")
    if args.nx > MAX_GRID_POINTS:
        raise ValidationError(f"--nx must be at most {MAX_GRID_POINTS}")
    solution = _solve(args)[2]

    buf = io.StringIO()
    buf.write("t,x,temperature,region\n")
    for t in times:
        xmax = args.xmax if args.xmax is not None else 1.1 * front_r(solution, t)
        if xmax == math.inf:
            raise ValidationError(f"--t {t!r} puts the profile end 1.1 r(t) past the range of a double; "
                                  "give --xmax")
        step = xmax / (args.nx - 1)
        for i in range(args.nx):
            x = i * step
            value, region = temperature(solution, x, t)
            buf.write(f"{t!r},{x!r},{value!r},{region}\n")
    buf.write("\nt,s,r\n")
    for t in times:
        buf.write(f"{t!r},{front_s(solution, t)!r},{front_r(solution, t)!r}\n")
    return buf.getvalue(), EXIT_OK


def cmd_limit(args: SimpleNamespace) -> tuple[dict, int]:
    instance = load_scenario(args.scenario)
    if instance.face is not Face.DIRICHLET:
        raise ValidationError("the limit study needs a dirichlet scenario (the convective side is generated)")
    if instance.case is None:
        raise ValidationError("the limit study needs an unknown coefficient, not a direct scenario")

    try:
        grid = tuple(float(tok) for tok in args.h0_grid.split(","))
    except ValueError:
        raise ValidationError(f"--h0-grid must be comma-separated numbers, got {args.h0_grid!r}") from None
    if len(grid) > MAX_GRID_POINTS:
        raise ValidationError(f"--h0-grid must have at most {MAX_GRID_POINTS} entries, got {len(grid)}")
    if any(not (h > 0.0 and math.isfinite(h)) for h in grid):
        raise ValidationError("h0 grid entries must be positive finite numbers")
    was_sorted = list(grid) == sorted(grid)

    from . import inverse_dirichlet

    study = inverse_dirichlet.limit_study(
        instance.case, instance.thermal, instance.mushy, instance.boundary, grid
    )

    doc = {
        "case": instance.case.value,
        "xi_dirichlet": study.xi_dirichlet,
        "coefficient_dirichlet": study.coeff_dirichlet,
        "fitted_slope": study.fitted_slope,
        "rows": [
            {"h0": h0, "xi_conv": xc, "delta_xi": abs(xc - study.xi_dirichlet), "coefficient": cc}
            for h0, xc, cc in zip(study.h0_grid, study.xi_conv, study.coeff_conv)
        ],
        "excluded": [
            {"h0": h0, "failed": [r.restriction_id for r in reports if not r.satisfied]}
            for h0, reports in study.excluded
        ],
    }
    if not was_sorted:
        doc["note"] = "h0 grid was unsorted; processed in ascending order"
    return doc, EXIT_OK


#: The dimensions of each datum and solution figure as exponents of mass,
#: length, half-time (q0 and h0 carry T^(-5/2)) and temperature.  In the
#: units M 2^a, L 2^b, T 4^c and Theta 2^d a quantity with the row (m, n, t,
#: o) is its value times 2^(m a + n b + t c + o d), an exact change.
_DIMENSIONS = {"l": (0, 2, -4, 0), "k": (1, 1, -6, -1), "rho": (1, -3, 0, 0), "c": (0, 2, -4, -1),
               "gamma": (0, 0, 0, 1), "q0": (1, 0, -5, 0), "d_inf": (0, 0, 0, 1), "h0": (1, 0, -5, -1),
               "a_coef": (0, 0, 0, 1), "b_coef": (0, 0, 0, 1), "alpha": (0, 2, -2, 0)}


def _record_units(thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData,
                  solution: SimilaritySolution) -> tuple:
    """The data and ``solution`` in the units where k and c lie in [0.5, 2)
    and rho and b_coef in [0.5, 1).  With e the binary exponents of k, rho,
    c and b_coef, the units (a, b, c, d) solve the integer system, of
    determinant 4, that takes k, rho, c and b_coef to the exponents r_k, 0,
    r_c and 0, where r_k and r_c, each 0 or 1, are the parities that the
    system needs.  A figure past the largest double is inf."""
    e_k, e_rho, e_c, e_b = (math.frexp(value)[1] for value in (thermal.k, thermal.rho, thermal.c, solution.b_coef))
    k_gap, c_gap = e_k - e_rho + e_b, e_c + e_b  # 4 b - 6 c and 2 b - 4 c must bring these to r_k and r_c
    time = (k_gap % 2 - k_gap) // 2 - (c_gap % 2 - c_gap)
    length = (c_gap % 2 - c_gap) // 2 + 2 * time
    units = (3 * length - e_rho, length, time, -e_b)

    def scaled(record) -> dict:
        fields = record._asdict() if isinstance(record, tuple) else record.__dict__
        out = {}
        for name, value in fields.items():
            if name in _DIMENSIONS and value is not None:
                try:
                    value = math.ldexp(value, sum(u * e for u, e in zip(units, _DIMENSIONS[name])))
                except OverflowError:
                    value = math.inf
            out[name] = value
        return out

    return (ThermalCoefficients(**scaled(thermal)), MushyCoefficients(**scaled(mushy)),
            BoundaryData(**scaled(boundary)), SimilaritySolution(**scaled(solution)))


def cmd_verify(args: SimpleNamespace) -> tuple[dict, int]:
    from . import verify

    instance, result, solution = _solve(args)
    # Checked at VERIFY_TIMES of the solution's own units: the solution is
    # self-similar and every residual relative, so the verdict does not
    # depend on the caller's units.
    thermal, mushy, boundary, solution = _record_units(*instance[2:], solution)
    xs = [f * front_s(solution, VERIFY_TIMES[0]) for f in VERIFY_X_FRACS]
    conditions = verify.condition_residuals(solution, thermal, mushy, boundary, VERIFY_TIMES, instance.face)
    # The space step is widest at the last time, and the stencil around the
    # nearest point must stay in the solid there.  Below xi of about 6.7e-4
    # the fixed step would leave it, so half the widest step that stays is
    # used.  In these units alpha lies in (1/4, 8).
    reach = 2.0 * math.sqrt(solution.alpha * VERIFY_TIMES[-1])
    fd_step = VERIFY_FD_STEP if VERIFY_FD_STEP * reach <= xs[0] else 0.5 * xs[0] / reach
    try:
        fd = verify.pde_residual(solution, xs, VERIFY_TIMES, fd_step=fd_step)
    except DomainError as err:  # the step or the stencil left the double range with the solution's scales
        raise NumericalError(f"the finite-difference check leaves the range of a double: {err}") from None

    failures = sorted(
        name for name, value in conditions.condition_residuals.items() if value > VERIFY_CONDITION_TOL
    )
    if fd.pde_residual_max > VERIFY_PDE_TOL:
        failures.insert(0, "pde")
    doc = {
        "problem": instance.face.value,
        "case": _case_name(result.case if result else None),
        "xi": solution.xi,
        "condition_residuals": dict(sorted(conditions.condition_residuals.items())),
        "pde_residual_max": fd.pde_residual_max,
        "fd_step": fd_step,
        "condition_tolerance": VERIFY_CONDITION_TOL,
        "pde_tolerance": VERIFY_PDE_TOL,
        "failures": failures,
        "passed": not failures,
    }
    return doc, EXIT_OK if not failures else EXIT_RESIDUAL


def cmd_manufacture(args: SimpleNamespace) -> tuple[str, int]:
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
    case = UnknownCase(args.case) if args.case else None
    thermal, mushy, truth = problem.thermal, problem.mushy, None
    if case is not None:
        thermal, mushy, value = problem.hide(case)
        truth = (case.value, value)
    instance = ProblemInstance(problem.face, case, thermal, mushy, problem.boundary)
    text = scenario_to_json(instance, truth) if args.format == "json" else scenario_to_ini(instance, truth)
    return text, EXIT_OK


def cmd_check_restrictions(args: SimpleNamespace) -> tuple[dict, int]:
    instance = load_scenario(args.scenario)
    reports: tuple[RestrictionReport, ...] = ()
    if instance.case is not None:
        if instance.face is Face.CONVECTIVE:
            inverse = inverse_convective
        else:
            from . import inverse_dirichlet as inverse
        reports = inverse.check_all(instance.case, instance.thermal, instance.mushy, instance.boundary)
    all_ok = all(r.satisfied for r in reports)
    doc = {
        "problem": instance.face.value,
        "case": _case_name(instance.case),
        "restrictions": [_report_doc(r) for r in reports],
    }
    if instance.case is None:  # key order is output: here the note precedes the verdict
        doc["note"] = "no restrictions apply to a fully specified data set"
    doc["all_satisfied"] = all_ok
    if instance.case is not None and not reports:
        doc["note"] = "this case carries no solvability restriction"
    return doc, EXIT_OK if all_ok else EXIT_RESTRICTION


# --- command line ------------------------------------------------------------


class _Option:
    """One argument of a subcommand: a ``--flag VALUE`` option, or the
    positional named by a ``flag`` without dashes.  ``convert`` reads the
    value into the handler's attribute ``dest``; ``repeat`` keeps every
    value, in order, where otherwise the last one given wins."""

    __slots__ = ("flag", "dest", "convert", "default", "help", "required", "choices", "repeat")

    def __init__(self, flag, convert=str, default=None, help="", *, required=False, choices=None, repeat=False):
        self.flag, self.convert, self.default, self.help = flag, convert, default, help
        self.dest = flag.lstrip("-").replace("-", "_")
        self.required, self.choices, self.repeat = required, choices, repeat

    @property
    def positional(self) -> bool:
        return not self.flag.startswith("-")

    def invocation(self) -> str:
        metavar = "{" + ",".join(self.choices) + "}" if self.choices else self.dest.upper()
        return f"{self.flag} {metavar}"

    def read(self, value: str):
        try:
            converted = self.convert(value)
        except ValueError:
            raise _UsageError(f"argument {self.flag}: invalid {self.convert.__name__} value: {value!r}") from None
        if self.choices and converted not in self.choices:
            choices = ", ".join(map(repr, self.choices))
            raise _UsageError(f"argument {self.flag}: invalid choice: {value!r} (choose from {choices})")
        return converted


class _UsageError(Exception):
    """A malformed command line; ``main`` prints the usage and exits 1."""


_SCENARIO = _Option("scenario", help="scenario file (INI key-value sections or JSON)", required=True)
_OUT = _Option("--out", help="write output here instead of stdout")

#: Subcommand name -> (help, arguments, handler).
_COMMANDS = {
    "solve": ("recover the unknown coefficient (or solve a direct scenario)", (_SCENARIO, _OUT), cmd_solve),
    "profile": ("temperature profiles and front positions as CSV", (
        _SCENARIO,
        _OUT,
        _Option("--t", float, help="sample time (repeatable; default 1.0)", repeat=True),
        _Option("--nx", int, 50, f"points per profile (default 50, at most {MAX_GRID_POINTS})"),
        _Option("--xmax", float, help="profile end (default 1.1 r(t))"),
    ), cmd_profile),
    "limit": ("convective-to-prescribed-temperature limit study", (
        _SCENARIO,
        _OUT,
        _Option("--h0-grid", str, LIMIT_H0_GRID,
                f"comma-separated h0 values (default {LIMIT_H0_GRID}, at most {MAX_GRID_POINTS})"),
    ), cmd_limit),
    "verify": ("residuals of the governing equations for a solved scenario", (_SCENARIO, _OUT), cmd_verify),
    "manufacture": ("emit a consistent scenario built around a chosen xi", (
        _Option("--problem", default="convective", choices=tuple(f.value for f in Face)),
        _Option("--xi", float, help="dimensionless solid-front position", required=True),
        *(_Option(f"--{name}", float, required=True) for name in ("k", "rho", "c", "epsilon", "gamma", "q0")),
        _Option("--h0", float, help="required for the convective problem"),
        _Option("--case", choices=tuple(c.value for c in UnknownCase),
                help="omit this coefficient from the emitted scenario (true value kept as a comment)"),
        _Option("--format", default="ini", choices=("ini", "json")),
        _OUT,
    ), cmd_manufacture),
    "check-restrictions": ("evaluate the case's solvability restrictions only", (_SCENARIO, _OUT),
                           cmd_check_restrictions),
}

def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: mushy [-h] {{{','.join(_COMMANDS)}}} ..."
    specs = _COMMANDS[command][1]
    words = ["[-h]"]
    words += [s.invocation() if s.required else f"[{s.invocation()}]" for s in specs if not s.positional]
    words += [s.flag for s in specs if s.positional]
    return f"usage: mushy {command} {' '.join(words)}"


def _help(command: str | None) -> str:
    if command is None:
        rows = {"subcommands:": [(name, entry[0]) for name, entry in _COMMANDS.items()]}
        intro = "Solidification with an isothermal mushy zone: solve, identify coefficients, verify."
    else:
        intro, specs = _COMMANDS[command][:2]
        rows = {
            "positional arguments:": [(s.flag, s.help) for s in specs if s.positional],
            "options:": [("-h, --help", "show this help message and exit")]
            + [(s.invocation(), s.help) for s in specs if not s.positional],
        }
    width = max(len(left) for section in rows.values() for left, _ in section) + 2
    text = [_usage(command), "", intro]
    for title, section in rows.items():
        if not section:
            continue
        text += ["", title]
        text += [f"  {left:<{width}}{right}".rstrip() for left, right in section]
    return "\n".join(text) + "\n"


def _parse(argv: Sequence[str]) -> tuple | None:
    """The handler and the arguments of the command line ``argv``, or None
    when it asks for help (which is then printed)."""
    if not argv:
        raise _UsageError("a subcommand is required")
    if argv[0] in ("-h", "--help"):
        sys.stdout.write(_help(None))
        return None
    command = argv[0]
    if command not in _COMMANDS:
        raise _UsageError(f"invalid choice: {command!r} (choose from {', '.join(_COMMANDS)})")
    specs = _COMMANDS[command][1]
    options = {spec.flag: spec for spec in specs if not spec.positional}
    positionals = [spec for spec in specs if spec.positional]
    values: dict = {}
    unrecognized = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_help(command))
            return None
        if not token.startswith("-"):
            if positionals:
                spec = positionals.pop(0)
                values[spec.dest] = spec.read(token)
            else:
                unrecognized.append(token)
            continue
        flag, inline, value = token.partition("=")
        spec = options.get(flag)
        if spec is None:  # no prefix matching: --h0 must not pass for --h0-grid
            unrecognized.append(token)
            continue
        if not inline:
            value = next(tokens, None)
            if value is None:
                raise _UsageError(f"argument {flag}: expected one argument")
        if spec.repeat:
            values.setdefault(spec.dest, []).append(spec.read(value))
        else:
            values[spec.dest] = spec.read(value)
    missing = [spec.flag for spec in specs if spec.required and spec.dest not in values]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        raise _UsageError(f"unrecognized arguments: {' '.join(unrecognized)}")
    args = SimpleNamespace(**{spec.dest: values.get(spec.dest, spec.default) for spec in specs})
    return _COMMANDS[command][2], args


def _line(text) -> str:
    """``text`` as one printable stderr line of at most ``MAX_STDERR_LINE``
    characters.  Each line break, with the indentation around it, becomes a
    space (configparser's messages span three lines, and a path or a JSON
    key may hold a line break); any other character that is not printable
    becomes its escape, ``\\x1b``; a longer line is cut, ending in ``…``."""
    line = " ".join(part.strip() for part in str(text).splitlines())
    line = "".join(char if char.isprintable() else repr(char)[1:-1] for char in line)
    return (line[:MAX_STDERR_LINE - 1] + "…" if len(line) > MAX_STDERR_LINE else line) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command line ``argv`` and return its exit code.

    Without ``argv`` it runs the process's command line and then ends the
    process with ``os._exit``, as the module docstring says: finalization
    (module teardown and the last collection) writes nothing and takes
    ≈5 ms of a ≈40 ms ``solve`` process.  Under a tracer or profiler
    (coverage, ``python -m cProfile -m mushy``) it returns, so that their
    report is written at exit.
    """
    if argv is not None:
        return _run(list(argv))
    code = _run(sys.argv[1:])
    if _traced():
        return code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # the interpreter's exit reports it, as before
        return code
    os._exit(code)


def _traced() -> bool:
    """Whether a tracer or profiler is installed: ``sys.settrace``,
    ``sys.setprofile``, or from Python 3.12 a ``sys.monitoring`` tool (of
    ids 0-5), which 3.12's cProfile and coverage's sysmon core are."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6))


def _run(argv: list[str]) -> int:
    """:func:`main` on the command line ``argv``: the output and the
    ``warning:`` and ``error:`` lines written, the exit code returned."""
    try:
        parsed = _parse(argv)
    except _UsageError as err:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        prog = f"mushy {command}" if command else "mushy"
        sys.stderr.write(f"{_usage(command)}\n{_line(f'{prog}: error: {err}')}")
        return EXIT_INPUT
    if parsed is None:
        return EXIT_OK
    handler, args = parsed
    out, error = args.out, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")  # each warning once per place, as in a fresh process
        try:
            output, code = handler(args)
        except RestrictionError as err:  # its document goes to stdout
            output = {
                "error": "restriction failure",
                "detail": str(err),
                "restrictions": [_report_doc(r) for r in err.reports],
            }
            out, code, error = None, EXIT_RESTRICTION, err
        except SolverError as err:  # any package error but an input one is a numerical one
            output, error = None, err
            code = EXIT_INPUT if isinstance(err, (ValidationError, DomainError)) else EXIT_NUMERICAL
    # a library warning is one line on stderr, as an error is, and an entry of the JSON document
    notes = [str(w.message) for w in caught]
    sys.stderr.writelines(_line(f"warning: {note}") for note in notes)
    if isinstance(output, dict):
        output = _json_text({**output, "warnings": notes} if notes else output)
    try:
        if output is not None:
            _write(output, out)
    except ValidationError as err:  # a failed write replaces the subcommand's error and exit code
        code, error = EXIT_INPUT, err
    if error is not None:
        sys.stderr.write(_line(f"error: {error}"))
    return code


if __name__ == "__main__":
    sys.exit(main())
