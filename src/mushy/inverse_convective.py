"""Coefficient identification for the convective overspecification.

The flux condition at the fixed face is overspecified by a Robin condition
with coefficient h0/sqrt(t), which pins down one otherwise-free thermal
coefficient.  Each of the six admissible unknowns (l, gamma, epsilon, k,
rho, c) has its own solvability restrictions, checked strictly and before
any numerics:

R1  the convective data admit a cooling face: q0 < h0 d_inf;
R2  the face equation is attainable: face argument < 1;
R3  positive gamma: the zone kernel at xi stays below the front balance;
R4  epsilon < 1 side of the same balance (the unknown-epsilon case);
R5  root existence for the unknown-specific-heat equation.

:func:`solve_case` returns the evaluated reports alongside the recovered
coefficient, the front position and the assembled solution.  Its recovery,
the two front-position equations and :func:`closed_form`, is written for a
general attenuation beta = 1 - q0/(h0 d_inf); the Dirichlet face is its
beta = 1 instance (:mod:`mushy.inverse_dirichlet`).
"""

from __future__ import annotations

import math
from typing import Optional

from . import specfun
from .direct import (
    SQRT_PI,
    build_solution,
    face_argument,
    face_factor,
    mushy_strength,
    stefan_lhs,
    stefan_rhs,
    xexp_sq,
)
from .errors import RestrictionError
from .model import (
    BoundaryData,
    CaseResult,
    Face,
    MushyCoefficients,
    RestrictionReport,
    ThermalCoefficients,
    UnknownCase,
    validate,
)
from .rootfind import MonotoneEquation, solve_increasing

__all__ = [
    "check_r1",
    "check_r2",
    "check_r3",
    "check_r4",
    "check_r5",
    "applicable_restrictions",
    "check_all",
    "require_satisfied",
    "FACE_CASES",
    "closed_form",
    "solve_case",
    "xi_equation_kr",
    "xi_equation_c",
]


# --- restriction checks ----------------------------------------------------


def check_r1(boundary: BoundaryData) -> RestrictionReport:
    """R1: q0 < h0 d_inf, i.e. the face actually cools below the datum."""
    return RestrictionReport(
        restriction_id="R1",
        satisfied=boundary.q0 < boundary.h0 * boundary.d_inf,
        lhs=boundary.q0,
        rhs=boundary.h0 * boundary.d_inf,
    )


def check_r2(thermal: ThermalCoefficients, boundary: BoundaryData) -> RestrictionReport:
    """R2: the face argument (d_inf/q0) sqrt(k rho c/pi) (1 - q0/(h0 d_inf)) < 1."""
    arg = face_argument(thermal, boundary, Face.CONVECTIVE)
    return RestrictionReport(restriction_id="R2", satisfied=arg < 1.0, lhs=arg, rhs=1.0)


def check_r3(thermal: ThermalCoefficients, boundary: BoundaryData) -> RestrictionReport:
    """R3: xi e**xi^2 < (q0/l) sqrt(c/(rho k)) at the face-determined xi.

    Exactly the condition for the recovered gamma to come out positive.
    Requires R1 and R2, which make the face-determined xi well defined.
    """
    xi = specfun.erf_inv(face_argument(thermal, boundary, Face.CONVECTIVE))
    return RestrictionReport(
        restriction_id="R3",
        satisfied=xexp_sq(xi) < stefan_rhs(thermal, boundary),
        lhs=xexp_sq(xi),
        rhs=stefan_rhs(thermal, boundary),
    )


def check_r4(
    thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData
) -> RestrictionReport:
    """R4: the full-strength front balance exceeds its right side at xi.

    Exactly the condition for the recovered epsilon to stay above 0; the
    inequality is oriented so that, as everywhere, satisfied == lhs < rhs.
    Requires R1 and R2.  ``mushy.gamma`` must be known; epsilon is not used.
    """
    xi = specfun.erf_inv(face_argument(thermal, boundary, Face.CONVECTIVE))
    full = mushy.gamma * math.sqrt(thermal.k * thermal.rho * thermal.c) / (2.0 * boundary.q0)
    rhs = xexp_sq(xi) + full * math.exp(2.0 * xi * xi)
    return RestrictionReport(
        restriction_id="R4",
        satisfied=stefan_rhs(thermal, boundary) < rhs,
        lhs=stefan_rhs(thermal, boundary),
        rhs=rhs,
    )


def check_r5(
    thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData
) -> RestrictionReport:
    """R5: 1 - q0/(h0 d_inf) < (2 q0^2/(rho l k) - gamma (1 - epsilon)) / d_inf.

    Root-existence condition for the unknown-specific-heat equation: it is
    algebraically equivalent to the equation's target exceeding its value
    at xi -> 0+.
    """
    lhs = face_factor(boundary, Face.CONVECTIVE)
    rhs = (
        2.0 * boundary.q0 * boundary.q0 / (thermal.rho * thermal.l * thermal.k)
        - mushy.gamma * (1.0 - mushy.epsilon)
    ) / boundary.d_inf
    return RestrictionReport(restriction_id="R5", satisfied=lhs < rhs, lhs=lhs, rhs=rhs)


_CASE_RESTRICTIONS = {
    UnknownCase.L: ("R1", "R2"),
    UnknownCase.GAMMA: ("R1", "R2", "R3"),
    UnknownCase.EPSILON: ("R1", "R2", "R3", "R4"),
    UnknownCase.K: ("R1",),
    UnknownCase.RHO: ("R1",),
    UnknownCase.C: ("R1", "R5"),
}


def applicable_restrictions(case: UnknownCase) -> tuple[str, ...]:
    """Identifiers of the restrictions governing one convective case."""
    return _CASE_RESTRICTIONS[case]


def check_all(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> tuple[RestrictionReport, ...]:
    """Evaluate the restrictions of one case in dependency order.

    Stops early when a failed restriction makes the later ones undefined
    (R3 and R4 need the face-determined xi, hence R1 and R2).
    """
    instance = validate(thermal, mushy, boundary, case=case, face=Face.CONVECTIVE)
    return _evaluate(case, instance.thermal, instance.mushy, instance.boundary)


def _evaluate(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> tuple[RestrictionReport, ...]:
    """:func:`check_all` on data that are already validated."""
    reports: list[RestrictionReport] = []
    for rid in _CASE_RESTRICTIONS[case]:
        if rid == "R1":
            reports.append(check_r1(boundary))
        elif rid == "R2":
            reports.append(check_r2(thermal, boundary))
        elif rid == "R3":
            reports.append(check_r3(thermal, boundary))
        elif rid == "R4":
            reports.append(check_r4(thermal, mushy, boundary))
        elif rid == "R5":
            reports.append(check_r5(thermal, mushy, boundary))
        if not reports[-1].satisfied:
            break
    return tuple(reports)


def require_satisfied(reports: tuple[RestrictionReport, ...]) -> None:
    """Raise RestrictionError carrying ``reports`` if any of them failed."""
    failed = [r.restriction_id for r in reports if not r.satisfied]
    if failed:
        raise RestrictionError(f"restriction(s) {', '.join(failed)} violated", reports)


# --- the two root-finding equations ---------------------------------------


def xi_equation_kr(
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    factor: Optional[float] = None,
) -> MonotoneEquation:
    """Front-position equation for the unknown-conductivity/density cases.

    Eliminating k (equivalently rho) between the two consistency equations
    leaves one strictly increasing function of xi:

        (x + cf erf(x) e**x^2) erf(x) e**x^2 = c d_inf beta / (l sqrt(pi)),
        cf = gamma sqrt(pi) (1 - epsilon) / (2 d_inf beta),

    with beta the convective attenuation.  The function vanishes at 0+ and
    grows unboundedly, so a positive target always has exactly one root;
    only R1 (beta > 0) is needed.  ``factor`` is beta when given; 1.0 gives
    the Dirichlet face, the h0 -> infinity limit.
    """
    beta = face_factor(boundary, Face.CONVECTIVE) if factor is None else factor
    cf = mushy.gamma * SQRT_PI * (1.0 - mushy.epsilon) / (2.0 * boundary.d_inf * beta)
    target = thermal.c * boundary.d_inf * beta / (thermal.l * SQRT_PI)

    def f(x: float) -> float:
        e = math.exp(x * x)
        erf_x = specfun.erf(x)
        return (x + cf * erf_x * e) * erf_x * e

    def df(x: float) -> float:
        e = math.exp(x * x)
        erf_x = specfun.erf(x)
        derf = specfun.TWO_OVER_SQRT_PI * math.exp(-x * x)
        inner = derf + 2.0 * x * erf_x
        return e * ((1.0 + cf * e * inner) * erf_x + (x + cf * erf_x * e) * inner)

    return MonotoneEquation(f=f, target=target, lower_limit=0.0, df=df, name="xi equation (k/rho case)")


def xi_equation_c(
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    factor: Optional[float] = None,
) -> MonotoneEquation:
    """Front-position equation for the unknown-specific-heat case.

    Eliminating c between the consistency equations gives

        (x / erf(x) + cf e**x^2) e**x^2 = q0^2 sqrt(pi) / (rho l k d_inf beta),

    with the same cf and ``factor`` as :func:`xi_equation_kr`.  x/erf(x)
    tends to sqrt(pi)/2 at 0+, so the left side starts at sqrt(pi)/2 + cf;
    the target exceeding that limit is restriction R5.
    """
    beta = face_factor(boundary, Face.CONVECTIVE) if factor is None else factor
    cf = mushy.gamma * SQRT_PI * (1.0 - mushy.epsilon) / (2.0 * boundary.d_inf * beta)
    target = boundary.q0 * boundary.q0 * SQRT_PI / (thermal.rho * thermal.l * thermal.k * boundary.d_inf * beta)
    lower = 0.5 * SQRT_PI + cf

    def f(x: float) -> float:
        e = math.exp(x * x)
        return (x / specfun.erf(x) + cf * e) * e

    def df(x: float) -> float:
        e = math.exp(x * x)
        erf_x = specfun.erf(x)
        ratio = x / erf_x
        dratio = (erf_x - x * specfun.TWO_OVER_SQRT_PI * math.exp(-x * x)) / (erf_x * erf_x)
        return e * (dratio + 2.0 * x * ratio + 4.0 * x * cf * e)

    return MonotoneEquation(f=f, target=target, lower_limit=lower, df=df, name="xi equation (c case)")


# --- the shared recovery ---------------------------------------------------

#: Cases whose front position follows from the face equation alone.
FACE_CASES = (UnknownCase.L, UnknownCase.GAMMA, UnknownCase.EPSILON)


def closed_form(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    xi: float,
    beta: Optional[float],
) -> float:
    """The unknown coefficient of ``case`` once the front position xi is known.

    ``beta`` is the face attenuation 1 - q0/(h0 d_inf), 1 for the Dirichlet
    face.  Only the k, rho and c forms read it, so the face-equation cases
    may pass None; those three share amp = q0 erf(xi) / (d_inf beta), the
    square root of k rho c / pi.  gamma and epsilon share the
    cancellation-prone gap (q0/l) sqrt(c/(rho k)) - xi e**xi^2 that R3 (R7)
    keeps positive.
    """
    if case is UnknownCase.L:
        return boundary.q0 * math.sqrt(thermal.c / (thermal.rho * thermal.k)) / stefan_lhs(
            xi, mushy_strength(thermal, mushy, boundary)
        )
    if case in (UnknownCase.GAMMA, UnknownCase.EPSILON):
        gap = stefan_rhs(thermal, boundary) - xexp_sq(xi)
        krc = math.sqrt(thermal.k * thermal.rho * thermal.c)
        if case is UnknownCase.GAMMA:
            return (2.0 * boundary.q0 / ((1.0 - mushy.epsilon) * krc)) * gap * math.exp(-2.0 * xi * xi)
        return 1.0 - (2.0 * boundary.q0 / (mushy.gamma * krc)) * gap * math.exp(-2.0 * xi * xi)
    amp = boundary.q0 * specfun.erf(xi) / (boundary.d_inf * beta)
    if case is UnknownCase.K:
        return math.pi / (thermal.rho * thermal.c) * amp * amp
    if case is UnknownCase.RHO:
        return math.pi / (thermal.k * thermal.c) * amp * amp
    return math.pi / (thermal.rho * thermal.k) * amp * amp


def solve_case(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> CaseResult:
    """Recover one coefficient under the convective face.

    Cases l, gamma, epsilon read xi off the face equation through the
    inverse error function; cases k and rho solve :func:`xi_equation_kr`
    for it and case c :func:`xi_equation_c`.  The restrictions are checked
    first, in the order and with the early stop of :func:`check_all`, and a
    failure raises RestrictionError with exactly those reports.
    """
    instance = validate(thermal, mushy, boundary, case=case, face=Face.CONVECTIVE)
    thermal, mushy, boundary = instance.thermal, instance.mushy, instance.boundary
    reports = _evaluate(case, thermal, mushy, boundary)
    require_satisfied(reports)

    if case in FACE_CASES:
        beta = None
        xi = specfun.erf_inv(face_argument(thermal, boundary, Face.CONVECTIVE))
    else:
        beta = face_factor(boundary, Face.CONVECTIVE)
        equation = xi_equation_c if case is UnknownCase.C else xi_equation_kr
        xi = solve_increasing(equation(thermal, mushy, boundary, beta))

    value = closed_form(case, thermal, mushy, boundary, xi, beta)
    full = instance.with_value(value)
    solution = build_solution(full.thermal, full.mushy, full.boundary, xi)
    return CaseResult(case=case, value=value, xi=xi, solution=solution, reports=reports)
