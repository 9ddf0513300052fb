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
    specific_heat_products,
    stefan_lhs,
    stefan_rhs,
    xexp_sq,
    zone_strength,
)
from .errors import DomainError, NumericalError, RestrictionError, ValidationError
from .model import (
    _C,
    _CONVECTIVE,
    _EPSILON,
    _GAMMA,
    _K,
    _L,
    _RHO,
    BoundaryData,
    CaseResult,
    MushyCoefficients,
    RestrictionReport,
    ThermalCoefficients,
    UnknownCase,
    validate,
)
from .rootfind import MonotoneEquation, solve_increasing
from .specfun import TWO_OVER_SQRT_PI

__all__ = [
    "check_r1",
    "check_r2",
    "check_r3",
    "check_r4",
    "check_r5",
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
    q0, rhs = boundary.q0, boundary.h0 * boundary.d_inf
    return tuple.__new__(RestrictionReport, ("R1", q0 < rhs, q0, rhs, ""))


def check_r2(thermal: ThermalCoefficients, boundary: BoundaryData) -> RestrictionReport:
    """R2: the face argument (d_inf/q0) sqrt(k rho c/pi) (1 - q0/(h0 d_inf)) < 1."""
    arg = face_argument(thermal, boundary, _CONVECTIVE)
    return tuple.__new__(RestrictionReport, ("R2", arg < 1.0, arg, 1.0, ""))


def check_r3(thermal: ThermalCoefficients, boundary: BoundaryData, xi: float) -> RestrictionReport:
    """R3: xi e**xi^2 < (q0/l) sqrt(c/(rho k)) at the face-determined xi.

    Exactly the condition for the recovered gamma to come out positive.
    ``xi`` is the face-determined front position, erf_inv of R2's face
    argument, which R1 and R2 make well defined; :func:`_evaluate` computes
    it once R2 holds.
    """
    lhs = xexp_sq(xi)
    rhs = stefan_rhs(thermal, boundary)
    return tuple.__new__(RestrictionReport, ("R3", lhs < rhs, lhs, rhs, ""))


def check_r4(
    thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData, xi: float
) -> RestrictionReport:
    """R4: the front balance at the full zone strength exceeds its right side at xi.

    Exactly the condition for the recovered epsilon to stay above 0; the
    inequality is oriented so that, as everywhere, satisfied == lhs < rhs.
    ``xi`` is the face-determined front position of :func:`check_r3`, so
    R1 and R2 must hold.  ``mushy.gamma`` must be known; epsilon is not used.
    """
    lhs = stefan_rhs(thermal, boundary)
    rhs = stefan_lhs(xi, zone_strength(thermal, mushy, boundary))
    return tuple.__new__(RestrictionReport, ("R4", lhs < rhs, lhs, rhs, ""))


def check_r5(
    thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData
) -> RestrictionReport:
    """R5: 1 - q0/(h0 d_inf) < (2 q0^2/(rho l k) - gamma (1 - epsilon)) / d_inf.

    Root-existence condition for the unknown-specific-heat equation: it is
    algebraically equivalent to the equation's target exceeding its value
    at xi -> 0+.  Valid data that underflow h0 d_inf (in
    :func:`~mushy.direct.face_factor`), then rho l k or 2 q0^2 (in
    :func:`~mushy.direct.specific_heat_products`) raise NumericalError.
    """
    lhs = face_factor(boundary, _CONVECTIVE)
    rho_l_k, two_q0_sq = specific_heat_products(thermal, boundary)
    rhs = (two_q0_sq / rho_l_k - mushy.gamma * (1.0 - mushy.epsilon)) / boundary.d_inf
    return tuple.__new__(RestrictionReport, ("R5", lhs < rhs, lhs, rhs, ""))


#: Why a solve of valid data can still fail: a product of them leaves the
#: double range, or a figure of the solution built from them does (an xi,
#: b_coef or mu the solution record refuses).  The restriction checks name
#: the product they meet.
UNDERFLOW = "a product of the data underflows to 0, outside the range of a double"
SOLUTION_OUT_OF_RANGE = "the solution leaves the range of a double"


def check_all(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> tuple[RestrictionReport, ...]:
    """Evaluate the restrictions of one case in dependency order.

    Stops at the first failure, which makes the later ones undefined (R3
    and R4 need the face-determined xi, hence R1 and R2).  Data whose
    products underflow to 0 raise NumericalError.
    """
    instance = validate(thermal, mushy, boundary, case=case, face=_CONVECTIVE)
    return _evaluate(case, instance.thermal, instance.mushy, instance.boundary)[0]


def _evaluate(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> tuple[tuple[RestrictionReport, ...], Optional[float]]:
    """:func:`check_all` on data that are already validated, plus xi.

    The restrictions of each case, run in this order up to the first
    failure:

    * k, rho: R1;
    * c: R1, R5;
    * l: R1, R2;
    * gamma: R1, R2, R3;
    * epsilon: R1, R2, R3, R4.

    Once R2 holds, the face-determined front position xi = erf_inv(R2's
    face argument) is computed, once, and handed to R3 and R4.  It is
    returned for the face-equation cases l, gamma and epsilon, and is None
    for k, rho and c or when R1 or R2 failed.
    """
    r1 = check_r1(boundary)
    if not r1.satisfied or case is _K or case is _RHO:
        return (r1,), None
    if case is _C:
        return (r1, check_r5(thermal, mushy, boundary)), None
    r2 = check_r2(thermal, boundary)
    if not r2.satisfied:
        return (r1, r2), None
    xi = specfun.erf_inv(r2.lhs)
    if case is _L:
        return (r1, r2), xi
    r3 = check_r3(thermal, boundary, xi)
    if not r3.satisfied or case is _GAMMA:
        return (r1, r2, r3), xi
    return (r1, r2, r3, check_r4(thermal, mushy, boundary, xi)), xi


def require_satisfied(reports: tuple[RestrictionReport, ...]) -> None:
    """Raise RestrictionError carrying ``reports`` if any of them failed."""
    for report in reports:  # a passing solve allocates nothing here
        if not report.satisfied:
            failed = ", ".join([r.restriction_id for r in reports if not r.satisfied])
            raise RestrictionError(f"restriction(s) {failed} violated", reports)


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
    beta = face_factor(boundary, _CONVECTIVE) if factor is None else factor
    cf = mushy.gamma * SQRT_PI * (1.0 - mushy.epsilon) / (2.0 * boundary.d_inf * beta)
    target = thermal.c * boundary.d_inf * beta / (thermal.l * SQRT_PI)

    # f and df are evaluated at finite x > 0 (the root finder's iterates lie
    # in (0, 40]), so they call math.erf directly.
    def f(x: float) -> float:
        e = math.exp(x * x)
        erf_x = math.erf(x)
        return (x + cf * erf_x * e) * erf_x * e

    def df(x: float) -> float:
        e = math.exp(x * x)
        erf_x = math.erf(x)
        derf = TWO_OVER_SQRT_PI * math.exp(-x * x)
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
    beta = face_factor(boundary, _CONVECTIVE) if factor is None else factor
    cf = mushy.gamma * SQRT_PI * (1.0 - mushy.epsilon) / (2.0 * boundary.d_inf * beta)
    target = boundary.q0 * boundary.q0 * SQRT_PI / (thermal.rho * thermal.l * thermal.k * boundary.d_inf * beta)
    lower = 0.5 * SQRT_PI + cf

    def f(x: float) -> float:  # math.erf: as in xi_equation_kr
        e = math.exp(x * x)
        return (x / math.erf(x) + cf * e) * e

    def df(x: float) -> float:
        e = math.exp(x * x)
        erf_x = math.erf(x)
        ratio = x / erf_x
        dratio = (erf_x - x * TWO_OVER_SQRT_PI * math.exp(-x * x)) / (erf_x * erf_x)
        return e * (dratio + 2.0 * x * ratio + 4.0 * x * cf * e)

    return MonotoneEquation(f=f, target=target, lower_limit=lower, df=df, name="xi equation (c case)")


# --- the shared recovery ---------------------------------------------------

#: Cases whose front position follows from the face equation alone.
FACE_CASES = (_L, _GAMMA, _EPSILON)


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
    keeps positive.  ``xi`` is a front position the recovery computed,
    positive and finite, so erf is taken by math.erf without a check.  A
    value that is not a positive finite double raises NumericalError: the
    data, each valid, leave the double range together.
    """
    if case is _L:
        value = boundary.q0 * math.sqrt(thermal.c / (thermal.rho * thermal.k)) / stefan_lhs(
            xi, mushy_strength(thermal, mushy, boundary)
        )
    elif case is _GAMMA or case is _EPSILON:
        gap = stefan_rhs(thermal, boundary) - xexp_sq(xi)
        krc = math.sqrt(thermal.k * thermal.rho * thermal.c)
        if case is _GAMMA:
            value = (2.0 * boundary.q0 / ((1.0 - mushy.epsilon) * krc)) * gap * math.exp(-2.0 * xi * xi)
        else:
            value = 1.0 - (2.0 * boundary.q0 / (mushy.gamma * krc)) * gap * math.exp(-2.0 * xi * xi)
    else:
        amp = boundary.q0 * math.erf(xi) / (boundary.d_inf * beta)
        if case is _K:
            value = math.pi / (thermal.rho * thermal.c) * amp * amp
        elif case is _RHO:
            value = math.pi / (thermal.k * thermal.c) * amp * amp
        else:
            value = math.pi / (thermal.rho * thermal.k) * amp * amp
    if not 0.0 < value < math.inf:
        raise NumericalError(f"the recovered {case.value} = {value!r} is not a positive finite number; "
                             "the data leave the range of a double")
    return value


def solve_case(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> CaseResult:
    """Recover one coefficient under the convective face.

    Cases l, gamma, epsilon take xi from the restriction checks, which read
    it off the face equation through the inverse error function; cases k
    and rho solve :func:`xi_equation_kr` for it and case c
    :func:`xi_equation_c`.  The restrictions are checked first, in the
    order and with the early stop of :func:`check_all`, and a failure
    raises RestrictionError with exactly those reports.  Data whose
    arithmetic leaves the double range raise NumericalError.
    """
    instance = validate(thermal, mushy, boundary, case=case, face=_CONVECTIVE)
    thermal, mushy, boundary = instance.thermal, instance.mushy, instance.boundary
    reports, xi = _evaluate(case, thermal, mushy, boundary)
    require_satisfied(reports)

    beta = None
    try:
        if xi is None:  # k, rho or c: every restriction held, none of them R2
            beta = face_factor(boundary, _CONVECTIVE)
            equation = xi_equation_c if case is _C else xi_equation_kr
            xi = solve_increasing(equation(thermal, mushy, boundary, beta))

        value = closed_form(case, thermal, mushy, boundary, xi, beta)
        solution = build_solution(thermal, mushy, boundary, xi, value)
    except ZeroDivisionError:
        raise NumericalError(f"case {case.value}: {UNDERFLOW}") from None
    except (ValidationError, DomainError) as err:  # build_solution's checks of xi and the record
        raise NumericalError(f"case {case.value}: {SOLUTION_OUT_OF_RANGE}: {err}") from None
    return tuple.__new__(CaseResult, (case, value, xi, solution, reports))
