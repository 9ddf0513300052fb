"""Coefficient identification for the Dirichlet overspecification.

Here the flux condition is overspecified by a prescribed face temperature
-d_inf instead of a convective exchange.  This is the h0 -> infinity limit
of the convective problem, where the attenuation 1 - q0/(h0 d_inf) becomes
beta = 1, and the module solves it as that instance: the front-position
equations and the closed forms are those of
:mod:`mushy.inverse_convective` at beta = 1.  What the two faces do not
share are their restrictions, below, and the face datum.  The recovery is
checked independently of its own formulas by the consistency residuals
(:func:`mushy.direct.consistency_residuals`) and the per-condition
residuals (:func:`mushy.verify.condition_residuals`) that acceptance
criteria 3 and 4 evaluate at every output of both faces.

Restrictions:

R6  face equation attainable: (d_inf/q0) sqrt(k rho c / pi) < 1;
R7  positive gamma, phrased through the auxiliary root eta of
    x e**x^2 = (q0/l) sqrt(c/(rho k));
R8  epsilon < 1 ... > 0 bound, phrased through the root eta of
    x e**x^2 + (gamma sqrt(k rho c)/(2 q0)) e**2x^2 = (q0/l) sqrt(c/(rho k));
R9  root existence for the unknown-specific-heat equation.

The two auxiliary equations of R7 and R8 use distinct roots; they are kept
apart here as eta_r7 and eta_r8.  R8's equation can be rootless (its left
side may exceed the right side already at 0+); the bound it encodes then
holds for every xi, so the restriction is reported as satisfied with an
explanatory note.

R9 is implemented as the h0 -> infinity limit of the convective R5:
rho l k (d_inf + gamma (1 - epsilon)) / (2 q0^2) < 1.  This is exactly the
condition for the specific-heat equation's target to exceed its 0+ limit.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from . import inverse_convective, specfun
from .direct import build_solution, dxexp_sq, face_argument, stefan_rhs, xexp_sq
from .errors import NoRootError, RestrictionError
from .model import (
    BoundaryData,
    CaseResult,
    Face,
    MushyCoefficients,
    RestrictionReport,
    ThermalCoefficients,
    UnknownCase,
    validate,
    with_coefficient,
)
from .rootfind import MonotoneEquation, solve_increasing

__all__ = [
    "check_r6",
    "check_r7",
    "check_r8",
    "check_r9",
    "solve_eta_r7",
    "solve_eta_r8",
    "applicable_restrictions",
    "check_all",
    "solve_dirichlet_case",
    "xi_equation_kr",
    "xi_equation_c",
    "LimitStudy",
    "limit_study",
]


# --- auxiliary roots and restriction checks --------------------------------


def solve_eta_r7(thermal: ThermalCoefficients, boundary: BoundaryData) -> float:
    """Unique positive root of x e**x^2 = (q0/l) sqrt(c/(rho k)).

    The left side maps (0, inf) onto itself, so the root always exists for
    positive data.
    """
    eq = MonotoneEquation(
        f=xexp_sq,
        target=stefan_rhs(thermal, boundary),
        lower_limit=0.0,
        df=dxexp_sq,
        name="eta equation (positive-gamma bound)",
    )
    return solve_increasing(eq)


def solve_eta_r8(
    thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData
) -> float:
    """Unique positive root of x e**x^2 + g e**2x^2 = (q0/l) sqrt(c/(rho k)),
    g = gamma sqrt(k rho c) / (2 q0).

    The left side starts at g for x -> 0+, so no positive root exists when
    g already reaches the right side; NoRootError is raised then.
    ``mushy.gamma`` must be known; epsilon is not used.
    """
    g = mushy.gamma * math.sqrt(thermal.k * thermal.rho * thermal.c) / (2.0 * boundary.q0)

    def f(x: float) -> float:
        return xexp_sq(x) + g * math.exp(2.0 * x * x)

    def df(x: float) -> float:
        return dxexp_sq(x) + 4.0 * x * g * math.exp(2.0 * x * x)

    eq = MonotoneEquation(
        f=f,
        target=stefan_rhs(thermal, boundary),
        lower_limit=g,
        df=df,
        name="eta equation (positive-epsilon bound)",
    )
    return solve_increasing(eq)


def check_r6(thermal: ThermalCoefficients, boundary: BoundaryData) -> RestrictionReport:
    """R6: (d_inf/q0) sqrt(k rho c / pi) < 1."""
    arg = face_argument(thermal, boundary, Face.DIRICHLET)
    return RestrictionReport(restriction_id="R6", satisfied=arg < 1.0, lhs=arg, rhs=1.0)


def check_r7(thermal: ThermalCoefficients, boundary: BoundaryData) -> RestrictionReport:
    """R7: the face argument stays below erf(eta_r7).

    Implies R6 since erf(eta_r7) < 1.  Equivalent to the convective R3 in
    the h0 -> infinity limit, but evaluated through the auxiliary root as
    the restriction is phrased in its source.
    """
    arg = face_argument(thermal, boundary, Face.DIRICHLET)
    bound = specfun.erf(solve_eta_r7(thermal, boundary))
    return RestrictionReport(restriction_id="R7", satisfied=arg < bound, lhs=arg, rhs=bound)


def check_r8(
    thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData
) -> RestrictionReport:
    """R8: the face argument exceeds erf(eta_r8); oriented as lhs < rhs.

    When the eta_r8 equation has no positive root, the bound it encodes
    (recovered epsilon > 0) holds for every admissible xi, so the
    restriction is satisfied vacuously; the report says so and uses the
    degenerate limit erf(0) = 0 as the bound.
    """
    arg = face_argument(thermal, boundary, Face.DIRICHLET)
    try:
        bound = specfun.erf(solve_eta_r8(thermal, mushy, boundary))
        note = ""
    except NoRootError:
        bound = 0.0
        note = (
            "the auxiliary equation has no positive root "
            "(gamma sqrt(k rho c)/(2 q0) already reaches the front balance), "
            "so the bound holds for every xi"
        )
    return RestrictionReport(restriction_id="R8", satisfied=bound < arg, lhs=bound, rhs=arg, note=note)


#: How the unknown-specific-heat existence condition was printed in its
#: source; kept verbatim in diagnostics.  The symbol D_0 is undefined there
#: and the flux scale appears unsquared, which is dimensionally impossible,
#: so the implemented form is the h0 -> infinity limit of R5 instead.
_R9_AS_PRINTED = "(l k rho D_inf / (2 q0)) (1 + gamma (1 - epsilon) / D_0) < 1"


def check_r9(
    thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData
) -> RestrictionReport:
    """R9: rho l k (d_inf + gamma (1 - epsilon)) / (2 q0^2) < 1.

    Exactly the condition for the specific-heat equation's target to exceed
    its 0+ limit, and the h0 -> infinity limit of the convective R5.
    """
    lhs = (
        thermal.rho
        * thermal.l
        * thermal.k
        * (boundary.d_inf + mushy.gamma * (1.0 - mushy.epsilon))
        / (2.0 * boundary.q0 * boundary.q0)
    )
    return RestrictionReport(
        restriction_id="R9",
        satisfied=lhs < 1.0,
        lhs=lhs,
        rhs=1.0,
        note=f"repaired form; printed as {_R9_AS_PRINTED}",
    )


_CASE_RESTRICTIONS = {
    UnknownCase.L: ("R6",),
    UnknownCase.GAMMA: ("R7",),
    UnknownCase.EPSILON: ("R7", "R8"),
    UnknownCase.K: (),
    UnknownCase.RHO: (),
    UnknownCase.C: ("R9",),
}


def applicable_restrictions(case: UnknownCase) -> tuple[str, ...]:
    """Identifiers of the restrictions governing one Dirichlet case.

    The unknown-conductivity and unknown-density cases have none: their xi
    equation has exactly one positive root for every admissible data set.
    """
    return _CASE_RESTRICTIONS[case]


def check_all(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> tuple[RestrictionReport, ...]:
    """Evaluate the restrictions of one case in order."""
    instance = validate(thermal, mushy, boundary, case=case, face=Face.DIRICHLET)
    thermal, mushy, boundary = instance.thermal, instance.mushy, instance.boundary
    reports: list[RestrictionReport] = []
    for rid in _CASE_RESTRICTIONS[case]:
        if rid == "R6":
            reports.append(check_r6(thermal, boundary))
        elif rid == "R7":
            reports.append(check_r7(thermal, boundary))
        elif rid == "R8":
            reports.append(check_r8(thermal, mushy, boundary))
        elif rid == "R9":
            reports.append(check_r9(thermal, mushy, boundary))
        if not reports[-1].satisfied:
            break
    return tuple(reports)


# --- the recovery at beta = 1 ----------------------------------------------


def xi_equation_kr(
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> MonotoneEquation:
    """Front-position equation for the unknown-conductivity/density cases:
    :func:`mushy.inverse_convective.xi_equation_kr` at beta = 1.

    It vanishes at 0+ and grows unboundedly, so the positive target always
    has exactly one root; the case carries no restriction.
    """
    return inverse_convective.xi_equation_kr(thermal, mushy, boundary, factor=1.0)


def xi_equation_c(
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> MonotoneEquation:
    """Front-position equation for the unknown-specific-heat case:
    :func:`mushy.inverse_convective.xi_equation_c` at beta = 1, whose
    target exceeding its 0+ limit sqrt(pi)/2 + cf is restriction R9.
    """
    return inverse_convective.xi_equation_c(thermal, mushy, boundary, factor=1.0)


def solve_dirichlet_case(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> CaseResult:
    """Recover one coefficient under the prescribed-temperature face.

    The restrictions R6-R9 of the case are checked first; the recovery is
    then that of :func:`mushy.inverse_convective.solve_case` at beta = 1.
    """
    instance = validate(thermal, mushy, boundary, case=case, face=Face.DIRICHLET)
    thermal, mushy, boundary = instance.thermal, instance.mushy, instance.boundary
    reports = check_all(case, thermal, mushy, boundary)
    inverse_convective.require_satisfied(reports)

    if case in inverse_convective.FACE_CASES:
        xi = specfun.erf_inv(face_argument(thermal, boundary, Face.DIRICHLET))
    else:
        equation = xi_equation_c if case is UnknownCase.C else xi_equation_kr
        xi = solve_increasing(equation(thermal, mushy, boundary))

    value = inverse_convective.closed_form(case, thermal, mushy, boundary, xi, 1.0)
    solution = build_solution(*with_coefficient(thermal, mushy, case, value), boundary, xi)
    return CaseResult(case=case, value=value, xi=xi, solution=solution, reports=reports)


# --- convective-to-Dirichlet limit study ------------------------------------


class LimitStudy(NamedTuple):
    """Convergence record of convective solutions toward the Dirichlet one.

    The same data (q0, d_inf, known coefficients) are solved convectively
    for each h0 of the grid and once with the prescribed-temperature face.
    Entries whose convective restrictions fail (small h0 cannot cool the
    face below the datum) are excluded and reported.  fitted_slope is the
    least-squares slope of log |xi_conv - xi_dirichlet| against log h0 and
    is None when fewer than two usable grid points remain.
    """

    h0_grid: tuple[float, ...]
    xi_conv: tuple[float, ...]
    coeff_conv: tuple[float, ...]
    xi_dirichlet: float
    coeff_dirichlet: float
    fitted_slope: Optional[float]
    excluded: tuple[tuple[float, tuple[RestrictionReport, ...]], ...]


def limit_study(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    h0_grid: tuple[float, ...],
) -> LimitStudy:
    """Quantify how fast the convective problem approaches the Dirichlet one.

    The gap |xi_conv(h0) - xi_dirichlet| decays like 1/h0 (the attenuation
    factor is 1 - q0/(h0 d_inf)), so the fitted slope is close to -1
    whenever the grid reaches into the asymptotic regime.
    """
    dirichlet = solve_dirichlet_case(case, thermal, mushy, boundary)

    grid = tuple(sorted(float(h) for h in h0_grid))
    kept: list[float] = []
    xi_conv: list[float] = []
    coeff_conv: list[float] = []
    excluded: list[tuple[float, tuple[RestrictionReport, ...]]] = []
    for h0 in grid:
        conv_boundary = BoundaryData(q0=boundary.q0, d_inf=boundary.d_inf, h0=h0)
        try:
            result = inverse_convective.solve_case(case, thermal, mushy, conv_boundary)
        except RestrictionError as err:
            excluded.append((h0, err.reports))
            continue
        kept.append(h0)
        xi_conv.append(result.xi)
        coeff_conv.append(result.value)

    points = [
        (math.log10(h0), math.log10(abs(xi - dirichlet.xi)))
        for h0, xi in zip(kept, xi_conv)
        if abs(xi - dirichlet.xi) > 0.0
    ]
    slope: Optional[float] = None
    if len(points) >= 2:
        mean_u = sum(u for u, _ in points) / len(points)
        mean_v = sum(v for _, v in points) / len(points)
        den = sum((u - mean_u) ** 2 for u, _ in points)
        if den > 0.0:
            slope = sum((u - mean_u) * (v - mean_v) for u, v in points) / den

    return LimitStudy(
        h0_grid=tuple(kept),
        xi_conv=tuple(xi_conv),
        coeff_conv=tuple(coeff_conv),
        xi_dirichlet=dirichlet.xi,
        coeff_dirichlet=dirichlet.value,
        fitted_slope=slope,
        excluded=tuple(excluded),
    )
