"""Coefficient identification for the Dirichlet overspecification.

Here the flux condition is overspecified by a prescribed face temperature
-d_inf instead of a convective exchange.  This is the h0 -> infinity limit
of the convective problem, where the attenuation 1 - q0/(h0 d_inf) becomes
beta = 1, and the module solves it as that instance: it calls the
front-position equations of :mod:`mushy.inverse_convective` at beta = 1 and
ends each solve in that module's recovery tail.  What the two faces do not
share are their restrictions, below, and the face datum.

Restrictions:

R6  face equation attainable: (d_inf/q0) sqrt(k rho c / pi) < 1;
R7  positive gamma: the face argument stays below erf(eta_r7);
R8  positive epsilon: the face argument exceeds erf(eta_r8);
R9  root existence for the unknown-specific-heat equation.

eta_r7 and eta_r8 are the roots of the front balance
(x + s e**x^2) e**x^2 = (q0/l) sqrt(c/(rho k)) (:func:`mushy.direct.stefan_lhs`)
at zero strength and at the full zone strength s = g = gamma sqrt(k rho c)/(2 q0)
(:func:`mushy.direct.zone_strength`), so R7 and R8 are the convective R3
and R4 phrased through roots.  R8's equation is rootless when g already
reaches the right side; the bound it encodes then holds for every xi, so
the restriction is reported as satisfied with an explanatory note.

R9 is implemented as the h0 -> infinity limit of the convective R5:
rho l k (d_inf + gamma (1 - epsilon)) / (2 q0^2) < 1.  This is exactly the
condition for the specific-heat equation's target to exceed its 0+ limit.
"""

import math
from functools import partial

from . import inverse_convective, specfun
from .direct import (
    _face_argument,
    _strength,
    balance_equation,
    build_solution,  # unused: perfbench's tracer rebinds it here (ROADMAP item 8)
    dxexp_sq,
    face_argument,
    specific_heat_products,
    stefan_rhs,
    xexp_sq,
    xexp_sq_start,
    zone_strength,
)
from .errors import NoRootError, RestrictionError
from .inverse_convective import _recover
from .model import (
    _C,
    _DIRICHLET,
    _GAMMA,
    _K,
    _L,
    _NORMAL_MIN,
    _RHO,
    BoundaryData,
    CaseResult,
    MushyCoefficients,
    OutputRecord,
    ProblemInstance,
    RestrictionReport,
    ThermalCoefficients,
    UnknownCase,
    _not_a_case,
    _report,
    normalised,
    out_of_range,
    validate,
)
from .rootfind import MonotoneEquation, solve_increasing

__all__ = [
    "check_r6",
    "check_r7",
    "check_r8",
    "check_r9",
    "solve_eta_r7",
    "solve_eta_r8",
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
    target = stefan_rhs(thermal, boundary)
    return _solve_eta_r7(target, xexp_sq_start(target))


def _solve_eta_r7(target: float, start: float) -> float:
    """:func:`solve_eta_r7` from its target, the Stefan target, and its start."""
    eq = MonotoneEquation(
        f=xexp_sq,
        target=target,
        lower_limit=0.0,
        df=dxexp_sq,
        name="eta equation (positive-gamma bound)",
        start=start,
    )
    return solve_increasing(eq)


def solve_eta_r8(
    thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData
) -> float:
    """Unique positive root of (x + g e**x^2) e**x^2 = (q0/l) sqrt(c/(rho k)),
    the front balance at the full zone strength g = gamma sqrt(k rho c) / (2 q0).

    The left side starts at g for x -> 0+, so no positive root exists when
    g already reaches the right side; NoRootError is raised then.
    ``mushy.gamma`` must be known; epsilon is not used.
    """
    g, target = zone_strength(thermal, mushy, boundary), stefan_rhs(thermal, boundary)
    return _solve_eta_r8(g, target, xexp_sq_start(target))


def _solve_eta_r8(g: float, target: float, start_r7: float) -> float:
    """:func:`solve_eta_r8` from the zone strength g, the Stefan target and
    the start of eta_r7's equation, from which its own start is found."""
    return solve_increasing(balance_equation(g, target, "eta equation (positive-epsilon bound)", start_r7))


def check_r6(thermal: ThermalCoefficients, boundary: BoundaryData) -> RestrictionReport:
    """R6: (d_inf/q0) sqrt(k rho c / pi) < 1, the restriction pass of case l."""
    return _check_all(_L, thermal, None, boundary)[0]


def check_r7(thermal: ThermalCoefficients, boundary: BoundaryData) -> RestrictionReport:
    """R7: the face argument stays below erf(eta_r7), the restriction pass of case gamma.

    Implies R6 since erf(eta_r7) < 1.  Equivalent to the convective R3 in
    the h0 -> infinity limit, but evaluated through the auxiliary root as
    the restriction is phrased in its source.
    """
    return _check_all(_GAMMA, thermal, None, boundary)[0]


def check_r8(
    thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData
) -> RestrictionReport:
    """R8: the face argument exceeds erf(eta_r8); oriented as lhs < rhs.

    When the eta_r8 equation has no positive root because g already
    reaches its target, the bound it encodes (recovered epsilon > 0) holds
    for every admissible xi, so the restriction is satisfied vacuously; the
    report says so and uses the degenerate limit erf(0) = 0 as the bound.
    Any other NoRootError (a target that is not finite) propagates, as R7's.
    The face argument is computed before eta_r8.
    """
    target = stefan_rhs(thermal, boundary)
    arg = face_argument(thermal, boundary, _DIRICHLET)
    return _r8(zone_strength(thermal, mushy, boundary), target, xexp_sq_start(target), arg)


def _r8(g: float, target: float, start_r7: float, arg: float) -> RestrictionReport:
    """R8's report from the zone strength g, the Stefan target, the start of
    eta_r7's equation and the face argument."""
    try:
        bound = math.erf(_solve_eta_r8(g, target, start_r7))
        note = ""
    except NoRootError as err:
        if not err.target <= err.lower_limit:
            raise
        bound = 0.0
        note = ("the auxiliary equation has no positive root (gamma sqrt(k rho c)/(2 q0) already reaches "
                "the front balance), so the bound holds for every xi")
    return _report("R8", bound, arg, note)


#: R9's note: how the unknown-specific-heat existence condition was printed
#: in its source, kept verbatim.  The symbol D_0 is undefined there and the
#: flux scale appears unsquared, which is dimensionally impossible, so the
#: implemented form is the h0 -> infinity limit of R5 instead.
_R9_NOTE = "repaired form; printed as (l k rho D_inf / (2 q0)) (1 + gamma (1 - epsilon) / D_0) < 1"


def check_r9(
    thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData
) -> RestrictionReport:
    """R9: rho l k (d_inf + gamma (1 - epsilon)) / (2 q0^2) < 1.

    Exactly the condition for the specific-heat equation's target to exceed
    its 0+ limit, and the h0 -> infinity limit of the convective R5.
    """
    rho_l_k, two_q0_sq = specific_heat_products(thermal, boundary)
    lhs = rho_l_k * (boundary.d_inf + mushy.gamma * (1.0 - mushy.epsilon)) / two_q0_sq
    return _report("R9", lhs, 1.0, _R9_NOTE)


def check_all(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> tuple[RestrictionReport, ...]:
    """Evaluate the restrictions of one case in order, up to the first failure:

    * l: R6;
    * c: R9;
    * k, rho: none, since their xi equation has exactly one positive root
      for every admissible data set;
    * gamma: R7;
    * epsilon: R7, R8.

    R8 reads R7's Stefan target, face argument, root start and product
    k rho c.  Data outside the band are checked in their units
    (:func:`~mushy.model.normalised`).
    """
    if type(case) is not UnknownCase:
        raise _not_a_case(case)
    instance = validate(thermal, mushy, boundary, case=case, face=_DIRICHLET)
    _, _, thermal, mushy, boundary = instance
    if type(instance) is ProblemInstance:  # every datum in the band
        return _check_all(case, thermal, mushy, boundary)
    return normalised(case, _check_all, thermal, mushy, boundary)


def _check_all(case, thermal, mushy, boundary) -> tuple[RestrictionReport, ...]:
    """:func:`check_all` on validated data."""
    if case is _L:
        return (_report("R6", _face_argument(thermal.k * thermal.rho * thermal.c, boundary.d_inf, boundary.q0, 1.0),
                        1.0),)
    if case is _C:
        return (check_r9(thermal, mushy, boundary),)
    if case is _K or case is _RHO:
        return ()
    target = stefan_rhs(thermal, boundary)
    start = xexp_sq_start(target)
    eta = _solve_eta_r7(target, start)
    k_rho_c = thermal.k * thermal.rho * thermal.c
    arg = _face_argument(k_rho_c, boundary.d_inf, boundary.q0, 1.0)
    r7 = _report("R7", arg, math.erf(eta))
    if not r7.satisfied or case is _GAMMA:
        return (r7,)
    return (r7, _r8(_strength(mushy.gamma, math.sqrt(k_rho_c), boundary.q0), target, start, arg))


# --- the recovery at beta = 1 ----------------------------------------------


#: The front-position equations of the unknown-conductivity/density and the
#: unknown-specific-heat cases: :func:`mushy.inverse_convective.xi_equation_kr`
#: and :func:`~mushy.inverse_convective.xi_equation_c` at beta = 1, called
#: with thermal, mushy and boundary.  The first has exactly one positive root
#: for every admissible data set, so k and rho carry no restriction; the
#: second's target exceeding its 0+ limit sqrt(pi)/2 + cf is R9.
xi_equation_kr = partial(inverse_convective.xi_equation_kr, factor=1.0)
xi_equation_c = partial(inverse_convective.xi_equation_c, factor=1.0)


def solve_dirichlet_case(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> CaseResult:
    """Recover one coefficient under the prescribed-temperature face.

    The restrictions R6-R9 of the case are checked first; the recovery is
    then that of :func:`mushy.inverse_convective.solve_case` at beta = 1,
    NumericalError and the units of data outside the band included.
    """
    if type(case) is not UnknownCase:
        raise _not_a_case(case)
    instance = validate(thermal, mushy, boundary, case=case, face=_DIRICHLET)
    _, _, thermal, mushy, boundary = instance
    if type(instance) is ProblemInstance:  # every datum in the band
        return _solve(case, thermal, mushy, boundary, check_all)
    return normalised(case, _solve, thermal, mushy, boundary, _check_all)


def _solve(case, thermal, mushy, boundary, check) -> CaseResult:
    """:func:`solve_dirichlet_case` on validated data, whose restrictions
    ``check`` evaluates: :func:`check_all`, which validates a second time
    (the benchmark pins that count), or on data already in their units
    :func:`_check_all`, which does not fit them again."""
    reports = check(case, thermal, mushy, boundary)
    if reports and not reports[-1].satisfied:  # the checks stop at their first failure
        inverse_convective.require_satisfied(reports)
    if case is _K or case is _RHO or case is _C:
        equation = inverse_convective.xi_equation_c if case is _C else inverse_convective.xi_equation_kr
        xi = solve_increasing(equation(thermal, mushy, boundary, 1.0))  # a normal double, or it raises
        gap = krc = None
    else:  # l, gamma, epsilon: R6's or R7's lhs is the face argument, from a normal k rho c
        xi = specfun.erf_inv(reports[0].lhs)
        if not _NORMAL_MIN <= xi:
            raise out_of_range("xi", xi)
        krc = math.sqrt(thermal.k * thermal.rho * thermal.c)
        gap = None if case is _L else stefan_rhs(thermal, boundary) - xexp_sq(xi)
    return _recover(case, thermal, mushy, boundary, reports, xi, 1.0, gap, krc)


# --- convective-to-Dirichlet limit study ------------------------------------


class LimitStudy(OutputRecord):
    """Convergence record of convective solutions toward the Dirichlet one.

    The same data (q0, d_inf, known coefficients) are solved convectively
    for each h0 of the grid and once with the prescribed-temperature face.
    Entries whose convective restrictions fail (small h0 cannot cool the
    face below the datum) are excluded and reported as (h0, reports) pairs;
    h0_grid, xi_conv and coeff_conv are parallel tuples over the rest.
    fitted_slope is the least-squares slope of log |xi_conv - xi_dirichlet|
    against log h0 and is None when fewer than two usable grid points remain.
    """

    __slots__ = ()

    def __new__(cls, h0_grid, xi_conv, coeff_conv, xi_dirichlet, coeff_dirichlet, fitted_slope, excluded):
        return tuple.__new__(cls, (h0_grid, xi_conv, coeff_conv, xi_dirichlet, coeff_dirichlet, fitted_slope,
                                   excluded))


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

    rows: list[tuple[float, float, float]] = []  # (h0, xi, coefficient) of each convective solve
    excluded: list[tuple[float, tuple[RestrictionReport, ...]]] = []
    for h0 in sorted(float(h) for h in h0_grid):
        conv_boundary = BoundaryData(q0=boundary.q0, d_inf=boundary.d_inf, h0=h0)
        try:
            result = inverse_convective.solve_case(case, thermal, mushy, conv_boundary)
        except RestrictionError as err:
            excluded.append((h0, err.reports))
            continue
        rows.append((h0, result.xi, result.value))
    kept, xi_conv, coeff_conv = zip(*rows) if rows else ((), (), ())

    points = [
        (math.log10(h0), math.log10(abs(xi - dirichlet.xi)))
        for h0, xi, _ in rows
        if abs(xi - dirichlet.xi) > 0.0
    ]
    slope: float | None = None
    if len(points) >= 2:
        mean_u = sum(u for u, _ in points) / len(points)
        mean_v = sum(v for _, v in points) / len(points)
        den = sum((u - mean_u) ** 2 for u, _ in points)
        if den > 0.0:
            slope = sum((u - mean_u) * (v - mean_v) for u, v in points) / den

    return LimitStudy(
        h0_grid=kept,
        xi_conv=xi_conv,
        coeff_conv=coeff_conv,
        xi_dirichlet=dirichlet.xi,
        coeff_dirichlet=dirichlet.value,
        fitted_slope=slope,
        excluded=tuple(excluded),
    )
