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

import math

from . import specfun
from .direct import (
    _LN2,
    _NORMAL_MIN,
    SQRT_PI,
    _balance_lhs,
    _face_argument,
    _strength,
    build_solution,
    face_argument,
    face_factor,
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

_FOUR_OVER_PI = 4.0 / math.pi
_R_AT_ONE = 1.0 / math.erf(1.0)  # x / erf(x) at x = 1

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
    return _r2(face_argument(thermal, boundary, _CONVECTIVE))


def _r2(arg: float) -> RestrictionReport:
    """R2's report from the face argument."""
    return tuple.__new__(RestrictionReport, ("R2", arg < 1.0, arg, 1.0, ""))


def check_r3(thermal: ThermalCoefficients, boundary: BoundaryData, xi: float) -> RestrictionReport:
    """R3: xi e**xi^2 < (q0/l) sqrt(c/(rho k)) at the face-determined xi.

    Exactly the condition for the recovered gamma to come out positive.
    ``xi`` is the face-determined front position, erf_inv of R2's face
    argument, which R1 and R2 make well defined; :func:`_evaluate` computes
    it once R2 holds.
    """
    return _r3(xexp_sq(xi), stefan_rhs(thermal, boundary))


def _r3(xe: float, s: float) -> RestrictionReport:
    """R3's report from its sides xe = xi e**xi^2 and the Stefan target s."""
    return tuple.__new__(RestrictionReport, ("R3", xe < s, xe, s, ""))


def check_r4(
    thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData, xi: float
) -> RestrictionReport:
    """R4: the front balance at the full zone strength exceeds its right side at xi.

    Exactly the condition for the recovered epsilon to stay above 0; the
    inequality is oriented so that, as everywhere, satisfied == lhs < rhs.
    ``xi`` is the face-determined front position of :func:`check_r3`, so
    R1 and R2 must hold.  ``mushy.gamma`` must be known; epsilon is not used.
    """
    return _r4(stefan_rhs(thermal, boundary), stefan_lhs(xi, zone_strength(thermal, mushy, boundary)))


def _r4(s: float, balance: float) -> RestrictionReport:
    """R4's report from its sides: the Stefan target s and the front balance
    at the full zone strength."""
    return tuple.__new__(RestrictionReport, ("R4", s < balance, s, balance, ""))


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
    return _r5(face_factor(boundary, _CONVECTIVE), thermal, mushy, boundary)


def _r5(beta: float, thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData
        ) -> RestrictionReport:
    """R5's report from its lhs, the attenuation beta."""
    rho_l_k, two_q0_sq = specific_heat_products(thermal, boundary)
    rhs = (two_q0_sq / rho_l_k - mushy.gamma * (1.0 - mushy.epsilon)) / boundary.d_inf
    return tuple.__new__(RestrictionReport, ("R5", beta < rhs, beta, rhs, ""))


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
) -> tuple[tuple[RestrictionReport, ...], float | None, float | None, float | None, float | None]:
    """:func:`check_all` on data that are already validated, plus the
    figures of the recovery.

    The restrictions of each case, run in this order up to the first
    failure:

    * k, rho: R1;
    * c: R1, R5;
    * l: R1, R2;
    * gamma: R1, R2, R3;
    * epsilon: R1, R2, R3, R4.

    Each figure is computed once, where the restrictions first need it, and
    returned after the reports, None where the case does not reach it:

    * xi, the face-determined front position erf_inv(R2's face argument),
      for l, gamma and epsilon once R2 holds;
    * beta = 1 - q0/(h0 d_inf), once R1 holds: R2's attenuation, R5's lhs
      and the k, rho and c recoveries' factor;
    * the gap (q0/l) sqrt(c/(rho k)) - xi e**xi^2 of R3's sides, for gamma
      and epsilon once R2 holds;
    * sqrt(k rho c), for l, gamma and epsilon once R2 holds.

    R2 and sqrt(k rho c) share the product k rho c, and R4 reads R3's
    Stefan target and e**xi^2.
    """
    r1 = check_r1(boundary)
    if not r1.satisfied:
        return (r1,), None, None, None, None
    beta = face_factor(boundary, _CONVECTIVE)  # R1 holds: h0 d_inf > q0, so no underflow
    if case is _K or case is _RHO:
        return (r1,), None, beta, None, None
    if case is _C:
        return (r1, _r5(beta, thermal, mushy, boundary)), None, beta, None, None
    k_rho_c = thermal.k * thermal.rho * thermal.c
    r2 = _r2(_face_argument(k_rho_c, boundary.d_inf, boundary.q0, beta))
    if not r2.satisfied:
        return (r1, r2), None, beta, None, None
    xi = specfun.erf_inv(r2.lhs)
    krc = math.sqrt(k_rho_c)
    if case is _L:
        return (r1, r2), xi, beta, None, krc
    s = stefan_rhs(thermal, boundary)
    e = math.exp(xi * xi)
    xe = xi * e  # xexp_sq(xi)
    r3 = _r3(xe, s)
    if not r3.satisfied or case is _GAMMA:
        return (r1, r2, r3), xi, beta, s - xe, krc
    r4 = _r4(s, _balance_lhs(xi, e, _strength(mushy.gamma, krc, boundary.q0)))
    return (r1, r2, r3, r4), xi, beta, s - xe, krc


def require_satisfied(reports: tuple[RestrictionReport, ...]) -> None:
    """Raise RestrictionError carrying ``reports`` if any of them failed."""
    for report in reports:  # a passing solve allocates nothing here
        if not report.satisfied:
            failed = ", ".join([r.restriction_id for r in reports if not r.satisfied])
            raise RestrictionError(f"restriction(s) {failed} violated", reports)


# --- the two root-finding equations ---------------------------------------


def _zone_weight(mushy: MushyCoefficients, boundary: BoundaryData, beta: float) -> float:
    """cf = gamma sqrt(pi) (1 - epsilon) / (2 d_inf beta), the weight of the
    zone term in both xi equations.  Valid data whose cf overflows raise
    NumericalError: no x makes the equation finite."""
    cf = mushy.gamma * SQRT_PI * (1.0 - mushy.epsilon) / (2.0 * boundary.d_inf * beta)
    if cf == math.inf:
        raise NumericalError("gamma sqrt(pi) (1 - epsilon) / (2 d_inf beta) overflows, outside the range of a double")
    return cf


def xi_equation_kr(
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    factor: float | None = None,
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
    cf = _zone_weight(mushy, boundary, beta)
    target = thermal.c * boundary.d_inf * beta / (thermal.l * SQRT_PI)

    # f and df are evaluated at finite x > 0 (the root finder's iterates lie
    # in (0, 40]), so they call math.erf directly.
    def f(x: float) -> float:
        d = math.erf(x) * math.exp(x * x)
        return (x + cf * d) * d

    def df(x: float) -> float:
        e = math.exp(x * x)
        erf_x = math.erf(x)
        derf = TWO_OVER_SQRT_PI / e
        inner = derf + 2.0 * x * erf_x
        return e * ((1.0 + cf * e * inner) * erf_x + (x + cf * erf_x * e) * inner)

    return MonotoneEquation(f=f, target=target, lower_limit=0.0, df=df, name="xi equation (k/rho case)",
                            start=_kr_start(cf, target))


def _kr_start(cf: float, target: float) -> float:
    """A start for (x + cf D) D = T, D = erf(x) e**x^2.

    The series of D = (2/sqrt(pi)) (x + 2x^3/3 + ...) has positive terms,
    so the root of the leading term, (2/sqrt(pi)) (1 + 2 cf/sqrt(pi)) x^2
    = T, lies above the root, within x^2 of it; below x = 1e-4 it is the
    start.  Above, the terms to x^4 give a closer bound.  D is also the
    positive root of the quadratic cf D^2 + x D = T: at that bound it is
    smaller than at the root, and sqrt(ln D) is below the root, as
    erf < 1; the quadratic at that lower bound, with erf, gives a second
    bound above.  One Newton step on ln((x + cf D) D) = ln T from the
    lesser bound lands within 1e-3 of the root (200 random_problem draws
    per face).  Data that admit no root (T or cf
    negative) get the solver's default start.
    """
    if not (target > 0.0 and cf >= 0.0):
        return 1.0
    a = TWO_OVER_SQRT_PI + _FOUR_OVER_PI * cf
    x = math.sqrt(target) / math.sqrt(a)
    if not x > 1e-4:
        return x
    if x < 26.0:
        # the terms to x^4: a x^2 + b x^4 = T, b = (2/3) (2a - 2/sqrt(pi))
        x *= math.sqrt(2.0 / (1.0 + math.sqrt(1.0 + 8.0 / 3.0 * (2.0 - TWO_OVER_SQRT_PI / a) * x * x)))
    q = 4.0 * cf * target
    d = 2.0 * target / (x + math.sqrt(x * x + q))
    if d > 1.0:
        lower = math.sqrt(_LN2 * math.log2(d))
        d = 2.0 * target / (lower + math.sqrt(lower * lower + q))
        upper = math.sqrt(_LN2 * math.log2(d / math.erf(lower)))
        x = upper if upper < x else x
    if not x < 26.0:
        return x
    d = math.erf(x) * math.exp(x * x)
    dd = TWO_OVER_SQRT_PI + 2.0 * x * d
    inner = x + cf * d
    return x - _LN2 * math.log2(inner * d / target) / ((1.0 + cf * dd) / inner + dd / d)


def xi_equation_c(
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    factor: float | None = None,
) -> MonotoneEquation:
    """Front-position equation for the unknown-specific-heat case.

    Eliminating c between the consistency equations gives

        (x / erf(x) + cf e**x^2) e**x^2 = q0^2 sqrt(pi) / (rho l k d_inf beta),

    with the same cf and ``factor`` as :func:`xi_equation_kr`.  x/erf(x)
    tends to sqrt(pi)/2 at 0+, so the left side starts at sqrt(pi)/2 + cf;
    the target exceeding that limit is restriction R5.
    """
    beta = face_factor(boundary, _CONVECTIVE) if factor is None else factor
    cf = _zone_weight(mushy, boundary, beta)
    target = boundary.q0 * boundary.q0 * SQRT_PI / (thermal.rho * thermal.l * thermal.k * boundary.d_inf * beta)
    lower = 0.5 * SQRT_PI + cf

    def f(x: float) -> float:  # math.erf: as in xi_equation_kr
        e = math.exp(x * x)
        return (x / math.erf(x) + cf * e) * e

    def df(x: float) -> float:
        e = math.exp(x * x)
        erf_x = math.erf(x)
        ratio = x / erf_x
        dratio = (erf_x - x * TWO_OVER_SQRT_PI / e) / (erf_x * erf_x)
        return e * (dratio + 2.0 * x * ratio + 4.0 * x * cf * e)

    return MonotoneEquation(f=f, target=target, lower_limit=lower, df=df, name="xi equation (c case)",
                            start=_c_start(cf, target, lower))


def _c_start(cf: float, target: float, lower: float) -> float:
    """A start for (r + cf e**x^2) e**x^2 = T, r = x / erf(x).

    Near 0 the left side is lower + (2 sqrt(pi)/3 + 2 cf) x^2 to within
    x^4; below x = 0.01 that root is the start.  Above, e**x^2 is the
    positive root of the quadratic cf E^2 + r E = T, and r varies slowly
    in x, so two sweeps x <- sqrt(ln E(r(x))) from that root, or from
    x = 1 (r = 1/erf(1)) when it lies above 1, land within a few percent
    of the root, and one Newton step on ln((r + cf E) E) = ln T within
    2e-4 (200 random_problem draws per face).  Data that admit no root
    (T or cf negative) get the solver's default start.
    """
    if not (target > 0.0 and cf >= 0.0):
        return 1.0
    y = (target - lower) / (2.0 / 3.0 * SQRT_PI + 2.0 * cf)
    if not y > 1e-4:
        return math.sqrt(y) if y > 0.0 else y
    q = 4.0 * cf * target
    if y < 1.0:
        x = math.sqrt(y)
        r = x / math.erf(x)
    else:
        r = _R_AT_ONE
    for _ in range(2):
        e = 2.0 * target / (r + math.sqrt(r * r + q))
        if not e > 1.0001:
            return math.sqrt(y)
        x = math.sqrt(_LN2 * math.log2(e))
        r = x / math.erf(x)
    if not x < 26.0:
        return x
    erf_x = x / r
    e = math.exp(x * x)
    inner = r + cf * e
    dr = (erf_x - x * TWO_OVER_SQRT_PI / e) / (erf_x * erf_x)
    return x - _LN2 * math.log2(inner * e / target) / ((dr + 2.0 * x * cf * e) / inner + 2.0 * x)


# --- the shared recovery ---------------------------------------------------

#: Cases whose front position follows from the face equation alone.
FACE_CASES = (_L, _GAMMA, _EPSILON)


def closed_form(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    xi: float,
    beta: float | None,
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
    data, each valid, leave the double range together.  So does an epsilon
    that rounds to 1, which no double in (0, 1) represents.
    """
    gap = krc = None
    if case in FACE_CASES:
        if case is not _L:
            gap = stefan_rhs(thermal, boundary) - xexp_sq(xi)
        krc = math.sqrt(thermal.k * thermal.rho * thermal.c)
    return _closed_form(case, thermal, mushy, boundary, xi, beta, gap, krc)


def _closed_form(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    xi: float,
    beta: float | None,
    gap: float | None,
    krc: float | None,
) -> float:
    """:func:`closed_form` from the figures the restriction pass computed:
    the gap of R3's sides (gamma, epsilon) and sqrt(k rho c) (l, gamma,
    epsilon)."""
    if case is _L:
        strength = _strength(mushy.gamma * (1.0 - mushy.epsilon), krc, boundary.q0)
        value = boundary.q0 * math.sqrt(thermal.c / (thermal.rho * thermal.k)) / _balance_lhs(
            xi, math.exp(xi * xi), strength
        )
    elif case is _GAMMA:
        value = (2.0 * boundary.q0 / ((1.0 - mushy.epsilon) * krc)) * gap * math.exp(-2.0 * xi * xi)
    elif case is _EPSILON:
        value = 1.0 - (2.0 * boundary.q0 / (mushy.gamma * krc)) * gap * math.exp(-2.0 * xi * xi)
        if value >= 1.0:  # 1 - epsilon is below half an ulp of 1
            raise NumericalError(f"the recovered epsilon = {value!r} is not representable in (0, 1); "
                                 "the data leave the range of a double")
    else:
        erf_xi = math.erf(xi)
        amp = boundary.q0 * erf_xi
        if amp >= _NORMAL_MIN:
            amp /= boundary.d_inf * beta
        else:  # below the normal range q0 erf(xi) has lost digits: divide first
            amp = boundary.q0 / (boundary.d_inf * beta) * erf_xi
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
    reports, xi, beta, gap, krc = _evaluate(case, thermal, mushy, boundary)
    require_satisfied(reports)

    try:
        if xi is None:  # k, rho or c: every restriction held, none of them R2
            equation = xi_equation_c if case is _C else xi_equation_kr
            xi = solve_increasing(equation(thermal, mushy, boundary, beta))

        value = _closed_form(case, thermal, mushy, boundary, xi, beta, gap, krc)
        solution = build_solution(thermal, mushy, boundary, xi, value)
    except ZeroDivisionError:
        raise NumericalError(f"case {case.value}: {UNDERFLOW}") from None
    except (ValidationError, DomainError) as err:  # build_solution's checks of xi and the record
        raise NumericalError(f"case {case.value}: {SOLUTION_OUT_OF_RANGE}: {err}") from None
    return tuple.__new__(CaseResult, (case, value, xi, solution, reports))
