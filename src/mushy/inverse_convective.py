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
two front-position equations and the tail ``_recover`` (one closed form per
unknown, then the solution record), is written for a general attenuation
beta = 1 - q0/(h0 d_inf); the Dirichlet face is its beta = 1 instance
(:mod:`mushy.inverse_dirichlet`), which writes only its restriction pass.
"""

import math

from . import specfun
from .direct import (
    _INF,
    _LN2,
    SQRT_PI,
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
    _NORMAL_MIN,
    _RHO,
    BoundaryData,
    CaseResult,
    MushyCoefficients,
    ProblemInstance,
    RestrictionReport,
    ThermalCoefficients,
    UnknownCase,
    _not_a_case,
    _refused_solution,
    _report,
    normalised,
    out_of_range,
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
    "solve_case",
    "xi_equation_kr",
    "xi_equation_c",
]


# --- restriction checks ----------------------------------------------------


def check_r1(boundary: BoundaryData) -> RestrictionReport:
    """R1: q0 < h0 d_inf, i.e. the face actually cools below the datum."""
    return _report("R1", boundary.q0, boundary.h0 * boundary.d_inf)


def check_r2(thermal: ThermalCoefficients, boundary: BoundaryData) -> RestrictionReport:
    """R2: the face argument (d_inf/q0) sqrt(k rho c/pi) (1 - q0/(h0 d_inf)) < 1."""
    return _report("R2", face_argument(thermal, boundary, _CONVECTIVE), 1.0)


def check_r3(thermal: ThermalCoefficients, boundary: BoundaryData, xi: float) -> RestrictionReport:
    """R3: xi e**xi^2 < (q0/l) sqrt(c/(rho k)) at the face-determined xi.

    Exactly the condition for the recovered gamma to come out positive.
    ``xi`` is the face-determined front position, erf_inv of R2's face
    argument, which R1 and R2 make well defined; :func:`_evaluate` computes
    it once R2 holds.
    """
    return _report("R3", xexp_sq(xi), stefan_rhs(thermal, boundary))


def check_r4(
    thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData, xi: float
) -> RestrictionReport:
    """R4: the front balance at the full zone strength exceeds its right side at xi.

    Exactly the condition for the recovered epsilon to stay above 0; the
    inequality is oriented so that, as everywhere, satisfied == lhs < rhs.
    ``xi`` is the face-determined front position of :func:`check_r3`, so
    R1 and R2 must hold.  ``mushy.gamma`` must be known; epsilon is not used.
    """
    return _report("R4", stefan_rhs(thermal, boundary), stefan_lhs(xi, zone_strength(thermal, mushy, boundary)))


def check_r5(
    thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData
) -> RestrictionReport:
    """R5: 1 - q0/(h0 d_inf) < (2 q0^2/(rho l k) - gamma (1 - epsilon)) / d_inf.

    Root-existence condition for the unknown-specific-heat equation: it is
    algebraically equivalent to the equation's target exceeding its value
    at xi -> 0+.
    """
    return _r5(face_factor(boundary, _CONVECTIVE), thermal, mushy, boundary)


def _r5(beta: float, thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData
        ) -> RestrictionReport:
    """R5's report from its lhs, the attenuation beta."""
    rho_l_k, two_q0_sq = specific_heat_products(thermal, boundary)
    rhs = (two_q0_sq / rho_l_k - mushy.gamma * (1.0 - mushy.epsilon)) / boundary.d_inf
    return _report("R5", beta, rhs)


def check_all(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> tuple[RestrictionReport, ...]:
    """Evaluate the restrictions of one case in dependency order.

    Stops at the first failure, which makes the later ones undefined (R3
    and R4 need the face-determined xi, hence R1 and R2).  Data outside the
    band are checked in their units (:func:`~mushy.model.normalised`).
    """
    if type(case) is not UnknownCase:
        raise _not_a_case(case)
    instance = validate(thermal, mushy, boundary, case=case, face=_CONVECTIVE)
    if type(instance) is ProblemInstance:  # every datum in the band
        return _evaluate(case, *instance[2:])[0]
    return normalised(case, lambda *data: _evaluate(*data)[0], *instance[2:])


def _evaluate(
    case: UnknownCase,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
) -> tuple[tuple[RestrictionReport, ...], float | None, float | None, float | None, float | None]:
    """:func:`check_all` on data that are already validated, plus the
    figures of the recovery.  The restrictions run in order up to the first
    failure: R1 for k and rho, R1 and R5 for c, R1 and R2 for l, then R3
    for gamma, and R3 and R4 for epsilon.  Each figure of the recovery is
    computed once, where the restrictions first need it, and returned after
    the reports, None where the case does not reach it: xi = erf_inv(R2's
    face argument), beta = 1 - q0/(h0 d_inf), the gap (q0/l) sqrt(c/(rho k))
    - xi e**xi^2 of R3's sides, and sqrt(k rho c), which shares k rho c
    with R2.
    """
    r1 = _report("R1", boundary.q0, boundary.h0 * boundary.d_inf)  # check_r1, inline on the solve path
    if not r1.satisfied:
        return (r1,), None, None, None, None
    beta = 1.0 - r1.lhs / r1.rhs  # face_factor from R1's sides q0 and h0 d_inf > q0
    if case is _K or case is _RHO:
        return (r1,), None, beta, None, None
    if case is _C:
        return (r1, _r5(beta, thermal, mushy, boundary)), None, beta, None, None
    k_rho_c = thermal.k * thermal.rho * thermal.c
    r2 = _report("R2", _face_argument(k_rho_c, boundary.d_inf, boundary.q0, beta), 1.0)
    if not r2.satisfied:
        return (r1, r2), None, beta, None, None
    xi = specfun.erf_inv(r2.lhs)
    if not _NORMAL_MIN <= xi:
        raise out_of_range("xi", xi)
    krc = math.sqrt(k_rho_c)
    if case is _L:
        return (r1, r2), xi, beta, None, krc
    s = stefan_rhs(thermal, boundary)
    xe = xi * math.exp(xi * xi)  # xexp_sq(xi), inline on the solve path
    r3 = _report("R3", xe, s)
    if not r3.satisfied or case is _GAMMA:
        return (r1, r2, r3), xi, beta, s - xe, krc
    r4 = _report("R4", s, stefan_lhs(xi, _strength(mushy.gamma, krc, boundary.q0)))
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
    zone term in both xi equations.  A 2 d_inf beta that is not a positive
    normal double, or a cf that overflows, raises NumericalError: no x
    makes the equation finite."""
    two_d_inf_beta = 2.0 * boundary.d_inf * beta
    if not _NORMAL_MIN <= two_d_inf_beta < _INF:
        raise out_of_range("2 d_inf beta", two_d_inf_beta)
    cf = mushy.gamma * SQRT_PI * (1.0 - mushy.epsilon) / two_d_inf_beta
    if cf == _INF:
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
    the Dirichlet face, the h0 -> infinity limit.  A 2 d_inf beta, then a
    c d_inf beta, that is not a positive normal double raises
    NumericalError.
    """
    beta = face_factor(boundary, _CONVECTIVE) if factor is None else factor
    cf = _zone_weight(mushy, boundary, beta)
    c_d_inf_beta = thermal.c * boundary.d_inf * beta
    if not _NORMAL_MIN <= c_d_inf_beta < _INF:
        raise out_of_range("c d_inf beta", c_d_inf_beta)
    target = c_d_inf_beta / (thermal.l * SQRT_PI)

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
    if not x > 1e-4:  # past the largest double a is inf, but not its root sqrt(4/pi) sqrt(cf)
        return x if a < _INF else math.sqrt(target) / (math.sqrt(_FOUR_OVER_PI) * math.sqrt(cf))
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
    the target exceeding that limit is restriction R5.  A 2 d_inf beta,
    then a rho l k d_inf beta or a rho l k, that is not a positive normal
    double raises NumericalError.
    """
    beta = face_factor(boundary, _CONVECTIVE) if factor is None else factor
    cf = _zone_weight(mushy, boundary, beta)
    rho_l_k = thermal.rho * thermal.l * thermal.k
    rho_l_k_d_inf_beta = rho_l_k * boundary.d_inf * beta
    if not _NORMAL_MIN <= rho_l_k_d_inf_beta < _INF:
        raise out_of_range("rho l k d_inf beta", rho_l_k_d_inf_beta)
    if not rho_l_k >= _NORMAL_MIN:  # below the range it has lost digits that the product then carries
        raise out_of_range("rho l k", rho_l_k)
    target = boundary.q0 * boundary.q0 * SQRT_PI / rho_l_k_d_inf_beta
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
    den = 2.0 / 3.0 * SQRT_PI + 2.0 * cf
    # past the largest double den is inf, but not den / 2
    y = (target - lower) / den if den < _INF else 0.5 * (target - lower) / (SQRT_PI / 3.0 + cf)
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


def _recover(case, thermal, mushy, boundary, reports, xi, beta, gap, krc) -> CaseResult:
    """The CaseResult of ``case`` at the front position xi, with its
    restriction ``reports``: the recovery tail of both faces.  The closed
    forms read the figures of a solve's restriction pass: the face
    attenuation beta (1 for the Dirichlet face), which the k, rho and c
    forms read through amp = q0 erf(xi) / (d_inf beta), the square root of
    k rho c / pi; ``krc`` = sqrt(k rho c) for l, gamma and epsilon; and for
    gamma and epsilon the cancellation-prone ``gap``, the difference
    (q0/l) sqrt(c/(rho k)) - xi e**xi^2 of R3's (R7's) sides.  A figure a
    form does not read is None.  A product, group or value that is not a
    positive normal double, an epsilon that rounds to 1 and a figure that
    the solution record refuses raise NumericalError.
    """
    if case is _L:
        strength = _strength(mushy.gamma * (1.0 - mushy.epsilon), krc, boundary.q0)
        rho_k = thermal.rho * thermal.k
        if not rho_k >= _NORMAL_MIN:  # an inf makes the value 0, which the last test meets
            raise out_of_range("rho k", rho_k)
        value = boundary.q0 * math.sqrt(thermal.c / rho_k) / stefan_lhs(xi, strength)
    elif case is _GAMMA:
        value = (2.0 * boundary.q0 / ((1.0 - mushy.epsilon) * krc)) * gap * math.exp(-2.0 * xi * xi)
    elif case is _EPSILON:
        zone = mushy.gamma * krc
        if not _NORMAL_MIN <= zone < _INF:
            raise out_of_range("gamma sqrt(k rho c)", zone)
        value = 1.0 - (2.0 * boundary.q0 / zone) * gap * math.exp(-2.0 * xi * xi)
        if value >= 1.0:  # 1 - epsilon is below half an ulp of 1
            raise NumericalError(f"the recovered epsilon = {value!r} is not representable in (0, 1); "
                                 "the data leave the range of a double")
    else:
        amp = boundary.q0 * math.erf(xi)  # at most q0
        if not amp >= _NORMAL_MIN:
            raise out_of_range("q0 erf(xi)", amp)
        amp /= boundary.d_inf * beta
        if case is _K:
            product = thermal.rho * thermal.c
        elif case is _RHO:
            product = thermal.k * thermal.c
        else:
            product = thermal.rho * thermal.k
        if not _NORMAL_MIN <= product < _INF:
            raise out_of_range({_K: "rho c", _RHO: "k c"}.get(case, "rho k"), product)
        value = math.pi / product * amp * amp
    if not _NORMAL_MIN <= value < _INF:
        raise out_of_range(f"the recovered {case.value}", value)
    try:
        solution = build_solution(thermal, mushy, boundary, xi, value)
    except (ValidationError, DomainError) as err:  # build_solution's checks of xi and the record
        raise _refused_solution(case.value, err) from None
    return tuple.__new__(CaseResult, (case, value, xi, solution, reports))


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
    raises RestrictionError with exactly those reports.  Data outside the
    band are solved in their units (:func:`~mushy.model.normalised`); a
    product, group or value that is not a positive normal double there
    raises NumericalError.
    """
    if type(case) is not UnknownCase:
        raise _not_a_case(case)
    instance = validate(thermal, mushy, boundary, case=case, face=_CONVECTIVE)
    _, _, thermal, mushy, boundary = instance
    if type(instance) is ProblemInstance:  # every datum in the band
        return _solve(case, thermal, mushy, boundary)
    return normalised(case, _solve, thermal, mushy, boundary)


def _solve(case, thermal, mushy, boundary) -> CaseResult:
    """:func:`solve_case` on validated data."""
    reports, xi, beta, gap, krc = _evaluate(case, thermal, mushy, boundary)
    if not reports[-1].satisfied:  # the pass stops at its first failure
        require_satisfied(reports)
    if xi is None:  # k, rho or c: every restriction held, none of them R2
        equation = xi_equation_c if case is _C else xi_equation_kr
        xi = solve_increasing(equation(thermal, mushy, boundary, beta))  # a normal double, or it raises
    return _recover(case, thermal, mushy, boundary, reports, xi, beta, gap, krc)
