"""Forward evaluation of the similarity solution.

Given a complete coefficient set and a dimensionless solid-front position
xi, this module builds the explicit solution, evaluates the temperature
field with region tagging, the two fronts, all analytic derivatives the
verification module needs, and the residuals of the two consistency
equations that a solution of the full free-boundary problem must satisfy:

* the latent-heat balance at the fronts (from the Stefan condition), and
* the fixed-face condition (convective or prescribed-temperature).
"""

import math
from enum import Enum

from . import specfun
from .errors import DomainError, NumericalError
from .model import (
    _DIRICHLET,
    _INF,
    _NORMAL_MIN,
    BoundaryData,
    Face,
    MushyCoefficients,
    OutputRecord,
    SimilaritySolution,
    ThermalCoefficients,
    _check_front,
    _check_solution,
    _split,
    in_range,
    out_of_range,
)
from .rootfind import MonotoneEquation

__all__ = [
    "Region",
    "ConsistencyResiduals",
    "xexp_sq",
    "dxexp_sq",
    "xexp_sq_start",
    "stefan_lhs",
    "stefan_lhs_derivative",
    "stefan_rhs",
    "mushy_strength",
    "zone_strength",
    "balance_equation",
    "front_balance",
    "face_factor",
    "face_argument",
    "build_solution",
    "temperature",
    "temperature_gradient",
    "front_s",
    "front_r",
    "front_s_velocity",
    "front_r_velocity",
    "consistency_residuals",
]

SQRT_PI = math.sqrt(math.pi)
#: ln 2.  The starts take ln v as ln 2 log2(v): math.log parses an optional
#: base and costs three times what math.log2 does.
_LN2 = math.log(2.0)


class Region(Enum):
    """Phase membership of a point (x, t): solid, mushy or liquid."""

    SOLID = "solid"
    MUSHY = "mushy"
    LIQUID = "liquid"


def xexp_sq(x: float) -> float:
    """The kernel x * exp(x**2), strictly increasing from 0 on [0, inf)."""
    return x * math.exp(x * x)


def dxexp_sq(x: float) -> float:
    """Derivative (1 + 2 x**2) exp(x**2) of :func:`xexp_sq`."""
    return (1.0 + 2.0 * x * x) * math.exp(x * x)


def xexp_sq_start(s: float) -> float:
    """A root finder's start for x e**x^2 = s, within 6e-5 of the root.

    The root is sqrt(W(2 s^2) / 2), W the Lambert W function.  Winitzki's
    closed form W(z) ~ L (1 - ln(1 + L) / (2 + L)), L = ln(1 + z), is
    within 2%; one Newton step on w + ln w = ln z takes it to below the
    root by under 6e-5, and the factor 1 + 1e-5 lifts most starts just
    above it (lifting all of them costs more Newton steps than the
    expansion steps it saves).  Where 2 s^2 would underflow the root is
    s (1 - s^2) and s is taken; where it would overflow, L is ln z.  A
    start for s that is 0, not finite or not a number comes out 0 or NaN,
    which the solver reads as its default.
    """
    if s < 1e-150:
        return s
    ln_z = _LN2 * (1.0 + 2.0 * math.log2(s))
    big_l = math.log1p(2.0 * s * s) if s < 1e150 else ln_z
    w = big_l * (1.0 - math.log1p(big_l) / (2.0 + big_l))
    w -= (w + _LN2 * math.log2(w) - ln_z) * w / (1.0 + w)
    return 1.00001 * math.sqrt(0.5 * w)


def mushy_strength(thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData) -> float:
    """Dimensionless group gamma (1 - epsilon) sqrt(k rho c) / (2 q0).

    Weights the contribution of the liquid-front release of latent heat in
    the front balance; 0 would mean all latent heat released at s(t).
    """
    return _strength(mushy.gamma * (1.0 - mushy.epsilon), _root_krc(thermal), boundary.q0)


def zone_strength(thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData) -> float:
    """Full zone strength g = gamma sqrt(k rho c) / (2 q0), the mushy
    strength at epsilon = 0, at which R4 and R8 evaluate the front balance."""
    return _strength(mushy.gamma, _root_krc(thermal), boundary.q0)


def _root_krc(thermal: ThermalCoefficients) -> float:
    """sqrt(k rho c), split where k rho or k rho c is not a positive normal
    double; a root that is not one raises NumericalError."""
    k_rho = thermal.k * thermal.rho
    k_rho_c = k_rho * thermal.c
    if k_rho >= _NORMAL_MIN and _NORMAL_MIN <= k_rho_c < _INF:  # an inf k rho makes k rho c inf
        return math.sqrt(k_rho_c)
    return in_range("sqrt(k rho c)", _split(lambda k, rho, c: math.sqrt(k * rho * c), (1, 1, 1),
                                            thermal.k, thermal.rho, thermal.c))


def _strength(weight: float, krc: float, q0: float) -> float:
    """weight sqrt(k rho c) / (2 q0) from krc = sqrt(k rho c): the zone
    strength at weight gamma, the mushy strength at gamma (1 - epsilon)."""
    zone = weight * krc
    strength = zone / (2.0 * q0)
    if zone >= _NORMAL_MIN and _NORMAL_MIN <= strength < _INF:  # an inf zone makes the strength inf or NaN
        return strength
    return _split(lambda weight, krc, q0: weight * krc / (2.0 * q0), (2, 2, -2), weight, krc, q0)


def stefan_lhs(xi: float, strength: float) -> float:
    """Left side (xi + strength e**xi^2) e**xi^2 of the front balance: its
    one spelling."""
    e = math.exp(xi * xi)
    return (xi + strength * e) * e


def stefan_lhs_derivative(xi: float, strength: float) -> float:
    e = math.exp(xi * xi)
    return e * (1.0 + 2.0 * xi * xi + 4.0 * xi * strength * e)


def stefan_rhs(thermal: ThermalCoefficients, boundary: BoundaryData) -> float:
    """Right side S = (q0 / l) sqrt(c / (rho k)) of the front balance, the
    Stefan target, split where it or one of rho k, c / (rho k) and q0 / l
    is not a positive normal double.  An S that is not one raises
    NumericalError (the range rule of :func:`~mushy.model.in_range`).
    """
    rho_k = thermal.rho * thermal.k
    if _NORMAL_MIN <= rho_k < _INF:
        ratio, q0_l = thermal.c / rho_k, boundary.q0 / thermal.l
        rhs = q0_l * math.sqrt(ratio)
        if ratio >= _NORMAL_MIN and q0_l >= _NORMAL_MIN and _NORMAL_MIN <= rhs < _INF:  # an inf factor makes S inf
            return rhs
    return in_range("the Stefan target S", _split(lambda q0, l, c, rho, k: (q0 / l) * math.sqrt(c / (rho * k)),
                                                  (2, -2, 1, -1, -1),
                                                  boundary.q0, thermal.l, thermal.c, thermal.rho, thermal.k))


def balance_equation(strength: float, target: float, name: str, x0: float) -> MonotoneEquation:
    """The front balance stefan_lhs(x, strength) = target as an equation
    for x; its left side starts at the strength at 0+.  x0 is
    xexp_sq_start(target), the start of the same balance at zero strength,
    from which its own start is found."""
    return MonotoneEquation(f=lambda x: stefan_lhs(x, strength), target=target, lower_limit=strength,
                            df=lambda x: stefan_lhs_derivative(x, strength), name=name,
                            start=_balance_start(strength, target, x0))


def _balance_start(g: float, s: float, x: float) -> float:
    """A start for (x + g e**x^2) e**x^2 = s, g >= 0, from x =
    xexp_sq_start(s).

    Dropping either term of the left side leaves an equation whose root
    lies above this one: x e**x^2 = s (:func:`xexp_sq_start`) and
    g e**2x^2 = s, root sqrt(ln(s/g) / 2); so does keeping only the terms
    of degree <= 2 of its series, g + x + 2 g x^2 = s.  One Newton step
    on ln(x + g e**x^2) + x^2 = ln s from the least of the three lands
    within 2% of the root (200 random_problem draws).
    """
    if s > g > 0.0:
        d = s - g
        small = 2.0 * d / (1.0 + math.sqrt(1.0 + 8.0 * g * d))
        large = math.sqrt(0.5 * _LN2 * math.log2(s / g))
        x = small if small < x else x
        x = large if large < x else x
        if 0.0 < x < 26.0:
            e = math.exp(x * x)
            h = g * e
            x -= (_LN2 * math.log2((x + h) / s) + x * x) / ((1.0 + 2.0 * x * h) / (x + h) + 2.0 * x)
    return x


def front_balance(thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData) -> MonotoneEquation:
    """The direct problem's equation for xi: the front balance at the mushy
    strength.  The face condition is then a derived quantity, whose
    residual shows whether the data are consistent."""
    strength, target = mushy_strength(thermal, mushy, boundary), stefan_rhs(thermal, boundary)
    return balance_equation(strength, target, "front balance", xexp_sq_start(target))


def face_factor(boundary: BoundaryData, face: Face) -> float:
    """Convective attenuation beta = 1 - q0 / (h0 d_inf); exactly 1 for
    Dirichlet, the h0 -> inf limit.

    Positive exactly when the convective data admit a cooling face (R1).
    """
    if face is _DIRICHLET:
        return 1.0
    return _attenuation(boundary.h0 * boundary.d_inf, boundary)


def _attenuation(h0_d_inf: float, boundary: BoundaryData) -> float:
    """:func:`face_factor` from R1's rhs h0 d_inf.  Where h0 d_inf is not a
    positive normal double, q0 / (h0 d_inf) is split, and one past the
    largest double raises NumericalError."""
    if _NORMAL_MIN <= h0_d_inf < _INF:
        return 1.0 - boundary.q0 / h0_d_inf
    ratio = _split(lambda q0, h0, d_inf: q0 / (h0 * d_inf), (2, -2, -2), boundary.q0, boundary.h0, boundary.d_inf)
    if ratio == _INF:
        raise out_of_range("q0 / (h0 d_inf)", ratio)
    return 1.0 - ratio


def face_argument(thermal: ThermalCoefficients, boundary: BoundaryData, face: Face) -> float:
    """The value A beta that erf(xi) must take to meet the fixed-face
    condition: the face group A = (d_inf / q0) sqrt(k rho c / pi) scaled by
    the convective attenuation beta.

    A q0 / (h0 d_inf) past the largest double (:func:`face_factor`), then
    an A that is not a positive normal double, raises NumericalError.
    """
    beta = face_factor(boundary, face)
    return _face_argument(thermal, boundary, beta)


def _face_argument(thermal: ThermalCoefficients, boundary: BoundaryData, beta: float) -> float:
    """:func:`face_argument` at the attenuation beta."""
    arg = _face_group(thermal, boundary)
    if _NORMAL_MIN <= arg < _INF:
        return arg * beta
    raise out_of_range("the face group A", arg)


def _face_group(thermal: ThermalCoefficients, boundary: BoundaryData) -> float:
    """The face group A, split where one of k rho, k rho c / pi, d_inf / q0
    and A is not a positive normal double; past the largest double it is
    inf, below the normal range subnormal or 0."""
    k_rho = thermal.k * thermal.rho
    ratio, k_rho_c_pi = boundary.d_inf / boundary.q0, k_rho * thermal.c / math.pi
    arg = ratio * math.sqrt(k_rho_c_pi)
    # an inf among k rho, k rho c / pi and d_inf / q0 makes A inf
    if k_rho >= _NORMAL_MIN and k_rho_c_pi >= _NORMAL_MIN and ratio >= _NORMAL_MIN and _NORMAL_MIN <= arg < _INF:
        return arg
    return _split(lambda d_inf, q0, k, rho, c: (d_inf / q0) * math.sqrt(k * rho * c / math.pi), (2, -2, 1, 1, 1),
                  boundary.d_inf, boundary.q0, thermal.k, thermal.rho, thermal.c)


def build_solution(
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    xi: float,
    value: float | None = None,
) -> SimilaritySolution:
    """Assemble the explicit solution for a complete coefficient set.

    The temperature amplitude is b_coef = q0 sqrt(pi alpha) / k with
    a_coef = -b_coef erf(xi), which meets the imposed flux and the fusion
    temperature at s(t) identically; the liquid front is placed at
    mu = xi + gamma sqrt(k rho c) e**xi^2 / (2 q0), which meets the
    mushy-width condition identically.  Whether xi itself is consistent
    with the remaining conditions is reported by
    :func:`consistency_residuals`, not enforced here.

    ``value`` completes the records of a case solve: it fills the one of
    k, rho, c and gamma that is None, the case's unknown, so a solver need
    not copy a record to hand its recovered value in.  The solution reads
    no other coefficient, so for the l and epsilon cases it is unused.
    alpha, b_coef and the zone term of mu are split where a product or
    quotient they form is not a positive normal double.
    """
    _check_front(xi, DomainError)  # before any figure is computed from xi
    k, rho, c, gamma, q0 = thermal.k, thermal.rho, thermal.c, mushy.gamma, boundary.q0
    if value is not None:
        if k is None:
            k = value
        elif rho is None:
            rho = value
        elif c is None:
            c = value
        elif gamma is None:
            gamma = value
    rho_c = rho * c
    alpha = pi_alpha = 0.0
    if rho_c >= _NORMAL_MIN:  # an inf rho c makes alpha 0, which the test below meets
        alpha = k / rho_c  # the expression of ThermalCoefficients.alpha
        pi_alpha = math.pi * alpha
    amplitude = q0 * math.sqrt(pi_alpha)
    b_coef = amplitude / k
    if not (alpha >= _NORMAL_MIN and pi_alpha < _INF and _NORMAL_MIN <= amplitude < _INF):
        alpha = _split(lambda k, rho, c: k / (rho * c), (2, -2, -2), k, rho, c)
        b_coef = _split(lambda q0, k, rho, c: q0 * math.sqrt(math.pi * (k / (rho * c))) / k, (2, -1, -1, -1),
                        q0, k, rho, c)
    a_coef = -b_coef * math.erf(xi)  # xi is checked above
    try:
        e_xi2 = math.exp(xi * xi)
    except OverflowError:  # xi past about 26.64: mu is inf, or NaN if its factor underflows
        e_xi2 = _INF
    k_rho = k * rho
    k_rho_c = k_rho * c
    strength = gamma * math.sqrt(k_rho_c)
    zone = strength * e_xi2
    term = zone / (2.0 * q0)
    # an inf k rho or k rho c makes the strength inf
    if not (k_rho >= _NORMAL_MIN and k_rho_c >= _NORMAL_MIN and _NORMAL_MIN <= strength < _INF and zone < _INF
            and term >= _NORMAL_MIN):
        term = _split(lambda gamma, k, rho, c, e, q0: gamma * math.sqrt(k * rho * c) * e / (2.0 * q0),
                      (2, 1, 1, 1, 2, -2), gamma, k, rho, c, e_xi2, q0)
    mu = xi + term
    _check_solution(b_coef, xi, mu, alpha)
    if mu == _INF:  # after the record's checks, whose ValidationErrors (a NaN mu's too) come first
        raise NumericalError("the liquid front mu leaves the range of a double")
    return tuple.__new__(SimilaritySolution, (a_coef, b_coef, xi, mu, alpha))


def _similarity_variable(sol: SimilaritySolution, x: float, t: float) -> float:
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t!r}")
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"x must be nonnegative and finite, got {x!r}")
    return x / (2.0 * _sqrt_product(sol.alpha, t))


def _sqrt_product(alpha: float, t: float) -> float:
    """sqrt(alpha t) for positive alpha and t >= 0.  Where the product
    leaves the normal double range (an overflow at very large t, an
    underflow at very small), the roots are taken apart; elsewhere the
    product's root, which is the correctly rounded one."""
    product = alpha * t
    if _NORMAL_MIN <= product < math.inf:
        return math.sqrt(product)
    return math.sqrt(alpha) * math.sqrt(t)


def temperature(sol: SimilaritySolution, x: float, t: float) -> tuple[float, Region]:
    """Temperature and region tag at (x, t), t > 0.

    Inside the solid the similarity profile applies; the mushy zone and the
    liquid sit at the fusion temperature 0, so instead of rejecting
    x > s(t) the value 0.0 is returned there with the matching tag.
    The solid tag includes the front itself, where T = 0 as well.
    """
    eta = _similarity_variable(sol, x, t)
    if eta <= sol.xi:
        return sol.a_coef + sol.b_coef * specfun.erf(eta), Region.SOLID
    if eta <= sol.mu:
        return 0.0, Region.MUSHY
    return 0.0, Region.LIQUID


def temperature_gradient(sol: SimilaritySolution, x: float, t: float) -> float:
    """Analytic dT/dx; solid-side value on 0 <= x <= s(t), 0 beyond."""
    eta = _similarity_variable(sol, x, t)
    if eta > sol.xi:
        return 0.0
    return sol.b_coef * math.exp(-eta * eta) / (SQRT_PI * _sqrt_product(sol.alpha, t))


def front_s(sol: SimilaritySolution, t: float) -> float:
    """Solid front s(t) = 2 xi sqrt(alpha t); s(0) = 0."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be nonnegative and finite, got {t!r}")
    return 2.0 * sol.xi * _sqrt_product(sol.alpha, t)


def front_r(sol: SimilaritySolution, t: float) -> float:
    """Liquid front r(t) = 2 mu sqrt(alpha t) > s(t) for t > 0."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be nonnegative and finite, got {t!r}")
    return 2.0 * sol.mu * _sqrt_product(sol.alpha, t)


def front_s_velocity(sol: SimilaritySolution, t: float) -> float:
    """ds/dt = s(t) / (2 t) = xi sqrt(alpha / t); singular at t = 0."""
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t!r}")
    return front_s(sol, t) / (2.0 * t)


def front_r_velocity(sol: SimilaritySolution, t: float) -> float:
    """dr/dt = r(t) / (2 t) = mu sqrt(alpha / t); singular at t = 0."""
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t!r}")
    return front_r(sol, t) / (2.0 * t)


class ConsistencyResiduals(OutputRecord):
    """Residuals of the two consistency equations, each relative to the
    size of its sides.

    res_stefan is the front balance residual scaled by the magnitude of its
    larger side; res_face is (erf(xi) - A beta) / (A beta), the face
    equation's residual relative to its data side, so that a wrong xi shows
    at any size of xi.  Where A beta (or k rho c) lies below the normal
    range it is no scale, and res_face is the absolute erf(xi) - A beta.
    """

    __slots__ = ()

    def __new__(cls, res_stefan, res_face):
        return tuple.__new__(cls, (res_stefan, res_face))


def consistency_residuals(
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    xi: float,
    face: Face,
) -> ConsistencyResiduals:
    """Evaluate both consistency equations at xi for a complete data set,
    where the Stefan target S and the root sqrt(k rho c) must be positive
    normal doubles."""
    # A beta as face_argument forms it, negative where the data fail R1
    arg = _face_group(thermal, boundary) * face_factor(boundary, face)
    if abs(arg) == _INF:
        raise out_of_range("the face argument A beta", arg)
    lhs = stefan_lhs(xi, mushy_strength(thermal, mushy, boundary))
    rhs = stefan_rhs(thermal, boundary)
    res_face = specfun.erf(xi) - arg
    if abs(arg) >= _NORMAL_MIN:
        res_face /= arg
    return ConsistencyResiduals(res_stefan=(lhs - rhs) / max(abs(lhs), abs(rhs)), res_face=res_face)
