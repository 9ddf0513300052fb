"""Forward evaluation of the similarity solution.

Given a complete coefficient set and a dimensionless solid-front position
xi, this module builds the explicit solution, evaluates the temperature
field with region tagging, the two fronts, all analytic derivatives the
verification module needs, and the residuals of the two consistency
equations that a solution of the full free-boundary problem must satisfy:

* the latent-heat balance at the fronts (from the Stefan condition), and
* the fixed-face condition (convective or prescribed-temperature).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from . import specfun
from .errors import DomainError
from .model import (
    BoundaryData,
    Face,
    MushyCoefficients,
    SimilaritySolution,
    ThermalCoefficients,
)

__all__ = [
    "Region",
    "ConsistencyResiduals",
    "xexp_sq",
    "dxexp_sq",
    "stefan_lhs",
    "stefan_lhs_derivative",
    "stefan_rhs",
    "mushy_strength",
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


def mushy_strength(thermal: ThermalCoefficients, mushy: MushyCoefficients, boundary: BoundaryData) -> float:
    """Dimensionless group gamma (1 - epsilon) sqrt(k rho c) / (2 q0).

    Weights the contribution of the liquid-front release of latent heat in
    the front balance; 0 would mean all latent heat released at s(t).
    """
    return mushy.gamma * (1.0 - mushy.epsilon) * math.sqrt(thermal.k * thermal.rho * thermal.c) / (2.0 * boundary.q0)


def stefan_lhs(xi: float, strength: float) -> float:
    """Left side (xi + strength e**xi^2) e**xi^2 of the front balance."""
    e = math.exp(xi * xi)
    return (xi + strength * e) * e


def stefan_lhs_derivative(xi: float, strength: float) -> float:
    e = math.exp(xi * xi)
    return e * (1.0 + 2.0 * xi * xi + 4.0 * xi * strength * e)


def stefan_rhs(thermal: ThermalCoefficients, boundary: BoundaryData) -> float:
    """Right side (q0 / l) sqrt(c / (rho k)) of the front balance."""
    return (boundary.q0 / thermal.l) * math.sqrt(thermal.c / (thermal.rho * thermal.k))


def face_factor(boundary: BoundaryData, face: Face) -> float:
    """Convective attenuation 1 - q0 / (h0 d_inf); exactly 1 for Dirichlet.

    Positive exactly when the convective data admit a cooling face; the
    Dirichlet problem is its h0 -> inf limit.
    """
    if face is Face.DIRICHLET:
        return 1.0
    return 1.0 - boundary.q0 / (boundary.h0 * boundary.d_inf)


def face_argument(thermal: ThermalCoefficients, boundary: BoundaryData, face: Face) -> float:
    """The value erf(xi) must take to meet the fixed-face condition:
    (d_inf / q0) sqrt(k rho c / pi) scaled by the convective attenuation."""
    base = (boundary.d_inf / boundary.q0) * math.sqrt(thermal.k * thermal.rho * thermal.c / math.pi)
    return base * face_factor(boundary, face)


def build_solution(
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    xi: float,
) -> SimilaritySolution:
    """Assemble the explicit solution for a complete coefficient set.

    The temperature amplitude is b_coef = q0 sqrt(pi alpha) / k with
    a_coef = -b_coef erf(xi), which meets the imposed flux and the fusion
    temperature at s(t) identically; the liquid front is placed at
    mu = xi + gamma sqrt(k rho c) e**xi^2 / (2 q0), which meets the
    mushy-width condition identically.  Whether xi itself is consistent
    with the remaining conditions is reported by
    :func:`consistency_residuals`, not enforced here.
    """
    if not (xi > 0.0 and math.isfinite(xi)):
        raise DomainError(f"xi must be positive and finite, got {xi!r}")
    alpha = thermal.alpha
    b_coef = boundary.q0 * math.sqrt(math.pi * alpha) / thermal.k
    a_coef = -b_coef * specfun.erf(xi)
    mu = xi + mushy.gamma * math.sqrt(thermal.k * thermal.rho * thermal.c) * math.exp(xi * xi) / (2.0 * boundary.q0)
    return SimilaritySolution(a_coef=a_coef, b_coef=b_coef, xi=xi, mu=mu, alpha=alpha)


def _similarity_variable(sol: SimilaritySolution, x: float, t: float) -> float:
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t!r}")
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"x must be nonnegative and finite, got {x!r}")
    return x / (2.0 * math.sqrt(sol.alpha * t))


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
    return sol.b_coef * math.exp(-eta * eta) / math.sqrt(math.pi * sol.alpha * t)


def front_s(sol: SimilaritySolution, t: float) -> float:
    """Solid front s(t) = 2 xi sqrt(alpha t); s(0) = 0."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be nonnegative and finite, got {t!r}")
    return 2.0 * sol.xi * math.sqrt(sol.alpha * t)


def front_r(sol: SimilaritySolution, t: float) -> float:
    """Liquid front r(t) = 2 mu sqrt(alpha t) > s(t) for t > 0."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be nonnegative and finite, got {t!r}")
    return 2.0 * sol.mu * math.sqrt(sol.alpha * t)


def front_s_velocity(sol: SimilaritySolution, t: float) -> float:
    """ds/dt = xi sqrt(alpha / t); singular at t = 0."""
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t!r}")
    return sol.xi * math.sqrt(sol.alpha / t)


def front_r_velocity(sol: SimilaritySolution, t: float) -> float:
    """dr/dt = mu sqrt(alpha / t); singular at t = 0."""
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t!r}")
    return sol.mu * math.sqrt(sol.alpha / t)


class ConsistencyResiduals(NamedTuple):
    """Residuals of the two consistency equations.

    res_stefan is the front balance residual scaled by the magnitude of its
    dominant side: the raw difference spans many orders of magnitude across
    unit systems, so only the relative value is meaningful against a fixed
    tolerance.  res_face is the raw difference of the face equation; both of
    its sides already lie in (0, 1) whenever the data are solvable, so no
    scaling is needed there.
    """

    res_stefan: float
    res_face: float


def consistency_residuals(
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    xi: float,
    face: Face,
) -> ConsistencyResiduals:
    """Evaluate both consistency equations at xi for a complete data set."""
    lhs = stefan_lhs(xi, mushy_strength(thermal, mushy, boundary))
    rhs = stefan_rhs(thermal, boundary)
    res_stefan = (lhs - rhs) / max(abs(lhs), abs(rhs))
    res_face = specfun.erf(xi) - face_argument(thermal, boundary, face)
    return ConsistencyResiduals(res_stefan=res_stefan, res_face=res_face)
