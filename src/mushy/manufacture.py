"""Manufactured consistent data sets for testing and experiments.

Choosing the dimensionless solid-front position xi together with all
coefficients except the latent heat and the face datum leaves the two
consistency equations exactly solvable in closed form for l and d_inf.
Forward-substituting this way produces data for which every inverse solver
must recover its hidden coefficient exactly, which is what the round-trip
tests and the experiment scripts live on.
"""

import math
import random

from . import specfun
from .direct import _strength, stefan_lhs
from .errors import ValidationError
from .model import (
    BoundaryData,
    Face,
    MushyCoefficients,
    OutputRecord,
    ThermalCoefficients,
    UnknownCase,
    validate,
    with_coefficient,
)

__all__ = ["ManufacturedProblem", "manufacture", "random_problem"]


class ManufacturedProblem(OutputRecord):
    """A complete, consistent data set together with the xi that built it."""

    __slots__ = ()

    def __new__(cls, face, thermal, mushy, boundary, xi):
        return tuple.__new__(cls, (face, thermal, mushy, boundary, xi))

    def hide(self, case: UnknownCase) -> tuple[ThermalCoefficients, MushyCoefficients, float]:
        """Blank out one coefficient; returns the partial data and the truth."""
        thermal, mushy = with_coefficient(self.thermal, self.mushy, case, None)
        return thermal, mushy, getattr(self.thermal if mushy is self.mushy else self.mushy, case.value)


def manufacture(
    xi: float,
    k: float,
    rho: float,
    c: float,
    epsilon: float,
    gamma: float,
    q0: float,
    h0: float | None = None,
    face: Face = Face.CONVECTIVE,
) -> ManufacturedProblem:
    """Build consistent data around a chosen xi > 0.

    The face datum follows from the face equation,
    ``d_inf = q0 erf(xi) sqrt(pi / (k rho c)) + q0 / h0`` (drop the last
    term for the Dirichlet problem), and the latent heat from the front
    balance, ``l = q0 sqrt(c / (rho k)) e**(-xi^2) / (xi + strength e**xi^2)``.
    Every solvability restriction of every case holds automatically for the
    returned data.  The given values are checked, by ``validate``'s rules,
    before any arithmetic; a ``ValidationError`` names the offending input.
    """
    if not (xi > 0.0 and math.isfinite(xi)):
        raise ValidationError(f"xi must be positive and finite, got {xi!r}")
    # validate's rules on the given values; d_inf and l, computed below, are left to the checks here
    given = validate(ThermalCoefficients(k=k, rho=rho, c=c), MushyCoefficients(epsilon=epsilon, gamma=gamma),
                     BoundaryData(q0=q0, d_inf=1.0, h0=h0), case=UnknownCase.L, face=face)
    k, rho, c = given.thermal.k, given.thermal.rho, given.thermal.c
    epsilon, gamma = given.mushy.epsilon, given.mushy.gamma
    q0, h0 = given.boundary.q0, given.boundary.h0  # h0 is None on the Dirichlet face

    inf = math.inf
    krc = math.sqrt(k * rho * c)
    if not 0.0 < krc < inf:
        raise ValidationError(f"the product k rho c = {k * rho * c!r} must be a positive finite number")
    d_inf = q0 * specfun.erf(xi) * math.sqrt(math.pi) / krc
    if h0 is not None:
        d_inf += q0 / h0
    if not 0.0 < d_inf < inf:  # validate would name d_inf, a value the caller did not give
        other = f"h0 = {h0!r}" if h0 is not None and q0 / h0 == inf else f"k rho c = {k * rho * c!r}"
        raise ValidationError(f"q0 = {q0!r} and {other} make the face datum d_inf = {d_inf!r}, "
                              "not a positive finite number")

    strength = _strength(gamma * (1.0 - epsilon), krc, q0)
    try:
        balance = stefan_lhs(xi, strength)
    except OverflowError:  # xi past ≈26.6; l is then 0 and rejected below
        balance = inf
    l = q0 * math.sqrt(c / (rho * k)) / balance
    if not 0.0 < l < inf:
        raise ValidationError(f"xi = {xi!r} and the given coefficients make the latent heat l = {l!r}, "
                              "not a positive finite number")

    thermal, mushy = with_coefficient(given.thermal, given.mushy, UnknownCase.L, l)
    return ManufacturedProblem(face, thermal, mushy, BoundaryData(q0=q0, d_inf=d_inf, h0=h0), xi)


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def random_problem(
    rng: random.Random,
    face: Face = Face.CONVECTIVE,
    xi_range: tuple[float, float] = (0.05, 2.0),
) -> ManufacturedProblem:
    """Draw a random consistent problem with well-posed identification.

    k, rho, c and q0 are drawn log-uniformly over the four decades
    [1e-2, 1e2] and epsilon uniformly inside (0, 1).  The remaining two
    inputs are drawn through dimensionless groups, each again log-uniform
    over four decades:

    * the mushy-strength ratio w = strength e**xi^2 / xi fixes gamma, and
    * the face-transfer ratio fixes h0 relative to 1 / (erf(xi)
      sqrt(pi / (k rho c))).

    Sampling the raw coefficients independently instead would routinely
    produce data in which the hidden coefficient has next to no influence
    on the observations (w -> 0 or the convective attenuation -> 0); no
    algorithm can recover a coefficient the data barely depend on, so the
    groups, not the raw values, are what must span the decades.
    """
    xi = rng.uniform(*xi_range)
    k = _log_uniform(rng, 1e-2, 1e2)
    rho = _log_uniform(rng, 1e-2, 1e2)
    c = _log_uniform(rng, 1e-2, 1e2)
    q0 = _log_uniform(rng, 1e-2, 1e2)
    epsilon = rng.uniform(0.05, 0.95)

    krc = math.sqrt(k * rho * c)
    w = _log_uniform(rng, 1e-2, 1e2)
    gamma = w * xi * math.exp(-xi * xi) * 2.0 * q0 / ((1.0 - epsilon) * krc)

    h0 = None
    if face is Face.CONVECTIVE:
        h_rel = _log_uniform(rng, 5e-2, 5e2)
        h0 = h_rel * krc / (specfun.erf(xi) * math.sqrt(math.pi))

    return manufacture(xi, k, rho, c, epsilon, gamma, q0, h0=h0, face=face)
