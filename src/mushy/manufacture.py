"""Manufactured consistent data sets for testing and experiments.

Choosing the dimensionless solid-front position xi together with all
coefficients except the latent heat and the face datum leaves the two
consistency equations exactly solvable in closed form for l and d_inf.
Forward-substituting this way produces data for which every inverse solver
must recover its hidden coefficient exactly, which is what the round-trip
tests and the experiment scripts live on.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional

from . import specfun
from .errors import ValidationError
from .model import (
    BoundaryData,
    Face,
    MushyCoefficients,
    ThermalCoefficients,
    UnknownCase,
    validate,
    with_coefficient,
)

__all__ = ["ManufacturedProblem", "manufacture", "random_problem"]


class ManufacturedProblem(NamedTuple):
    """A complete, consistent data set together with the xi that built it."""

    face: Face
    thermal: ThermalCoefficients
    mushy: MushyCoefficients
    boundary: BoundaryData
    xi: float

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
    h0: Optional[float] = None,
    face: Face = Face.CONVECTIVE,
) -> ManufacturedProblem:
    """Build consistent data around a chosen xi > 0.

    The face datum follows from the face equation,
    ``d_inf = q0 erf(xi) sqrt(pi / (k rho c)) + q0 / h0`` (drop the last
    term for the Dirichlet problem), and the latent heat from the front
    balance, ``l = q0 sqrt(c / (rho k)) e**(-xi^2) / (xi + strength e**xi^2)``.
    Every solvability restriction of every case holds automatically for the
    returned data.
    """
    if not (xi > 0.0 and math.isfinite(xi)):
        raise ValidationError(f"xi must be positive and finite, got {xi!r}")
    if face is Face.CONVECTIVE:
        if h0 is None:
            raise ValidationError("the convective problem requires h0")
    else:
        h0 = None

    krc = math.sqrt(k * rho * c)
    d_inf = q0 * specfun.erf(xi) * math.sqrt(math.pi) / krc
    if h0 is not None:
        d_inf += q0 / h0

    strength = gamma * (1.0 - epsilon) * krc / (2.0 * q0)
    e = math.exp(xi * xi)
    l = q0 * math.sqrt(c / (rho * k)) / ((xi + strength * e) * e)

    thermal = ThermalCoefficients(l=l, k=k, rho=rho, c=c)
    mushy = MushyCoefficients(epsilon=epsilon, gamma=gamma)
    boundary = BoundaryData(q0=q0, d_inf=d_inf, h0=h0)
    instance = validate(thermal, mushy, boundary, case=None, face=face)
    return ManufacturedProblem(face, instance.thermal, instance.mushy, instance.boundary, xi)


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def random_problem(
    rng: random.Random,
    face: Face = Face.CONVECTIVE,
    xi_range: tuple[float, float] = (0.05, 2.0),
    coefficient_range: tuple[float, float] = (1e-2, 1e2),
) -> ManufacturedProblem:
    """Draw a random consistent problem with well-posed identification.

    k, rho, c and q0 are drawn log-uniformly over ``coefficient_range``
    (four decades by default) and epsilon uniformly inside (0, 1).  The
    remaining two inputs are drawn through dimensionless groups, each again
    log-uniform over four decades:

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
    k = _log_uniform(rng, *coefficient_range)
    rho = _log_uniform(rng, *coefficient_range)
    c = _log_uniform(rng, *coefficient_range)
    q0 = _log_uniform(rng, *coefficient_range)
    epsilon = rng.uniform(0.05, 0.95)

    krc = math.sqrt(k * rho * c)
    w = _log_uniform(rng, 1e-2, 1e2)
    gamma = w * xi * math.exp(-xi * xi) * 2.0 * q0 / ((1.0 - epsilon) * krc)

    h0 = None
    if face is Face.CONVECTIVE:
        h_rel = _log_uniform(rng, 5e-2, 5e2)
        h0 = h_rel * krc / (specfun.erf(xi) * math.sqrt(math.pi))

    return manufacture(xi, k, rho, c, epsilon, gamma, q0, h0=h0, face=face)
