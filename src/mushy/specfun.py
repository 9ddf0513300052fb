"""Error-function kernel: erf, erfc and a bracketed-Newton inverse.

Every other module evaluates the Gaussian error function through this one.
The forward functions delegate to the C library via :mod:`math`, which is
accurate to within one unit in the last place; an independent series
evaluation lives in :mod:`mushy.verify` and the test suite cross-checks the
two paths.  The inverse is computed here by a safeguarded Newton iteration
because the standard library has no ``erfinv``.
"""

from __future__ import annotations

import math
import warnings

from .errors import DomainError, IllConditionedWarning

__all__ = ["erf", "erfc", "erf_inv", "TWO_OVER_SQRT_PI"]

#: d/dx erf(x) at 0; also the growth rate erf(x)/x near the origin.
TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

#: |y| beyond which the inverse is accepted but flagged as ill conditioned
#: (the derivative of erf there is below ~1e-11, so the result amplifies
#: perturbations of y by more than eleven orders of magnitude).
_SATURATION_EDGE = 1.0 - 1e-12

# erf(x) rounds to exactly 1.0 in binary64 a little above 5.86; 6.0 is a
# safe upper bracket for the inverse over the whole accepted input range.
_INV_BRACKET_HIGH = 6.0

# Winitzki's constant for the initial guess of the inverse (relative error
# of the guess is ~2e-3, which Newton then contracts quadratically).
_WINITZKI_A = 0.147


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def erf(x: float) -> float:
    """Gaussian error function, odd and strictly increasing on the reals."""
    return math.erf(_require_finite("x", x))


def erfc(x: float) -> float:
    """Complementary error function 1 - erf(x), computed without cancellation."""
    return math.erfc(_require_finite("x", x))


def _erf_inv_guess(a: float) -> float:
    # Winitzki's closed-form approximation of erfinv on [0, 1).
    lg = math.log1p(-a * a)
    half = 2.0 / (math.pi * _WINITZKI_A) + 0.5 * lg
    return math.sqrt(math.sqrt(half * half - lg / _WINITZKI_A) - half)


def erf_inv(y: float) -> float:
    """Inverse of :func:`erf` on (-1, 1).

    A Winitzki starting guess is polished by Newton steps safeguarded by a
    bisection bracket, so the iteration cannot escape [0, 6] and converges
    for every representable ``|y| < 1``.  Inputs with ``|y| >= 1`` raise
    :class:`~mushy.errors.DomainError`; inputs closer to saturation than
    1 - 1e-12 are accepted but emit :class:`IllConditionedWarning`.
    """
    y = _require_finite("y", y)
    if abs(y) >= 1.0:
        raise DomainError(f"erf_inv argument must satisfy |y| < 1, got {y!r}")
    if y == 0.0:
        return 0.0
    a = abs(y)
    if a > _SATURATION_EDGE:
        warnings.warn(
            f"erf_inv argument {y!r} is within 1e-12 of saturation; "
            "the result is ill conditioned",
            IllConditionedWarning,
            stacklevel=2,
        )

    lo, hi = 0.0, _INV_BRACKET_HIGH  # erf(lo) - a < 0 < erf(hi) - a
    x = min(max(_erf_inv_guess(a), 1e-300), hi)
    for _ in range(80):
        r = math.erf(x) - a
        if r == 0.0:
            break
        if r > 0.0:
            hi = x
        else:
            lo = x
        deriv = TWO_OVER_SQRT_PI * math.exp(-x * x)
        step = r / deriv if deriv > 0.0 else math.nan
        x_next = x - step
        if not math.isfinite(x_next) or not (lo < x_next < hi):
            x_next = 0.5 * (lo + hi)
        if abs(x_next - x) <= 1e-16 * (1.0 + abs(x_next)):
            x = x_next
            break
        x = x_next
    return math.copysign(x, y)
