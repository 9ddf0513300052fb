"""Error-function kernel: erf and a bracketed-Halley inverse.

:func:`erf` is the checked entry for values that come from a caller: it
rejects a non-finite argument.  An argument the package has already checked
(a validated or computed front position, a root finder's finite iterate)
goes to :func:`math.erf` directly, which gives the same value without the
check's cost.  :func:`erf` delegates to the C library via :mod:`math`,
which is accurate to about one unit in the last place; an independent
series evaluation lives in :mod:`mushy.verify` and the test suite
cross-checks the two paths.  The standard library has no ``erfinv``, so
:func:`erf_inv` computes it from M. Giles' single-precision polynomial
("Approximating the erfinv function", GPU Computing Gems, 2011).

Both public functions take a float, or an int or other real number that
fits in a double; a bool, text or an over-range int raises
:class:`~mushy.errors.DomainError`.
"""

import math
import warnings

from .errors import DomainError, IllConditionedWarning, as_number

__all__ = ["erf", "erf_inv", "TWO_OVER_SQRT_PI"]

#: d/dx erf(x) at 0; also the growth rate erf(x)/x near the origin.
TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

#: |y| beyond which the inverse is accepted but flagged as ill conditioned
#: (the derivative of erf there is below ~1e-11, so the result amplifies
#: perturbations of y by more than eleven orders of magnitude).
_SATURATION_EDGE = 1.0 - 1e-12

# erf(x) rounds to exactly 1.0 in binary64 a little above 5.86; 6.0 is a
# safe upper bracket for the inverse over the whole accepted input range.
_INV_BRACKET_HIGH = 6.0

# Below this |y|, erf(x) = 2x/sqrt(pi) to far under half an ulp, so the
# inverse is one product; the iteration starts no lower.
_LINEAR_EDGE = 1e-300
_SQRT_PI = math.sqrt(math.pi)
_SQRT_PI_OVER_2 = 0.886226925452758  # sqrt(pi)/2 correctly rounded; 0.5*sqrt(math.pi) is an ulp low

# A Halley step d taken from x leaves an error of about (x^2 + 1)/3 d^3, the
# method's cubic term for erf (erf''/erf' = -2x, erf'''/erf' = 4x^2 - 2).
# The iteration stops once that term is below 1/8 ulp(x); as ulp(x) >
# 2^-53 x, the test (x^2 + 1) |d|^3 <= 3/8 2^-53 x is sufficient.
_HALLEY_STOP = 0.375 * 2.0**-53


def erf(x: float) -> float:
    """Gaussian error function, odd and strictly increasing on the reals."""
    if type(x) is not float:
        x = as_number("x", x, DomainError)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    return math.erf(x)


def erf_inv(y: float) -> float:
    """Inverse of :func:`erf` on (-1, 1).

    Giles' single-precision polynomial in w = -log(1 - y^2), one branch
    below w = 5 and one up to w = 18 (x ~ 4.1), gives the start: below
    x = 3.5 it is within ~1e-7 relatively, and up to x = 4.1 within 0.5%.
    Above, where the polynomial would extrapolate, the start is the
    asymptotic inverse of erfc, within 3e-4.
    Halley steps x - q / (1 + x q), with q = (erf(x) - |y|) / erf'(x),
    refine it at no evaluation beyond erf's, as erf''/erf' = -2x.  A step
    that would leave the bisection bracket [0, 6] falls back to the
    bracket's midpoint, so the iteration converges for every representable
    ``|y| < 1``.  It stops when erf(x) meets |y| exactly or when the step's
    cubic error term is below 1/8 ulp(x); below x = 3.5 that is after the
    first step, one erf evaluation, whose rounding sets the error floor
    ulp(y)/erf'(x) + ulp(x) that the result keeps within.

    Below ``|y| = 1e-300`` erf is linear to far under half an ulp and the
    inverse is ``y sqrt(pi)/2``, within one ulp down to the smallest
    subnormal.  Inputs with ``|y| >= 1`` raise
    :class:`~mushy.errors.DomainError`; inputs closer to saturation than
    1 - 1e-12 are accepted but emit :class:`IllConditionedWarning`.
    """
    if type(y) is not float:
        y = as_number("y", y, DomainError)
    if not -1.0 < y < 1.0:
        if not math.isfinite(y):
            raise DomainError(f"y must be finite, got {y!r}")
        raise DomainError(f"erf_inv argument must satisfy |y| < 1, got {y!r}")
    a = y if y > 0.0 else -y
    if a < _LINEAR_EDGE:
        return y * _SQRT_PI_OVER_2  # erf_inv(-0.0) is -0.0, as erf is odd
    if a > _SATURATION_EDGE:
        warnings.warn(
            f"erf_inv argument {y!r} is within 1e-12 of saturation; "
            "the result is ill conditioned",
            IllConditionedWarning,
            stacklevel=2,
        )

    w = -math.log1p(-a * a)
    if w >= 18.0:
        # x > 4.1, past the polynomials' range: the asymptotic inverse of
        # erfc(x) = e**-x^2 / (x sqrt(pi)) (1 - 1/(2x^2) + 3/(4x^4)), two
        # sweeps from x^2 = L = -ln((1 - a) sqrt(pi)), within 3e-4.
        big_l = -math.log((1.0 - a) * _SQRT_PI)
        x = math.sqrt(big_l)
        for _ in range(2):
            s = 0.5 / (x * x)
            x = math.sqrt(big_l - math.log(x) + math.log1p(s * (3.0 * s - 1.0)))
    elif w < 5.0:
        w -= 2.5
        x = a * ((((((((2.81022636e-08 * w + 3.43273939e-07) * w - 3.5233877e-06) * w - 4.39150654e-06) * w
                      + 0.00021858087) * w - 0.00125372503) * w - 0.00417768164) * w + 0.246640727) * w
                 + 1.50140941)
    else:
        w = math.sqrt(w) - 3.0
        x = a * ((((((((-0.000200214257 * w + 0.000100950558) * w + 0.00134934322) * w - 0.00367342844) * w
                      + 0.00573950773) * w - 0.0076224613) * w + 0.00943887047) * w + 1.00167406) * w
                 + 2.83297682)
    lo, hi = 0.0, _INV_BRACKET_HIGH  # erf(lo) - a < 0 < erf(hi) - a
    if x > hi:
        x = hi
    evaluations = 0  # a counted while loop: cheaper than range() on the one-step path
    while evaluations < 80:
        evaluations += 1
        r = math.erf(x) - a
        if r == 0.0:
            break
        if r > 0.0:
            hi = x
        else:
            lo = x
        # x lies in (0, 6], where erf' is positive, and r > -erfc(x) >
        # -erf'(x) / (2x), so 1 + x q > 1/2; the bracket's ends are finite,
        # so it also rejects a NaN or infinite step.
        q = r / (TWO_OVER_SQRT_PI * math.exp(-x * x))
        d = q / (1.0 + x * q)
        x_next = x - d
        if lo < x_next < hi:
            x = x_next
            t = _HALLEY_STOP * x
            if -t <= d * d * d * (1.0 + x * x) <= t:
                break
        else:
            x = 0.5 * (lo + hi)
    return x if y > 0.0 else -x
