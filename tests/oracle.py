"""50-digit references for the tests: erf and erf_inv from mpmath.

Test-only: mpmath never enters ``src/``, and the runtime stays stdlib-only.
The module works in its own mpmath context, so it leaves ``mpmath.mp``'s
precision as it found it.

A 50-digit mpmath erf costs 30-130 us, so a check over 1e5 points would
take over ten seconds.  :func:`erf_scaled` gives the same 50-digit values
for doubles in [0, 6] in under 10 us: a Taylor series of up to 36 terms
about the nearest of the nodes j/64, whose coefficients mpmath computes
once, summed in 200-bit fixed point with Python integers.
:func:`erf_inv_error` measures a double answer's error with it.
"""

import functools
import math

import mpmath

_CTX = mpmath.MPContext()
_CTX.dps = 50

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

#: Relative size below which a Newton step leaves the root exact to far more
#: digits than a double's error can be measured with (the next step would be
#: about x step^2, under 1e-30 relatively).
_NEWTON_DONE = 1e-16

#: erf_scaled's fixed point, node spacing and series length.  |exp(-z^2)|
#: <= e on the strip |Im z| <= 1, so by Cauchy's estimate erf's k-th Taylor
#: coefficient is below 2e/(sqrt(pi) k) < 4 about any real node; the nodes
#: are 1/64 apart, so |h| <= 2^-7 and the 36th term is below 2^-250, far
#: under the scale's 2^-200.
FRACTION_BITS = 200
_NODES_PER_UNIT = 64
_TERMS = 36


def erf(x: float):
    """erf(x) to 50 digits."""
    return _CTX.erf(x)


def erf_inv(y: float, start: float = None):
    """The root of erf(x) = y to at least 30 digits, worked in 50.

    With no ``start``, mpmath's erfinv (about 1 ms a call).  With a start
    near the root, such as a double answer under test, Newton's method on
    the 50-digit erf from there.  erf is concave on x > 0, so from a start
    at or below the root every step stays below it, and from a start above
    it the first step crosses below; within a few ulps of the root one step
    is enough.
    """
    if start is None:
        return _CTX.erfinv(y)
    y = _CTX.mpf(y)
    t = _CTX.mpf(start)
    for _ in range(100):
        # erf'(t) in double precision: the step's relative error is then
        # ~1e-16, which costs at most one more step.
        step = (_CTX.erf(t) - y) / (_TWO_OVER_SQRT_PI * math.exp(-float(t) ** 2))
        t -= step
        if abs(step) <= _NEWTON_DONE * abs(t):
            return t
    raise ArithmeticError(f"Newton's method for erf_inv({y}) did not converge from {start!r}")


@functools.lru_cache(maxsize=None)
def _taylor_rows() -> tuple:
    """For each node x0 = j/64 in [0, 6], erf(x0) and the Taylor
    coefficients erf^(k)(x0)/k!, k = 1..35, as integers scaled by 2^200.
    With g = exp(-x^2), erf' = 2/sqrt(pi) g and g' = -2 x g, so g's Taylor
    coefficients at x0 satisfy (k+1) g_{k+1} = -2 (x0 g_k + g_{k-1})."""
    ctx = mpmath.MPContext()
    ctx.dps = 70
    scale = ctx.mpf(2) ** FRACTION_BITS
    two_over_sqrt_pi = 2 / ctx.sqrt(ctx.pi)
    rows = []
    for j in range(6 * _NODES_PER_UNIT + 1):
        x0 = ctx.mpf(j) / _NODES_PER_UNIT
        g = [ctx.exp(-x0 * x0)]
        g.append(-2 * x0 * g[0])
        for k in range(1, _TERMS - 2):
            g.append(-2 * (x0 * g[k] + g[k - 1]) / (k + 1))
        coefficients = [ctx.erf(x0)] + [two_over_sqrt_pi * gk / (k + 1) for k, gk in enumerate(g)]
        rows.append(tuple(int(ctx.nint(v * scale)) for v in coefficients))
    return tuple(rows)


@functools.lru_cache(maxsize=1)  # a check reads erf at the same x twice
def erf_scaled(x: float) -> int:
    """erf(x) times 2^FRACTION_BITS, within 64 units, for a double x in
    [0, 6]: 50-digit erf at about a tenth of mpmath's cost."""
    if not 0.0 <= x <= 6.0:
        raise ValueError(f"erf_scaled needs 0 <= x <= 6, got {x!r}")
    j = round(x * _NODES_PER_UNIT)
    # Exact: x lies within 1/128 of j/64, so for j >= 1 it is within a
    # factor of 2 of it (Sterbenz), and for j = 0 the difference is x.
    n, d = (x - j / _NODES_PER_UNIT).as_integer_ratio()
    shift = d.bit_length() - 1
    # |h| < 2^-b, so the k-th term is below 4 2^-bk: enough terms for 2^-204.
    b = shift - n.bit_length()
    row = _taylor_rows()[j][: 1 + min(_TERMS - 1, 206 // b + 1) if n else 1]
    acc = row[-1]
    for c in row[-2::-1]:
        acc = (acc * n >> shift) + c
    return acc


def scaled(v: float) -> int:
    """The double v >= 2^-148 times 2^FRACTION_BITS, exactly."""
    n, d = v.as_integer_ratio()
    return n << FRACTION_BITS >> (d.bit_length() - 1)


def erf_inv_error(y: float, x: float) -> float:
    """x - erfinv(y), to 1e-6 of itself or better, for 2^-100 <= y < 1 and
    a double x in [0, 6] near the root.

    Newton's step from x is x - erfinv(y) to first order, with a relative
    error of about x |step|.  Where that exceeds 1e-6 (only where erf is
    within ~1e-10 of 1), Newton's method continues on doubles until the
    step is under an ulp; the error is then above 1.6e-7, so the last
    step's rounding moves it by under 1e-8 of itself.
    """
    target = scaled(y)
    unit = 2.0**FRACTION_BITS
    step = (erf_scaled(x) - target) / unit / (_TWO_OVER_SQRT_PI * math.exp(-x * x))
    if x * abs(step) <= 1e-6:
        return step
    t = x
    for _ in range(100):
        t -= step
        step = (erf_scaled(t) - target) / unit / (_TWO_OVER_SQRT_PI * math.exp(-t * t))
        if abs(step) <= math.ulp(t):
            return (x - t) + step
    raise ArithmeticError(f"Newton's method for erf_inv({y!r}) did not converge from {x!r}")
