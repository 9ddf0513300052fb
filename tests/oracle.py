"""50-digit references for the tests: erf and erf_inv from mpmath, the
roots of the package's four equation families, and all 12 face x case
cells.

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

#: A 60-digit context: the root oracles' own, and the tests' for formulas
#: around them.
MP60 = mpmath.MPContext()
MP60.dps = 60

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


# --- roots of the package's monotone equations -------------------------------
#
# Each takes the double parameters of one equation family, as its builder
# computed them, and returns the exact root of that double-valued equation
# to about 40 digits: Newton's method at 60 digits from the double root
# under test.  The left sides are increasing, so from a start within a few
# ulps Newton converges in two or three steps.


def _newton_root(lhs_and_slope, target, start: float):
    """Newton's method at 60 digits from ``start`` on lhs(x) = target, where
    ``lhs_and_slope(ctx, x)`` gives the left side and its derivative from
    one evaluation of the functions they share."""
    ctx = MP60
    t = ctx.mpf(target)
    x = ctx.mpf(start)
    for _ in range(100):
        lhs, slope = lhs_and_slope(ctx, x)
        step = (lhs - t) / slope
        x -= step
        if abs(step) <= ctx.mpf(10) ** -45 * abs(x):
            return x
    raise ArithmeticError(f"Newton's method did not converge from {start!r}")


def kr_root(cf: float, target: float, start: float):
    """The root of (x + cf D) D = target, D = erf(x) e**x^2: the k/rho
    xi equation."""

    def lhs_and_slope(ctx, x):
        d = ctx.erf(x) * ctx.exp(x * x)
        dd = 2 / ctx.sqrt(ctx.pi) + 2 * x * d
        return (x + cf * d) * d, (1 + cf * dd) * d + (x + cf * d) * dd

    return _newton_root(lhs_and_slope, target, start)


def c_root(cf: float, target: float, start: float):
    """The root of (x/erf(x) + cf E) E = target, E = e**x^2: the c xi
    equation."""

    def lhs_and_slope(ctx, x):
        e = ctx.exp(x * x)
        erf_x = ctx.erf(x)
        r = x / erf_x
        dr = (erf_x - x * 2 / ctx.sqrt(ctx.pi) / e) / (erf_x * erf_x)
        return (r + cf * e) * e, (dr + 2 * x * cf * e) * e + (r + cf * e) * 2 * x * e

    return _newton_root(lhs_and_slope, target, start)


def balance_root(strength: float, target: float, start: float):
    """The root of (x + strength E) E = target, E = e**x^2: the front
    balance; at strength 0 the eta_r7 equation x e**x^2 = target."""

    def lhs_and_slope(ctx, x):
        e = ctx.exp(x * x)
        return (x + strength * e) * e, e * (1 + 2 * x * x + 4 * x * strength * e)

    return _newton_root(lhs_and_slope, target, start)


# --- the 12 cells ------------------------------------------------------------


def face_cell(case: str, data: dict, start: float):
    """The unknown ``case`` ('l', 'gamma' or 'epsilon') at 60 digits from the
    other data as given: ``data`` maps l, k, rho, c, epsilon, gamma, q0,
    d_inf and h0 (absent or None on the Dirichlet face) to numbers, the
    unknown to None.

    xi solves erf(xi) = (d_inf - q0/h0) sqrt(k rho c / pi) / q0, the face
    argument, by Newton's method from ``start``, such as the library's xi;
    the closed forms then follow with the Stefan target
    S = (q0/l) sqrt(c/(rho k)) and E = e**xi^2:

        l = q0 sqrt(c/(rho k)) / ((xi + gamma (1 - epsilon) sqrt(k rho c) E / (2 q0)) E),
        gamma (1 - epsilon) = 2 q0 (S - xi E) / (sqrt(k rho c) E^2).
    """
    ctx = MP60
    d = {name: ctx.mpf(v) for name, v in data.items() if v is not None}
    q0, krc = d["q0"], ctx.sqrt(d["k"] * d["rho"] * d["c"])
    face = d["d_inf"] - q0 / d["h0"] if "h0" in d else d["d_inf"]
    two_over_sqrt_pi = 2 / ctx.sqrt(ctx.pi)
    xi = _newton_root(lambda ctx, x: (ctx.erf(x), two_over_sqrt_pi * ctx.exp(-x * x)),
                      face * krc / (q0 * ctx.sqrt(ctx.pi)), start)
    e = ctx.exp(xi * xi)
    if case == "l":
        strength = d["gamma"] * (1 - d["epsilon"]) * krc / (2 * q0)
        return q0 * ctx.sqrt(d["c"] / (d["rho"] * d["k"])) / ((xi + strength * e) * e)
    zone = 2 * q0 * (q0 / d["l"] * ctx.sqrt(d["c"] / (d["rho"] * d["k"])) - xi * e) / (krc * e * e)
    if case == "gamma":
        return zone / (1 - d["epsilon"])
    return 1 - zone / d["gamma"]


def root_cell(case: str, data: dict, start: float):
    """The unknown ``case`` ('k', 'rho' or 'c') at 60 digits from the other
    data as given, ``data`` as in :func:`face_cell`.

    With beta = 1 - q0/(h0 d_inf) (1 on the Dirichlet face) and the zone
    weight cf = gamma sqrt(pi) (1 - epsilon) / (2 d_inf beta), xi is the
    root of the cell's xi equation from ``start``, such as the library's xi:
    :func:`kr_root` at the target c d_inf beta / (l sqrt(pi)) for k and rho,
    :func:`c_root` at q0^2 sqrt(pi) / (rho l k d_inf beta) for c.  The
    closed form then divides pi amp^2, amp = q0 erf(xi) / (d_inf beta), by
    the product of the other two of k, rho and c.
    """
    ctx = MP60
    d = {name: ctx.mpf(v) for name, v in data.items() if v is not None}
    q0, d_inf, sqrt_pi = d["q0"], d["d_inf"], ctx.sqrt(ctx.pi)
    beta = 1 - q0 / (d["h0"] * d_inf) if "h0" in d else 1
    cf = d["gamma"] * sqrt_pi * (1 - d["epsilon"]) / (2 * d_inf * beta)
    if case == "c":
        xi = c_root(cf, q0 * q0 * sqrt_pi / (d["rho"] * d["l"] * d["k"] * d_inf * beta), start)
    else:
        xi = kr_root(cf, d["c"] * d_inf * beta / (d["l"] * sqrt_pi), start)
    amp = q0 * ctx.erf(xi) / (d_inf * beta)
    return ctx.pi * amp * amp / ctx.fprod(d[name] for name in ("k", "rho", "c") if name in d)


def face_cell_condition(case: str, data: dict, start: float):
    """kappa = sum over the known data d of |d ln theta / d ln d| for the
    :func:`face_cell` theta, by central differences at 60 digits: a relative
    step of 1e-20 leaves an error near 1e-40 and keeps 40 digits."""
    return _condition(face_cell, case, data, start)


def root_cell_condition(case: str, data: dict, start: float):
    """:func:`face_cell_condition` for the :func:`root_cell` theta."""
    return _condition(root_cell, case, data, start)


def _condition(cell, case: str, data: dict, start: float):
    """theta = cell(case, data, start) and its kappa over the known data."""
    ctx = MP60
    h = ctx.mpf(10) ** -20
    theta = cell(case, data, start)
    kappa = 0
    for name, v in data.items():
        if v is None:
            continue
        up = cell(case, {**data, name: ctx.mpf(v) * ctx.exp(h)}, start)
        down = cell(case, {**data, name: ctx.mpf(v) * ctx.exp(-h)}, start)
        kappa += abs((up - down) / (2 * h * theta))
    return theta, kappa
