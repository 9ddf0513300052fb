"""Safeguarded scalar root finding for strictly increasing functions.

All transcendental equations in this package share one shape: a strictly
increasing f on (0, inf) with a known limit at 0+ must hit a positive
target.  The solver below expands a geometric bracket from 1.0, then
mixes Newton steps (when a derivative is supplied) with bisection so the
iterate never leaves the bracket.  Pure bisection is the worst case, so
convergence is guaranteed; Newton only accelerates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import BracketOverflowError, ConvergenceError, NoRootError

__all__ = ["MonotoneEquation", "solve_increasing", "ABS_TOL", "MAX_EVALS", "BRACKET_CAP"]

#: Certificate of every root: residual <= ABS_TOL * max(1, |target|) and a
#: final bracket of width <= ABS_TOL * max(1, x).
ABS_TOL = 1e-12

#: Evaluations of f allowed in one solve before ConvergenceError.
MAX_EVALS = 200

#: Expansion guard: e**(x*x) overflows binary64 near x = 27, so an increasing
#: equation of the family handled here that is still below target at 40 has
#: no representable root.
BRACKET_CAP = 40.0


@dataclass(frozen=True)
class MonotoneEquation:
    """f(x) = target for strictly increasing f on (0, inf).

    lower_limit is the (one-sided) limit of f at 0+; a root exists iff
    target > lower_limit.  df, when given, must be the exact derivative of
    f; it is only ever used to propose steps, never trusted for correctness.
    """

    f: Callable[[float], float]
    target: float
    lower_limit: float = 0.0
    df: Optional[Callable[[float], float]] = None
    name: str = ""


def _eval(f: Callable[[float], float], x: float) -> float:
    # math.exp raises OverflowError instead of returning inf; for an
    # increasing function +inf is a perfectly usable bracketing value.
    try:
        return f(x)
    except OverflowError:
        return math.inf


def solve_increasing(eq: MonotoneEquation) -> float:
    """Solve ``eq.f(x) = eq.target`` for the unique root x > 0.

    On success the returned root satisfies both
    ``|f(x) - target| <= ABS_TOL * max(1, |target|)`` and a final bracket of
    width ``<= ABS_TOL * max(1, x)``; when a derivative is available the
    iterate is additionally polished by unclamped-residual Newton steps, so
    the practical accuracy is near machine precision.

    Raises NoRootError when ``target <= lower_limit``, BracketOverflowError
    when no bracket exists below ``x = 40``, and ConvergenceError after
    MAX_EVALS evaluations of f.
    """
    label = eq.name or "monotone equation"
    if not math.isfinite(eq.target):
        raise NoRootError(f"{label}: target must be finite, got {eq.target!r}", eq.lower_limit, eq.target)
    if eq.target <= eq.lower_limit:
        raise NoRootError(
            f"{label}: target {eq.target!r} does not exceed the lower limit {eq.lower_limit!r}",
            eq.lower_limit,
            eq.target,
        )

    evals = 0

    def f_at(x: float) -> float:
        nonlocal evals
        evals += 1
        if evals > MAX_EVALS:
            raise ConvergenceError(f"{label}: exceeded {MAX_EVALS} evaluations")
        return _eval(eq.f, x) - eq.target

    # Geometric bracket expansion: keep lo below the root, push hi above it.
    lo = 0.0
    hi = 1.0
    fhi = f_at(hi)
    while fhi < 0.0:
        lo = hi
        hi *= 2.0
        if hi > BRACKET_CAP:
            raise BracketOverflowError(
                f"{label}: no sign change below x = {BRACKET_CAP}; "
                f"f({lo}) is still {fhi + eq.target!r} against target {eq.target!r}"
            )
        fhi = f_at(hi)
    if fhi == 0.0:
        return hi

    x = 0.5 * (lo + hi)
    best_x = x
    best_r = math.inf
    res_tol = ABS_TOL * max(1.0, abs(eq.target))

    while True:
        fx = f_at(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            hi = x
        else:
            lo = x
        if abs(fx) < abs(best_r):
            best_x, best_r = x, fx

        wid_tol = ABS_TOL * max(1.0, abs(best_x))
        if abs(best_r) <= res_tol and (hi - lo) <= wid_tol:
            break

        nxt = None
        if abs(fx) > res_tol and eq.df is not None:
            d = _eval(eq.df, x)
            if math.isfinite(d) and d > 0.0:
                cand = x - fx / d
                if lo < cand < hi:
                    nxt = cand
        if nxt is None:
            # Bisection both finishes the residual and collapses the bracket
            # to the width criterion.  Near-degenerate roots (f' -> 0 right
            # at a solvability boundary) enter the residual band while the
            # bracket is still wide, so nothing finer-grained than halving
            # can be allowed to take over there.
            nxt = 0.5 * (lo + hi)
        x = nxt

    # Polish: a couple of pure Newton steps clamped to the bracket drive the
    # residual to the roundoff floor without voiding the certified bracket.
    if eq.df is not None:
        x, fx = best_x, best_r
        for _ in range(2):
            d = _eval(eq.df, x)
            if not (math.isfinite(d) and d > 0.0):
                break
            cand = x - fx / d
            if cand == x or not (lo <= cand <= hi):
                break
            fc = _eval(eq.f, cand) - eq.target
            if abs(fc) >= abs(fx):
                break
            x, fx = cand, fc
        best_x = x
    return best_x
