"""Safeguarded scalar root finding for strictly increasing functions.

All transcendental equations in this package share one shape: a strictly
increasing f on (0, inf) with a known limit at 0+ must hit a positive
target.  The solver below expands a geometric bracket from 1.0, then runs
Newton steps (when a derivative is supplied) inside it until Newton has
converged, polishes once, and certifies the root with one evaluation just
beyond it on the far side: a sign change there closes the bracket to the
certified width.  Newton steps are safeguarded as in rtsafe (Press et al.,
*Numerical Recipes*, sec. 9.4): a step that would leave the bracket, or
that is not at most half the step of two iterations before, is replaced by
bisection.  When the far-side evaluation does not change sign, Newton is
switched off and halving finishes the solve, so convergence is guaranteed
whatever the derivative does; Newton only accelerates it.
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


def solve_increasing(eq: MonotoneEquation) -> float:
    """Solve ``eq.f(x) = eq.target`` for the unique root x > 0.

    The returned root is certified: ``|f(x) - target| <= ABS_TOL * max(1,
    |target|)`` and x is an end of a final bracket of width ``<= ABS_TOL *
    max(1, x)`` around the root, both checked before returning.  With a
    derivative, rtsafe-safeguarded Newton steps run until the residual is
    within its bound and the Newton correction is at most a quarter of the
    width; one more Newton step polishes x, and one evaluation half a width
    beyond the root on x's far side closes the bracket: a solve costs the
    bracket expansion, the Newton steps and two more evaluations.  If that
    evaluation does not change sign (a wrong derivative, or f flat in
    rounding noise), Newton is switched off and halving finishes the solve;
    without a derivative halving does all of it.

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

    f, df, target = eq.f, eq.df, eq.target
    evals = 0

    def f_at(x: float) -> float:
        """The residual f(x) - target, counted against MAX_EVALS."""
        nonlocal evals
        evals += 1
        if evals > MAX_EVALS:
            raise ConvergenceError(f"{label}: exceeded {MAX_EVALS} evaluations")
        # math.exp raises OverflowError instead of returning inf; for an
        # increasing function +inf is a perfectly usable bracketing value.
        try:
            return f(x) - target
        except OverflowError:
            return math.inf

    # Geometric bracket expansion: keep lo below the root, push hi above it.
    # r_lo and r_hi are the residuals f - target at the two ends.
    lo, r_lo = 0.0, -math.inf
    hi = 1.0
    r_hi = f_at(hi)
    while r_hi < 0.0:
        lo, r_lo = hi, r_hi
        hi *= 2.0
        if hi > BRACKET_CAP:
            raise BracketOverflowError(
                f"{label}: no sign change below x = {BRACKET_CAP}; "
                f"f({lo}) is still {r_lo + target!r} against target {target!r}"
            )
        r_hi = f_at(hi)
    if r_hi == 0.0:
        return hi

    x = 0.5 * (lo + hi)
    res_tol = ABS_TOL * max(1.0, abs(target))
    newton = df is not None
    converged = False  # Newton has converged: x is its polishing step
    step = step_old = hi - lo  # the last two step lengths (rtsafe's safeguard)

    while True:
        fx = f_at(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            hi, r_hi = x, fx
        else:
            lo, r_lo = x, fx

        # The candidate is the end of the bracket nearer the target, so the
        # bracket contains it by construction; f that is flat in rounding
        # noise cannot leave a stale best point outside the bracket.
        best_x, best_r = (hi, r_hi) if r_hi <= -r_lo else (lo, r_lo)
        wid_tol = ABS_TOL * max(1.0, best_x)
        if abs(best_r) <= res_tol and hi - lo <= wid_tol:
            return best_x

        nxt = 0.5 * (lo + hi)
        certify = converged
        if newton and not converged:
            try:
                d = df(x)
            except OverflowError:
                d = math.inf  # no Newton step from an overflowing derivative
            if math.isfinite(d) and d > 0.0:
                dx = fx / d
                converged = abs(fx) <= res_tol and abs(dx) <= 0.25 * wid_tol
                if lo < x - dx < hi and (converged or abs(dx) <= 0.5 * abs(step_old)):
                    nxt = x - dx
                else:
                    # converged, but the polishing step rounds onto x itself
                    # (or past an end of the bracket): certify x as it is
                    certify = converged
        if certify:
            # One evaluation half a width beyond the root on the far side of
            # best_x certifies it by a sign change.  If it does not, df has
            # misled Newton (or f is flat in rounding noise): from here on
            # halving alone collapses the bracket.
            newton = converged = False
            far = best_x - math.copysign(0.5 * wid_tol, best_r)
            if lo < far < hi:
                nxt = far
        step_old, step = step, nxt - x
        x = nxt
