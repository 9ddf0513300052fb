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
from typing import Callable, Optional

from .errors import BracketOverflowError, ConvergenceError, NoRootError
from .model import FrozenRecord

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


class MonotoneEquation(FrozenRecord):
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

    def __init__(
        self,
        f: Callable[[float], float],
        target: float,
        lower_limit: float = 0.0,
        df: Optional[Callable[[float], float]] = None,
        name: str = "",
    ) -> None:
        self.__dict__.update(f=f, target=target, lower_limit=lower_limit, df=df, name=name)


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
    f, df, target = eq.f, eq.df, eq.target
    if not math.isfinite(target):
        raise NoRootError(f"{label}: target must be finite, got {target!r}", eq.lower_limit, target)
    if target <= eq.lower_limit:
        raise NoRootError(
            f"{label}: target {target!r} does not exceed the lower limit {eq.lower_limit!r}",
            eq.lower_limit,
            target,
        )

    # The loops below run once per evaluation, so they read only locals and
    # evaluate f inline.  Each evaluation is the residual f(x) - target,
    # counted against MAX_EVALS; math.exp raises OverflowError instead of
    # returning inf, and for an increasing function +inf is a perfectly
    # usable bracketing value.  Plain comparisons stand in for abs, max and
    # math.isfinite: they select the same values.
    inf, tol, max_evals = math.inf, ABS_TOL, MAX_EVALS
    evals = 0

    # Geometric bracket expansion: keep lo below the root, push hi above it.
    # r_lo and r_hi are the residuals f - target at the two ends.
    lo, r_lo = 0.0, -inf
    hi = 1.0
    while True:
        evals += 1
        if evals > max_evals:
            raise ConvergenceError(f"{label}: exceeded {MAX_EVALS} evaluations")
        try:
            r_hi = f(hi) - target
        except OverflowError:
            r_hi = inf
        if not r_hi < 0.0:
            break
        lo, r_lo = hi, r_hi
        hi *= 2.0
        if hi > BRACKET_CAP:
            raise BracketOverflowError(
                f"{label}: no sign change below x = {BRACKET_CAP}; "
                f"f({lo}) is still {r_lo + target!r} against target {target!r}"
            )
    if r_hi == 0.0:
        return hi

    x = 0.5 * (lo + hi)
    res_tol = tol * max(1.0, abs(target))
    neg_res_tol = -res_tol
    newton = df is not None
    converged = False  # Newton has converged: x is its polishing step
    step = step_old = hi - lo  # the last two step lengths (rtsafe's safeguard)

    while True:
        evals += 1
        if evals > max_evals:
            raise ConvergenceError(f"{label}: exceeded {MAX_EVALS} evaluations")
        try:
            fx = f(x) - target
        except OverflowError:
            fx = inf
        if fx == 0.0:
            return x
        if fx > 0.0:
            hi, r_hi = x, fx
        else:
            lo, r_lo = x, fx

        # The candidate is the end of the bracket nearer the target, so the
        # bracket contains it by construction; f that is flat in rounding
        # noise cannot leave a stale best point outside the bracket.
        if r_hi <= -r_lo:
            best_x = hi
            best_r = r_hi
        else:
            best_x = lo
            best_r = r_lo
        wid_tol = tol * best_x if best_x > 1.0 else tol
        if neg_res_tol <= best_r <= res_tol and hi - lo <= wid_tol:
            return best_x

        nxt = 0.5 * (lo + hi)
        certify = converged
        if newton and not converged:
            try:
                d = df(x)
            except OverflowError:
                d = inf  # no Newton step from an overflowing derivative
            if 0.0 < d < inf:
                dx = fx / d
                dx_tol = 0.25 * wid_tol
                converged = neg_res_tol <= fx <= res_tol and -dx_tol <= dx <= dx_tol
                y = x - dx
                half_old = 0.5 * step_old
                if lo < y < hi and (converged or -half_old <= dx <= half_old):
                    nxt = y
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
        step_old = step
        step = nxt - x
        if step < 0.0:
            step = -step
        x = nxt
