"""Safeguarded scalar root finding for strictly increasing functions.

All transcendental equations in this package share one shape: a strictly
increasing f on (0, inf) with a known limit at 0+ must hit a positive
target.  Each equation carries a start, an estimate of its root from its
own asymptotics.  :func:`solve_increasing` brackets the root from the
start and runs Newton steps safeguarded as in rtsafe (Press et al.,
*Numerical Recipes*, sec. 9.4): a step that would leave the bracket, or
that is not at most half the step of two iterations before, is replaced by
bisection, so convergence is guaranteed whatever the derivative or the
start does; both only accelerate it.
"""

import math
import sys
from collections.abc import Callable

from .errors import BracketOverflowError, ConvergenceError, NoRootError, NumericalError
from .model import FrozenRecord

__all__ = ["MonotoneEquation", "solve_increasing", "REL_TOL", "MAX_EVALS", "BRACKET_CAP"]

#: Certificate of every root, relative at every scale: residual <= REL_TOL *
#: |target| and a final bracket of width <= REL_TOL * x.
REL_TOL = 1e-12

#: Evaluations of f allowed in one solve before ConvergenceError.
MAX_EVALS = 200

#: Expansion guard: e**(x*x) overflows binary64 near x = 27, so an increasing
#: equation of the family handled here that is still below target at 40 has
#: no representable root.  A start must lie below it.
BRACKET_CAP = 40.0

#: The least positive normal double.  A target or root below it cannot meet
#: a relative certificate: its own spacing is coarser than REL_TOL of it.
_NORMAL_MIN = sys.float_info.min


class MonotoneEquation(FrozenRecord):
    """f(x) = target for strictly increasing f on (0, inf).

    lower_limit is the (one-sided) limit of f at 0+; a root exists iff
    target > lower_limit.  df, when given, must be the exact derivative of
    f; it is only ever used to propose steps, never trusted for correctness.
    start is where the solve takes its first evaluation, best a little
    above the root; any value in (0, 40) is valid, and any other value (a
    NaN, an inf) is read as 1.0.
    """

    f: Callable[[float], float]
    target: float
    lower_limit: float = 0.0
    df: Callable[[float], float] | None = None
    name: str = ""
    start: float = 1.0

    def __init__(
        self,
        f: Callable[[float], float],
        target: float,
        lower_limit: float = 0.0,
        df: Callable[[float], float] | None = None,
        name: str = "",
        start: float = 1.0,
    ) -> None:
        self.__dict__.update(f=f, target=target, lower_limit=lower_limit, df=df, name=name, start=start)


def solve_increasing(eq: MonotoneEquation) -> float:
    """Solve ``eq.f(x) = eq.target`` for the unique root x > 0.

    The returned root is certified relative to its own scale: ``|f(x) -
    target| <= REL_TOL * |target|`` and x is an end of a final bracket of
    width ``<= REL_TOL * x`` around the root, both checked before
    returning.  The bracket is [0, start] when f(start) reaches the target;
    otherwise its upper end grows from the start, doubling from 0.25 up
    and taking the square root below, until f reaches the target.  With a
    derivative, rtsafe-safeguarded Newton steps run from the bracket end
    nearer the target until the residual is within its bound and the
    Newton correction is at most a quarter of the width; one more Newton
    step polishes x, and one evaluation half a width beyond the root on x's
    far side closes the bracket: a solve costs the bracket, the Newton
    steps and two more evaluations.  If that evaluation does not change
    sign (a wrong derivative, or f flat in rounding noise), Newton is
    switched off and halving finishes the solve; without a derivative
    halving does all of it.

    Raises NoRootError when the target is not finite or ``target <=
    lower_limit``; NumericalError naming the equation when the target, or
    the root, is not a normal double; BracketOverflowError when no bracket
    exists below ``x = 40``; and ConvergenceError after MAX_EVALS
    evaluations of f.
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
    if not (target >= _NORMAL_MIN or target <= -_NORMAL_MIN):
        raise NumericalError(f"{label}: target {target!r} is not a normal double")

    # The loops below run once per evaluation, so they read only locals and
    # evaluate f inline.  Each evaluation is the residual f(x) - target,
    # counted against MAX_EVALS; math.exp raises OverflowError instead of
    # returning inf, and for an increasing function +inf is a perfectly
    # usable bracketing value.  Plain comparisons stand in for abs, max and
    # math.isfinite: they select the same values.
    inf, tol, max_evals, normal_min = math.inf, REL_TOL, MAX_EVALS, _NORMAL_MIN
    evals = 0

    # Geometric bracket expansion: keep lo below the root, push hi above it.
    # r_lo and r_hi are the residuals f - target at the two ends.
    lo, r_lo = 0.0, -inf
    hi = eq.start
    if not 0.0 < hi < BRACKET_CAP:
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
        if hi == BRACKET_CAP:
            raise BracketOverflowError(
                f"{label}: no sign change below x = {BRACKET_CAP}; "
                f"f({hi}) is still {r_hi + target!r} against target {target!r}"
            )
        lo, r_lo = hi, r_hi
        hi = hi + hi if hi >= 0.25 else math.sqrt(hi)
        if hi > BRACKET_CAP:
            hi = BRACKET_CAP
    if hi < normal_min:
        raise NumericalError(f"{label}: the root lies below {hi!r}, not a normal double")
    if r_hi == 0.0:
        return hi

    # Newton starts from the end nearer the target (the start, unless the
    # expansion passed the root by more than the start fell short of it).
    if r_hi <= -r_lo:
        x, fx = hi, r_hi
    else:
        x, fx = lo, r_lo
    res_tol = tol * (target if target > 0.0 else -target)
    neg_res_tol = -res_tol
    newton_tol = 0.25 * tol  # of x: the largest correction that ends Newton
    newton = df is not None
    converged = False  # Newton has converged: x is its polishing step
    step = step_old = hi - lo  # the last two step lengths (rtsafe's safeguard)

    while True:
        # The certificate can hold only once the bracket is this narrow.
        # Its candidate is the end of the bracket nearer the target, so the
        # bracket contains it by construction; f that is flat in rounding
        # noise cannot leave a stale best point outside the bracket.
        if hi - lo <= tol * hi:
            if r_hi <= -r_lo:
                best_x, best_r = hi, r_hi
            else:
                best_x, best_r = lo, r_lo
            if neg_res_tol <= best_r <= res_tol and hi - lo <= tol * best_x:
                return best_x

        nxt = 0.0  # no step yet; 0 lies outside every bracket's interior
        if newton and not converged:
            try:
                d = df(x)
            except OverflowError:
                d = inf  # no Newton step from an overflowing derivative
            if 0.0 < d < inf:
                dx = fx / d
                dx_abs = dx if dx >= 0.0 else -dx
                y = x - dx
                if dx_abs <= newton_tol * x and neg_res_tol <= fx <= res_tol:
                    converged = True
                    if lo < y < hi:
                        nxt = y  # the polishing step
                elif dx_abs + dx_abs <= step_old and lo < y < hi:
                    nxt = y
        if converged and not nxt:
            # x is polished, or its polishing step rounds onto x: one
            # evaluation half a width beyond the root on the far side of the
            # nearer end certifies it by a sign change.  If it does not, df
            # has misled Newton (or f is flat in rounding noise): from here
            # on halving alone collapses the bracket.
            newton = converged = False
            if r_hi <= -r_lo:
                best_x, best_r = hi, r_hi
            else:
                best_x, best_r = lo, r_lo
            far = best_x - math.copysign(0.5 * tol * best_x, best_r)
            if lo < far < hi:
                nxt = far
        if not nxt:
            nxt = 0.5 * (lo + hi)
        step_old = step
        step = nxt - x
        if step < 0.0:
            step = -step
        x = nxt

        evals += 1
        if evals > max_evals:
            raise ConvergenceError(f"{label}: exceeded {MAX_EVALS} evaluations")
        try:
            fx = f(x) - target
        except OverflowError:
            fx = inf
        if fx >= 0.0:
            if x < normal_min:
                raise NumericalError(f"{label}: the root lies below {x!r}, not a normal double")
            if fx == 0.0:
                return x
            hi, r_hi = x, fx
        else:
            lo, r_lo = x, fx
