"""Independent verification: a series erf, brute bisection, and residuals.

Everything here exists to catch transcription mistakes elsewhere, so this
module deliberately avoids the production code paths it checks:
:func:`reference_erf` sums a series instead of calling the kernel in
:mod:`mushy.specfun`, and :func:`brute_bisect` narrows a bracket by plain
halving instead of reusing the safeguarded Newton solver.  The residual
evaluations apply finite differences to the temperature field and the
analytic derivative formulas to the five physical conditions that define
the free-boundary problem.
"""

import math
from collections.abc import Sequence

from .direct import (
    SQRT_PI,
    _sqrt_product,
    front_r,
    front_s,
    front_r_velocity,
    front_s_velocity,
    temperature,
    temperature_gradient,
)
from .errors import DomainError
from .model import (
    BoundaryData,
    Face,
    MushyCoefficients,
    OutputRecord,
    SimilaritySolution,
    ThermalCoefficients,
    in_range,
    out_of_range,
)
from .rootfind import MonotoneEquation

__all__ = [
    "PdeResidual",
    "ConditionResiduals",
    "reference_erf",
    "brute_bisect",
    "pde_residual",
    "condition_residuals",
    "CONDITION_IDS",
]

#: Identifiers of the checked conditions, in report order.
CONDITION_IDS = ("pde", "fusion_at_s", "stefan", "mushy_width", "flux", "face")

#: Relative half-width below which erf saturates to 1 in binary64; beyond
#: |x| = 6 the series gains nothing and its cost keeps growing.
_SERIES_DOMAIN = 6.0


def reference_erf(x: float) -> float:
    """Series evaluation of erf on [-6, 6], independent of the kernel.

    Uses the scaled power series

        erf(x) = (2/sqrt(pi)) x e**(-x^2) sum_n (2 x^2)^n / (1*3*...*(2n+1)),

    whose terms are all positive, so unlike the alternating raw Maclaurin
    form it loses nothing to cancellation for moderate x.  Summation stops
    once the next term falls below 2**-60 of the running sum while the term
    ratio 2x^2/(2n+3) is under 1/2; the truncated tail is then a geometric
    series bounded by twice the next term, i.e. below 1e-16 relative.
    math.fsum removes the remaining accumulation error.
    """
    x = float(x)
    if math.isnan(x) or abs(x) > _SERIES_DOMAIN:
        raise DomainError(f"reference_erf needs |x| <= {_SERIES_DOMAIN}, got {x!r}")
    if x == 0.0:
        return 0.0
    z = 2.0 * x * x
    terms = [1.0]
    term = 1.0
    n = 0
    while True:
        n += 1
        term *= z / (2.0 * n + 1.0)
        terms.append(term)
        if z / (2.0 * n + 3.0) < 0.5 and term < 2.0**-60 * terms[0]:
            break
        if n > 400:  # unreachable for |x| <= 6; guards the loop anyway
            raise DomainError(f"series for erf({x!r}) failed to converge")
    total = math.fsum(terms)
    return (2.0 / math.sqrt(math.pi)) * x * math.exp(-x * x) * total


def brute_bisect(eq: MonotoneEquation, lo: float, hi: float, width: float = 1e-14) -> float:
    """Plain bisection of ``eq.f(x) = eq.target`` down to a bracket width.

    Requires a sign change of the residual across [lo, hi].  No derivative,
    no expansion, no acceleration: the dumbest correct thing, which is the
    point, since it cross-checks the clever solver.
    """
    f_lo = eq.f(lo) - eq.target
    f_hi = eq.f(hi) - eq.target
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise DomainError(
            f"no sign change on [{lo!r}, {hi!r}]: residuals {f_lo!r} and {f_hi!r}"
        )
    if f_lo > 0.0:
        lo, hi = hi, lo  # keep f(lo) < 0 < f(hi); works for either orientation
    while abs(hi - lo) > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # interval no longer splittable in binary64
            break
        f_mid = eq.f(mid) - eq.target
        if f_mid == 0.0:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class PdeResidual(OutputRecord):
    """:func:`pde_residual`'s report: the largest finite-difference
    heat-equation residual over the sample, normalized by the natural scale
    (peak temperature magnitude over smallest sampled time), and the
    relative step it was taken with."""

    __slots__ = ()

    def __new__(cls, pde_residual_max, fd_step):
        return tuple.__new__(cls, (pde_residual_max, fd_step))


class ConditionResiduals(OutputRecord):
    """:func:`condition_residuals`' report: each condition identifier of
    :data:`CONDITION_IDS` after ``pde`` mapped to its largest relative
    residual over the sampled times."""

    __slots__ = ()

    def __new__(cls, condition_residuals):
        return tuple.__new__(cls, (condition_residuals,))


def pde_residual(
    sol: SimilaritySolution,
    x_points: Sequence[float],
    t_points: Sequence[float],
    fd_step: float = 1e-4,
) -> PdeResidual:
    """Finite-difference residual of the heat equation inside the solid.

    Central second differences in x and central first differences in t,
    with steps proportional to the local similarity scales:
    dx = fd_step * 2 sqrt(alpha t) and dt = fd_step * t.  Every stencil
    point must stay strictly inside the solid region, otherwise the profile
    is not smooth across it and the difference quotients are meaningless;
    violating points raise DomainError, as does a step that underflows to
    zero.  The reported maximum of
    |dT/dt - alpha d2T/dx2| is normalized by |T|_max / t_min, so it is
    dimensionless and scale-invariant; it shrinks at second order in
    fd_step until roundoff takes over.  A normalizing scale that is not a
    positive normal double raises NumericalError
    (:func:`~mushy.model.in_range`).
    """
    if not (0.0 < fd_step < 0.5):
        raise DomainError(f"fd_step must lie in (0, 0.5), got {fd_step!r}")
    if not x_points or not t_points:
        raise DomainError("x_points and t_points must be nonempty")

    t_min = min(t_points)
    scale = abs(sol.a_coef) / t_min  # |T|_max = |T(0, t)| = |a_coef|
    worst = 0.0
    for t in t_points:
        dt = fd_step * t
        dx = fd_step * 2.0 * _sqrt_product(sol.alpha, t)
        if dt == 0.0 or dx * dx == 0.0:
            raise DomainError(f"finite-difference step underflows to zero at t={t!r}")
        for x in x_points:
            for xx, tt in ((x - dx, t), (x + dx, t), (x, t - dt), (x, t + dt), (x, t)):
                if xx < 0.0 or front_s(sol, tt) <= xx:
                    raise DomainError(
                        f"stencil point (x={xx!r}, t={tt!r}) leaves the solid region"
                    )
            t_c, _ = temperature(sol, x, t)
            t_xm, _ = temperature(sol, x - dx, t)
            t_xp, _ = temperature(sol, x + dx, t)
            t_tm, _ = temperature(sol, x, t - dt)
            t_tp, _ = temperature(sol, x, t + dt)
            d_dt = (t_tp - t_tm) / (2.0 * dt)
            d2_dx2 = (t_xp - 2.0 * t_c + t_xm) / (dx * dx)
            worst = max(worst, abs(d_dt - sol.alpha * d2_dx2))

    return PdeResidual(pde_residual_max=worst / in_range("the residual scale |a_coef| / t_min", scale),
                       fd_step=fd_step)


def condition_residuals(
    sol: SimilaritySolution,
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    t_points: Sequence[float],
    face: Face,
) -> ConditionResiduals:
    """Relative residuals of the five pointwise conditions at sampled times.

    Checked with the analytic derivative formulas (no differencing):

    * fusion_at_s:  T(s(t), t) = 0, scaled by the profile amplitude;
    * stefan:       k dT/dx at s(t) = rho l (epsilon ds/dt + (1-epsilon) dr/dt);
    * mushy_width:  dT/dx at s(t) times (r(t) - s(t)) = gamma;
    * flux:         k dT/dx at 0 = q0 / sqrt(t);
    * face:         T(0,t) + d_inf = k dT/dx at 0 times sqrt(t)/h0, the
                    convective exchange in temperature form, whose right
                    side is 0 for the prescribed temperature (and h0 = inf).

    Each residual is divided by the magnitude of its dominant term at the
    same t (the face residual by d_inf), so the map is dimensionless and
    unit-system independent.  A scale that is not a positive normal double
    (the profile amplitude |a_coef|, q0 / sqrt(t), gamma, d_inf, or the
    conducted flux k dT/dx at s(t), which carries the factor e**-xi^2)
    leaves its residual without a scale and raises NumericalError
    (:func:`~mushy.model.in_range`), as does a convective h0 of 0.
    """
    if not t_points:
        raise DomainError("t_points must be nonempty")
    res = {key: 0.0 for key in CONDITION_IDS[1:]}
    amplitude = in_range("the profile amplitude |a_coef|", abs(sol.a_coef))
    gamma, d_inf = in_range("gamma", mushy.gamma), in_range("d_inf", boundary.d_inf)
    if face is not Face.DIRICHLET and not boundary.h0 > 0.0:  # a finite h0 divides the face condition's lag
        raise out_of_range("h0", boundary.h0)
    for t in t_points:
        if not (t > 0.0 and math.isfinite(t)):
            raise DomainError(f"t must be positive and finite, got {t!r}")
        s_t = front_s(sol, t)
        r_t = front_r(sol, t)
        # solid-side limit of dT/dx at the front; evaluating at the rounded
        # s_t can land an ulp past xi, where the gradient is the mushy-zone 0
        grad_s = sol.b_coef * math.exp(-sol.xi * sol.xi) / (SQRT_PI * _sqrt_product(sol.alpha, t))
        grad_0 = temperature_gradient(sol, 0.0, t)
        t_face, _ = temperature(sol, 0.0, t)
        t_s, _ = temperature(sol, s_t, t)
        flux_scale = in_range("the flux scale q0 / sqrt(t)", boundary.q0 / math.sqrt(t))

        res["fusion_at_s"] = max(res["fusion_at_s"], abs(t_s) / amplitude)
        melt = thermal.rho * thermal.l * (
            mushy.epsilon * front_s_velocity(sol, t)
            + (1.0 - mushy.epsilon) * front_r_velocity(sol, t)
        )
        conducted = in_range("the conducted flux k dT/dx at s(t)", thermal.k * grad_s)
        res["stefan"] = max(res["stefan"], abs(conducted - melt) / abs(conducted))
        res["mushy_width"] = max(res["mushy_width"], abs(grad_s * (r_t - s_t) - gamma) / gamma)
        res["flux"] = max(res["flux"], abs(thermal.k * grad_0 - flux_scale) / flux_scale)
        # the face condition in its temperature form, T(0,t) + d_inf = k T_x(0,t) sqrt(t) / h0, whose
        # right side is 0 on the Dirichlet face and at h0 = inf
        lag = 0.0 if face is Face.DIRICHLET else thermal.k * grad_0 * math.sqrt(t) / boundary.h0
        res["face"] = max(res["face"], abs(t_face + d_inf - lag) / d_inf)

    return ConditionResiduals(condition_residuals=res)
