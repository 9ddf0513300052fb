import math

import pytest
from hypothesis import given, strategies as st

from mushy.direct import xexp_sq, dxexp_sq
from mushy.errors import BracketOverflowError, ConvergenceError, NoRootError
from mushy.rootfind import ABS_TOL, MAX_EVALS, MonotoneEquation, solve_increasing

# Frozen by pure bisection to width 1e-14 (see test_verify).
ROOT_XEXP_TARGET_ONE = 0.6529186404192053


def test_identity_equation():
    eq = MonotoneEquation(f=lambda x: x, target=2.0)
    assert abs(solve_increasing(eq) - 2.0) <= 1e-12


def test_identity_with_derivative_is_essentially_exact():
    eq = MonotoneEquation(f=lambda x: x, target=2.0, df=lambda x: 1.0)
    assert solve_increasing(eq) == 2.0


def test_xexp_equation_matches_frozen_bisection_root():
    eq = MonotoneEquation(f=xexp_sq, target=1.0, df=dxexp_sq)
    root = solve_increasing(eq)
    assert abs(root - ROOT_XEXP_TARGET_ONE) <= 1e-13
    assert abs(xexp_sq(root) - 1.0) <= 1e-12


def test_residual_and_bracket_convergence_contract():
    eq = MonotoneEquation(f=xexp_sq, target=37.5, df=dxexp_sq)
    root = solve_increasing(eq)
    # residual relative to the target scale, root certified by the bracket
    assert abs(xexp_sq(root) - 37.5) <= ABS_TOL * max(1.0, 37.5) * 4.0


def test_target_at_or_below_lower_limit_rejected():
    eq = MonotoneEquation(f=lambda x: 1.0 + x, target=0.5, lower_limit=1.0)
    with pytest.raises(NoRootError):
        solve_increasing(eq)
    with pytest.raises(NoRootError):
        solve_increasing(MonotoneEquation(f=lambda x: 1.0 + x, target=1.0, lower_limit=1.0))


def test_non_finite_target_rejected():
    with pytest.raises(NoRootError):
        solve_increasing(MonotoneEquation(f=lambda x: x, target=math.nan))


def test_bounded_function_overflows_bracket():
    eq = MonotoneEquation(f=math.atan, target=2.0)  # sup atan = pi/2 < 2
    with pytest.raises(BracketOverflowError):
        solve_increasing(eq)


def test_overflowing_function_is_treated_as_infinite():
    # exp overflows near x = 710; the expansion must survive that and bracket
    eq = MonotoneEquation(f=lambda x: math.exp(x * x), target=10.0)
    root = solve_increasing(eq)
    assert math.isclose(root, math.sqrt(math.log(10.0)), rel_tol=1e-10)


def test_tiny_evaluation_budget_raises():
    # An increasing step function jumps over its target at x = 0.375: the
    # bracket collapses onto the jump but the residual never enters its band.
    evals = 0

    def step(x: float) -> float:
        nonlocal evals
        evals += 1
        return float(math.floor(8.0 * x))

    with pytest.raises(ConvergenceError):
        solve_increasing(MonotoneEquation(f=step, target=2.5))
    assert evals == MAX_EVALS


@given(st.floats(min_value=0.05, max_value=500.0))
def test_deterministic_and_accurate_across_targets(target):
    eq = MonotoneEquation(f=xexp_sq, target=target, df=dxexp_sq)
    a = solve_increasing(eq)
    b = solve_increasing(eq)
    assert a == b  # bit-for-bit repeatable
    assert abs(xexp_sq(a) - target) <= 1e-11 * max(1.0, target)


@given(st.floats(min_value=0.01, max_value=50.0))
def test_root_is_monotone_in_target(target):
    lo = solve_increasing(MonotoneEquation(f=xexp_sq, target=target, df=dxexp_sq))
    hi = solve_increasing(MonotoneEquation(f=xexp_sq, target=target * 1.5, df=dxexp_sq))
    assert lo < hi
