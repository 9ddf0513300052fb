import dataclasses
import math
import random
import statistics

import pytest
from hypothesis import given, strategies as st

from mushy import inverse_convective, inverse_dirichlet, solve_convective_case, solve_dirichlet_case
from mushy.direct import dxexp_sq, stefan_rhs, xexp_sq
from mushy.errors import BracketOverflowError, ConvergenceError, NoRootError
from mushy.manufacture import random_problem
from mushy.model import Face, UnknownCase
from mushy.rootfind import ABS_TOL, MAX_EVALS, MonotoneEquation, solve_increasing
from mushy.verify import brute_bisect

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


def assert_certified(eq: MonotoneEquation, x: float) -> None:
    """The certificate of solve_increasing, checked from outside: the root
    lies within ABS_TOL * max(1, x) of x on either side, and the residual is
    within ABS_TOL * max(1, |target|)."""
    width = ABS_TOL * max(1.0, x)
    assert eq.f(x - width) - eq.target <= 0.0 <= eq.f(x + width) - eq.target
    assert abs(eq.f(x) - eq.target) <= ABS_TOL * max(1.0, abs(eq.target))


def test_residual_and_bracket_convergence_contract():
    eq = MonotoneEquation(f=xexp_sq, target=37.5, df=dxexp_sq)
    root = solve_increasing(eq)
    # residual relative to the target scale, root certified by the bracket
    assert_certified(eq, root)


@pytest.mark.parametrize("factor", [10.0, 0.1])
def test_wrong_derivative_still_certifies(factor):
    # df only proposes steps: Newton steps ten times too short (which never
    # leave the bracket) or ten times too long must still end certified.
    eq = MonotoneEquation(f=xexp_sq, target=37.5, df=lambda x: factor * dxexp_sq(x))
    assert_certified(eq, solve_increasing(eq))


def _draws(face: Face) -> list:
    rng = random.Random(1)
    return [random_problem(rng, face=face) for _ in range(200)]


def test_root_solves_stay_within_the_evaluation_budget(monkeypatch):
    # Every root solve of all six cases on both faces, counted through the
    # name the inverse modules call it by.
    evals: dict[tuple[Face, str], list[int]] = {}
    face = Face.CONVECTIVE  # the face being solved, read by the wrapper

    def counting(original):
        def solve(eq: MonotoneEquation) -> float:
            calls = 0

            def f(x: float) -> float:
                nonlocal calls
                calls += 1
                return eq.f(x)

            root = original(dataclasses.replace(eq, f=f))
            evals.setdefault((face, eq.name), []).append(calls)
            return root

        return solve

    for module in (inverse_convective, inverse_dirichlet):
        monkeypatch.setattr(module, "solve_increasing", counting(module.solve_increasing))
    for face, solver in ((Face.CONVECTIVE, solve_convective_case), (Face.DIRICHLET, solve_dirichlet_case)):
        for prob in _draws(face):
            for case in UnknownCase:
                thermal, mushy, _ = prob.hide(case)
                solver(case, thermal, mushy, prob.boundary)

    # xi k/rho and xi c on both faces, eta R7 and R8 on the Dirichlet one
    assert len(evals) == 6
    for key, counts in evals.items():
        assert statistics.mean(counts) <= 12.0, key
        assert max(counts) <= 20, key


@pytest.mark.parametrize("face", list(Face))
def test_certificate_holds_from_outside(face):
    module = inverse_convective if face is Face.CONVECTIVE else inverse_dirichlet
    for prob in _draws(face):
        t, m, b = prob.thermal, prob.mushy, prob.boundary
        for eq in (
            module.xi_equation_kr(t, m, b),
            module.xi_equation_c(t, m, b),
            MonotoneEquation(f=xexp_sq, target=stefan_rhs(t, b), df=dxexp_sq),  # eta of R7
        ):
            root = solve_increasing(eq)
            assert_certified(eq, root)
            assert abs(root - brute_bisect(eq, 1e-8, 4.0)) <= 1e-12


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
