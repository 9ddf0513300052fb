import dataclasses
import hashlib
import math
import random
import statistics

import pytest
from hypothesis import given, strategies as st

from mushy import inverse_convective, inverse_dirichlet, solve_convective_case, solve_dirichlet_case
from mushy.direct import dxexp_sq, stefan_rhs, xexp_sq
from mushy.errors import BracketOverflowError, ConvergenceError, NoRootError, SolverError
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


def test_equation_record_is_a_frozen_dataclass():
    # the hand-written __init__ builds the record the generated one did
    eq = MonotoneEquation(xexp_sq, 2.0, 0.5, dxexp_sq, "x e^x^2")
    copy = dataclasses.replace(eq)
    assert copy is not eq and copy == eq and hash(copy) == hash(eq)
    assert eq == MonotoneEquation(f=xexp_sq, target=2.0, lower_limit=0.5, df=dxexp_sq, name="x e^x^2")
    assert dataclasses.replace(eq, target=3.0) == MonotoneEquation(xexp_sq, 3.0, 0.5, dxexp_sq, "x e^x^2")
    assert [field.name for field in dataclasses.fields(eq)] == ["f", "target", "lower_limit", "df", "name"]
    assert repr(MonotoneEquation(abs, 1.0)) == (
        "MonotoneEquation(f=<built-in function abs>, target=1.0, lower_limit=0.0, df=None, name='')"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        eq.target = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del eq.name
    with pytest.raises(TypeError):
        MonotoneEquation(f=xexp_sq)


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


def _floor_step(x: float) -> float:
    return float(math.floor(8.0 * x))


def test_tiny_evaluation_budget_raises():
    # An increasing step function jumps over its target at x = 0.375: the
    # bracket collapses onto the jump but the residual never enters its band.
    evals = 0

    def step(x: float) -> float:
        nonlocal evals
        evals += 1
        return _floor_step(x)

    with pytest.raises(ConvergenceError):
        solve_increasing(MonotoneEquation(f=step, target=2.5))
    assert evals == MAX_EVALS


def test_evaluation_budget_counts_the_bracket_expansion(monkeypatch):
    # The budget covers every evaluation of f, the expansion's included.
    monkeypatch.setattr("mushy.rootfind.MAX_EVALS", 3)
    seen = []

    def f(x: float) -> float:
        seen.append(x)
        return xexp_sq(x)

    with pytest.raises(ConvergenceError):
        solve_increasing(MonotoneEquation(f=f, target=1e300))
    assert seen == [1.0, 2.0, 4.0]


def _df_overflowing_past(x_max: float):
    """dxexp_sq below x_max, OverflowError above it."""

    def df(x: float) -> float:
        if x > x_max:
            raise OverflowError("math range error")
        return dxexp_sq(x)

    return df


def test_overflowing_derivative_falls_back_to_halving():
    # No Newton step is taken where df overflows, so past x = 1.5 (the root
    # is near 1.75) halving alone must close the bracket and certify.
    raised = []
    df = _df_overflowing_past(1.5)

    def counted_df(x: float) -> float:
        try:
            return df(x)
        except OverflowError:
            raised.append(x)
            raise

    eq = MonotoneEquation(f=xexp_sq, target=37.5, df=counted_df)
    root = solve_increasing(eq)
    assert raised and min(raised) > 1.5
    assert_certified(eq, root)
    assert abs(root - brute_bisect(eq, 1.0, 2.0)) <= 1e-12


def _exp_sq(x: float) -> float:
    return math.exp(x * x)


def _dexp_sq(x: float) -> float:
    return 2.0 * x * math.exp(x * x)


#: Equations off the families' path: a wrong derivative (Newton misled, the
#: far-side certificate fails), f and df overflowing, no derivative, a step
#: that exhausts MAX_EVALS, a bounded f, a derivative that raises, a root on
#: a bracket end and the targets rejected before any evaluation.
EDGE_EQUATIONS = (
    *(MonotoneEquation(f=xexp_sq, target=37.5, df=lambda x, s=s: s * dxexp_sq(x)) for s in (0.5, 2.0, 10.0)),
    *(MonotoneEquation(f=_exp_sq, target=t, df=df) for t in (10.0, 1e300) for df in (None, _dexp_sq)),
    MonotoneEquation(f=_floor_step, target=2.5),
    MonotoneEquation(f=math.atan, target=2.0),
    MonotoneEquation(f=xexp_sq, target=37.5, df=_df_overflowing_past(1.5)),
    MonotoneEquation(f=lambda x: x, target=2.0, df=lambda x: 1.0),
    MonotoneEquation(f=lambda x: x, target=math.nan),
    MonotoneEquation(f=lambda x: 1.0 + x, target=1.0, lower_limit=1.0),
)

#: sha256 of every f and df evaluation and every outcome of the solves below.
ITERATE_DIGEST = "fcd9faa5c6813c5c443e6a0eafca045251a5fc018debf63022fd318ac293e0c7"


# erf_inv near saturation warns for some l/gamma/epsilon draws at large xi
@pytest.mark.filterwarnings("ignore::mushy.errors.IllConditionedWarning")
def test_iterate_sequence_is_pinned(monkeypatch):
    # Every point at which the solver evaluates f or df, in order, and each
    # root (bit for bit) or error type: the six families through the name
    # the inverse modules call, at xi up to 5.5, then EDGE_EQUATIONS.  A
    # change to the solver that moves one iterate changes this digest.
    digest = hashlib.sha256()

    def traced(eq: MonotoneEquation) -> float:
        f, df = eq.f, eq.df

        def traced_f(x: float) -> float:
            digest.update(f"f {x.hex()}\n".encode())
            return f(x)

        def traced_df(x: float) -> float:
            digest.update(f"df {x.hex()}\n".encode())
            return df(x)

        try:
            root = solve_increasing(dataclasses.replace(eq, f=traced_f, df=None if df is None else traced_df))
        except SolverError as err:
            digest.update(f"{type(err).__name__}\n".encode())
            raise
        digest.update(f"root {root.hex()}\n".encode())
        return root

    for module in (inverse_convective, inverse_dirichlet):
        monkeypatch.setattr(module, "solve_increasing", traced)
    rng = random.Random(12)
    for face, solver in ((Face.CONVECTIVE, solve_convective_case), (Face.DIRICHLET, solve_dirichlet_case)):
        for _ in range(200):
            prob = random_problem(rng, face=face, xi_range=(0.05, 5.5))
            for case in UnknownCase:
                thermal, mushy, _ = prob.hide(case)
                try:
                    solver(case, thermal, mushy, prob.boundary)
                except SolverError:
                    pass
    for eq in EDGE_EQUATIONS:
        try:
            traced(eq)
        except SolverError:
            pass
    assert digest.hexdigest() == ITERATE_DIGEST


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
