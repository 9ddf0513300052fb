import dataclasses
import hashlib
import math
import random
import statistics

import oracle
import pytest
from hypothesis import given, strategies as st

from mushy import direct, inverse_convective, inverse_dirichlet, solve_convective_case, solve_dirichlet_case
from mushy.direct import dxexp_sq, stefan_rhs, xexp_sq
from mushy.errors import BracketOverflowError, ConvergenceError, NoRootError, NumericalError, SolverError
from mushy.manufacture import random_problem
from mushy.model import BoundaryData, Face, MushyCoefficients, ThermalCoefficients, UnknownCase, with_coefficient
from mushy.rootfind import BRACKET_CAP, MAX_EVALS, REL_TOL, MonotoneEquation, solve_increasing
from mushy.verify import brute_bisect

from conftest import assert_value_or_solver_error

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
    lies within REL_TOL * x of x on either side, and the residual is within
    REL_TOL * |target|, at every scale."""
    width = REL_TOL * x
    assert eq.f(x - width) - eq.target <= 0.0 <= eq.f(x + width) - eq.target
    assert abs(eq.f(x) - eq.target) <= REL_TOL * abs(eq.target)


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
    evals: dict[tuple[Face, str], list[tuple[int, int]]] = {}
    face = Face.CONVECTIVE  # the face being solved, read by the wrapper

    def counting(original):
        def solve(eq: MonotoneEquation) -> float:
            calls = d_calls = 0

            def f(x: float) -> float:
                nonlocal calls
                calls += 1
                return eq.f(x)

            def df(x: float) -> float:
                nonlocal d_calls
                d_calls += 1
                return eq.df(x)

            root = original(dataclasses.replace(eq, f=f, df=df))
            evals.setdefault((face, eq.name), []).append((calls, d_calls))
            return root

        return solve

    for module in (inverse_convective, inverse_dirichlet):
        monkeypatch.setattr(module, "solve_increasing", counting(module.solve_increasing))
    for face, solver in ((Face.CONVECTIVE, solve_convective_case), (Face.DIRICHLET, solve_dirichlet_case)):
        for prob in _draws(face):
            for case in UnknownCase:
                thermal, mushy, _ = prob.hide(case)
                solver(case, thermal, mushy, prob.boundary)

    # xi k/rho and xi c on both faces, eta R7 and R8 on the Dirichlet one.
    # Measured: per family, f 3.2-4.6 on average and at most 6, df 2.1-3.3
    # and at most 4; the bounds leave a margin of about half an evaluation
    # on the mean and one on the maximum.
    assert len(evals) == 6
    for key, counts in evals.items():
        f_counts, df_counts = zip(*counts)
        assert statistics.mean(f_counts) <= 5.0 and max(f_counts) <= 7, key
        assert statistics.mean(df_counts) <= 3.75 and max(df_counts) <= 5, key


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
    eq = MonotoneEquation(xexp_sq, 2.0, 0.5, dxexp_sq, "x e^x^2", 0.75)
    copy = dataclasses.replace(eq)
    assert copy is not eq and copy == eq and hash(copy) == hash(eq)
    assert eq == MonotoneEquation(f=xexp_sq, target=2.0, lower_limit=0.5, df=dxexp_sq, name="x e^x^2", start=0.75)
    assert dataclasses.replace(eq, target=3.0) == MonotoneEquation(xexp_sq, 3.0, 0.5, dxexp_sq, "x e^x^2", 0.75)
    # a copy with counting f and df, as the tracer and the tests make, keeps the start
    assert dataclasses.replace(eq, f=abs, df=None).start == 0.75
    assert dataclasses.replace(eq, start=1.5) == MonotoneEquation(xexp_sq, 2.0, 0.5, dxexp_sq, "x e^x^2", 1.5)
    assert [field.name for field in dataclasses.fields(eq)] == ["f", "target", "lower_limit", "df", "name", "start"]
    assert repr(MonotoneEquation(abs, 1.0)) == (
        "MonotoneEquation(f=<built-in function abs>, target=1.0, lower_limit=0.0, df=None, name='', start=1.0)"
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


def test_expansion_grows_from_the_start(monkeypatch):
    # Below 0.25 the upper end takes the square root, from there it
    # doubles, and it stops at BRACKET_CAP, where f is evaluated once.
    monkeypatch.setattr("mushy.rootfind.MAX_EVALS", 4)
    seen = []

    def f(x: float) -> float:
        seen.append(x)
        return xexp_sq(x)

    with pytest.raises(ConvergenceError):
        solve_increasing(MonotoneEquation(f=f, target=1e300, start=0.0625))
    assert seen == [0.0625, 0.25, 0.5, 1.0]
    seen.clear()

    def bounded(x: float) -> float:
        seen.append(x)
        return math.atan(x)

    with pytest.raises(BracketOverflowError):
        solve_increasing(MonotoneEquation(f=bounded, target=2.0, start=30.0))
    assert seen == [30.0, BRACKET_CAP]


@pytest.mark.parametrize("start", [5e-324, 1e-300, 1e-3, 0.5, 1.7505464654782141, 2.0, 39.9,
                                   math.nan, math.inf, -1.0, 0.0, BRACKET_CAP, 1e300])
def test_any_start_gives_the_certified_root(start):
    # The start only saves evaluations: from anywhere in (0, 40), and from a
    # value the solver replaces by 1.0, the root is the same and certified.
    eq = MonotoneEquation(f=xexp_sq, target=37.5, df=dxexp_sq, start=start)
    root = solve_increasing(eq)
    assert_certified(eq, root)
    assert abs(root - brute_bisect(eq, 1.0, 2.0, 0.0)) <= 1e-15 * root


@pytest.mark.parametrize("target", [1e-300, 1e-100, 1e-20, 1e-5])
def test_tiny_roots_are_certified_relative_to_their_scale(target):
    # x^2 = target from a start twice the root: the parent's absolute
    # certificate returned anything below 1e-6 for these.
    root = math.sqrt(target)
    eq = MonotoneEquation(f=lambda x: x * x, target=target, df=lambda x: 2.0 * x, start=2.0 * root)
    found = solve_increasing(eq)
    assert_certified(eq, found)
    assert abs(found - root) <= 4e-16 * root


def test_targets_and_roots_outside_the_normal_range_raise_numerical_error():
    # Not NoRootError, ConvergenceError or a root a relative certificate
    # cannot describe: a NumericalError that names the equation.
    for eq in (
        MonotoneEquation(f=lambda x: x, target=1e-310, name="subnormal target"),
        MonotoneEquation(f=lambda x: x, target=0.0, lower_limit=-1.0, name="zero target"),
        MonotoneEquation(f=lambda x: 1e20 * x, target=1e-300, df=lambda x: 1e20, start=1e-300, name="subnormal root"),
        MonotoneEquation(f=lambda x: 1e20 * x, target=1e-300, start=1e-310, name="subnormal start above the root"),
    ):
        with pytest.raises(NumericalError, match=eq.name) as info:
            solve_increasing(eq)
        assert type(info.value) is NumericalError, eq.name


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@given(_ANY_FLOAT, _ANY_FLOAT)
def test_the_starts_take_any_parameters_without_raising(weight, target):
    # A start is a hint: for any pair of doubles, the root-free and the
    # out-of-range ones included, the four families' starts return a float
    # (which the solver replaces by 1.0 when it lies outside (0, 40)).
    starts = (
        inverse_convective._kr_start(weight, target),
        inverse_convective._c_start(weight, target, 0.5 * math.sqrt(math.pi) + weight),
        direct._balance_start(weight, target, direct.xexp_sq_start(target)),
        direct.xexp_sq_start(target),
    )
    assert all(type(start) is float for start in starts), starts


def test_edge_equations_keep_their_outcome_types():
    outcomes = []
    for eq in EDGE_EQUATIONS:
        try:
            solve_increasing(eq)
        except SolverError as err:
            outcomes.append(type(err).__name__)
        else:
            outcomes.append("root")
    assert outcomes == ["root"] * 7 + ["ConvergenceError", "BracketOverflowError", "root", "root",
                                       "NoRootError", "NoRootError"]


def _log_uniform_draws(n: int) -> list:
    """The wide-range recipe: ``n`` draws from random.Random(1), each l, k,
    rho, c, gamma, q0, d_inf and h0 log-uniform on [1e-200, 1e200], then
    epsilon uniform on [0.01, 0.99]."""
    rng = random.Random(1)
    low, high = math.log(1e-200), math.log(1e200)
    rows = []
    for _ in range(n):
        l, k, rho, c, gamma, q0, d_inf, h0 = (math.exp(rng.uniform(low, high)) for _ in range(8))
        rows.append((ThermalCoefficients(l=l, k=k, rho=rho, c=c),
                     MushyCoefficients(epsilon=rng.uniform(0.01, 0.99), gamma=gamma), q0, d_inf, h0))
    return rows


#: Draw 19972 (counted from 0) of oracle.wide_range_draws(20000, 1) on the
#: Dirichlet face, k and rho unknown: the zone weight cf = 1.8e308 sits at the
#: top of the double range and the xi-equation target 1.6e-263 near the
#: bottom.  The start's 2/sqrt(pi) + (4/pi) cf overflowed, so the start read
#: 0.0 and the solve halved from 1 toward the root near 2.7e-286 until it
#: raised ConvergenceError.
ZONE_WEIGHT_AT_THE_TOP = (
    ThermalCoefficients(l=3.6988958216786957e+67, k=4.3279448533326554e+191, rho=5.796978166229207e-144,
                        c=1.8316649121997645e-60),
    MushyCoefficients(epsilon=0.5243490048159825, gamma=2.4495402550847373e+173),
    BoundaryData(q0=1.1255381068497322e+93, d_inf=5.786850667967079e-136))


@pytest.mark.filterwarnings("ignore::mushy.errors.IllConditionedWarning")
def test_wide_range_data_never_exhaust_the_budget():
    # Every case of 3,000 wide-range draws on both faces (36,000 solves),
    # and the two Dirichlet cases of ZONE_WEIGHT_AT_THE_TOP.  A tiny root is
    # certified relative to its scale, and a root or target outside the
    # normal range is a NumericalError, so no solve raises ConvergenceError
    # (an absolute certificate raised it 1,422 times, all from the k/rho xi
    # equations).  A solve that returns gives a positive finite value, never
    # inf, and neither a solve nor a restriction pass raises anything but a
    # SolverError.
    rows = [(face, case, *with_coefficient(thermal, mushy, case, None),
             BoundaryData(q0=q0, d_inf=d_inf, h0=h0 if face is Face.CONVECTIVE else None))
            for thermal, mushy, q0, d_inf, h0 in _log_uniform_draws(3000) for face in Face for case in UnknownCase]
    thermal, mushy, boundary = ZONE_WEIGHT_AT_THE_TOP
    rows += [(Face.DIRICHLET, case, *with_coefficient(thermal, mushy, case, None), boundary)
             for case in (UnknownCase.K, UnknownCase.RHO)]
    assert_value_or_solver_error(rows)


def test_a_zone_weight_at_the_top_of_the_range_gets_a_start():
    # The k/rho start takes sqrt(T) / sqrt(2/sqrt(pi) + (4/pi) cf) without
    # forming the sum where it overflows.  k is then right to the rounding
    # of its 60-digit value (oracle.root_cell); rho's alpha = k / (rho c)
    # is past the double range, which the solve names.
    thermal, mushy, boundary = ZONE_WEIGHT_AT_THE_TOP
    result = solve_dirichlet_case(UnknownCase.K, with_coefficient(thermal, mushy, UnknownCase.K, None)[0], mushy,
                                  boundary)
    exact = oracle.root_cell("k", {**vars(thermal), "k": None, **vars(mushy), "q0": boundary.q0,
                                   "d_inf": boundary.d_inf}, result.xi)
    assert result.value == 1.0141533912622565e+89 == float(exact)
    with pytest.raises(NumericalError, match="alpha must be positive and finite, got inf"):
        solve_dirichlet_case(UnknownCase.RHO, with_coefficient(thermal, mushy, UnknownCase.RHO, None)[0], mushy,
                             boundary)


#: The FOUND example of a wrong answer at exit 0: Dirichlet k whose
#: xi-equation target, 4.1e-108, lay below the absolute certificate, so the
#: parent returned xi = 5.6e-13 and k = 2.72e160.  At 60 digits xi is
#: 1.916e-54 and k 3.185e77.
TINY_XI_K = (ThermalCoefficients(l=1.135478063248678e147, rho=2.9445831883773983e78, c=8.335477851169083e39),
             MushyCoefficients(epsilon=0.11028382371896195, gamma=4.252030354012643e-8),
             BoundaryData(q0=2.3074794062796044e151, d_inf=1.0))


def _oracle_root(eq: MonotoneEquation, near: float):
    """The root of the double-valued equation ``eq`` of one of the four
    families, at 60 digits; their builders hold cf or the strength in the
    closure of f, and eta_r7's f is xexp_sq itself."""
    if eq.f is xexp_sq:
        return oracle.balance_root(0.0, eq.target, near)
    free = dict(zip(eq.f.__code__.co_freevars, (cell.cell_contents for cell in eq.f.__closure__)))
    if eq.name == "xi equation (k/rho case)":
        return oracle.kr_root(free["cf"], eq.target, near)
    if eq.name == "xi equation (c case)":
        return oracle.c_root(free["cf"], eq.target, near)
    return oracle.balance_root(free["strength"], eq.target, near)


#: Bound on a root's relative error in units of u (1 + |T / (x f'(x))|):
#: rounding of f at the root moves it by u |T / (x f'(x))| relatively, and
#: rounding x itself by u.  The worst measured is 2.4.
ROOT_ERROR_UNITS = 4.0


def test_roots_match_a_60_digit_oracle(monkeypatch):
    # Every root solve of all six cases of 200 draws per face and of the
    # tiny-xi Dirichlet k example, against the exact root of the same
    # double-valued equation.
    solved = []

    def recording(eq: MonotoneEquation) -> float:
        root = solve_increasing(eq)
        solved.append((eq, root))
        return root

    for module in (inverse_convective, inverse_dirichlet):
        monkeypatch.setattr(module, "solve_increasing", recording)
    for face, solver in ((Face.CONVECTIVE, solve_convective_case), (Face.DIRICHLET, solve_dirichlet_case)):
        for prob in _draws(face):
            for case in UnknownCase:
                thermal, mushy, _ = prob.hide(case)
                solver(case, thermal, mushy, prob.boundary)
    solve_dirichlet_case(UnknownCase.K, *TINY_XI_K)
    assert len(solved) == 1770 and {eq.name for eq, _ in solved} == {
        "xi equation (k/rho case)", "xi equation (c case)",
        "eta equation (positive-gamma bound)", "eta equation (positive-epsilon bound)"}
    u = 2.0**-53
    for eq, root in solved:
        exact = _oracle_root(eq, root)
        units = u * (1.0 + abs(eq.target / (root * eq.df(root))))
        assert abs(float((root - exact) / exact)) <= ROOT_ERROR_UNITS * units, (eq.name, eq.target, root)


#: Dirichlet k at xi = 2.6e-115, where q0 erf(xi) = 7e-319 lies below the
#: normal range: the closed form divided by d_inf after that product and
#: returned k 1.8e-6 off.
SUBNORMAL_AMPLITUDE_K = (
    ThermalCoefficients(l=1.0951506813949545e-54, rho=1.5014840046724202e-220, c=1.873861668840711e-05),
    MushyCoefficients(epsilon=0.7562772649972856, gamma=2.365946768551153e-134),
    BoundaryData(q0=2.4877207109703555e-204, d_inf=6.811512371381119e-207))


@pytest.mark.parametrize("data", [TINY_XI_K, SUBNORMAL_AMPLITUDE_K], ids=["tiny-target", "subnormal-amplitude"])
def test_a_tiny_front_position_gives_the_right_coefficient(data):
    # The library answers within 1e-10 of 60 digits computed from the same
    # double data; the parent returned k = 2.72e160 for the first.
    thermal, mushy, boundary = data
    result = solve_dirichlet_case(UnknownCase.K, thermal, mushy, boundary)
    mp = oracle.MP60
    d_inf = mp.mpf(boundary.d_inf)
    cf = mp.mpf(mushy.gamma) * mp.sqrt(mp.pi) * (1 - mp.mpf(mushy.epsilon)) / (2 * d_inf)
    xi = oracle.kr_root(cf, mp.mpf(thermal.c) * d_inf / (mp.mpf(thermal.l) * mp.sqrt(mp.pi)), result.xi)
    k = mp.pi / (mp.mpf(thermal.rho) * mp.mpf(thermal.c)) * (mp.mpf(boundary.q0) * mp.erf(xi) / d_inf) ** 2
    assert abs(float(result.xi / xi) - 1.0) <= 1e-14
    assert abs(float(result.value / k) - 1.0) <= 1e-10


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
ITERATE_DIGEST = "f6107096174a7756c355d60097c4dc76a11a370b791ee20966ac6013604e8927"


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
