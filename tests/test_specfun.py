import math
import random
import sys
import warnings
from fractions import Fraction

import oracle
import pytest
from hypothesis import example, given, strategies as st

from mushy import solve_convective_case, solve_dirichlet_case, specfun
from mushy.direct import face_argument
from mushy.errors import DomainError, IllConditionedWarning
from mushy.inverse_convective import FACE_CASES
from mushy.manufacture import random_problem
from mushy.model import Face, UnknownCase
from mushy.specfun import TWO_OVER_SQRT_PI, erf, erf_inv

# Frozen via the independent series evaluation (tests/test_verify.py checks
# the two routes against each other on a dense grid).
ERF_ONE = 0.8427007929497149
ERF_HALF = 0.5204998778130465
ERF_INV_NEAR_HALF = 0.4999999999851538  # erf_inv of the 10-digit truncation
ERF_INV_NEAR_ONE = 3.458910737275499  # erfinv(0.999999) to 50 digits (mpmath), rounded


def test_erf_at_origin():
    assert erf(0.0) == 0.0


def test_erf_at_one():
    assert erf(1.0) == ERF_ONE


def test_erf_odd_symmetry_frozen_point():
    assert erf(-0.5) == -erf(0.5) == -ERF_HALF


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_erf_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        erf(bad)


# Not a number, or a number no double holds: each is a DomainError naming
# the argument, as validate's ValidationError is for a coefficient.
NOT_A_DOUBLE = {"text": ("0.5", "must be a number"), "bytes": (b"0.5", "must be a number"),
                "true": (True, "must be a number"), "false": (False, "must be a number"),
                "none": (None, "must be a number"), "complex": (1j, "must be a number"),
                "int-above": (10**400, "must fit in a double"), "int-below": (-10**400, "must fit in a double")}


@pytest.mark.parametrize("value, message", NOT_A_DOUBLE.values(), ids=NOT_A_DOUBLE)
@pytest.mark.parametrize("function, name", [(erf, "x"), (erf_inv, "y")])
def test_public_kernels_take_only_a_number_in_double_range(function, name, value, message):
    with pytest.raises(DomainError, match=f"^{name} {message}"):
        function(value)


def test_public_kernels_take_an_int_or_a_real_number_type():
    assert erf(1) == erf(1.0) == ERF_ONE
    assert erf(Fraction(1, 2)) == ERF_HALF
    assert erf_inv(0) == 0.0
    assert erf_inv(Fraction(ERF_HALF)) == erf_inv(ERF_HALF)


def test_erf_inv_at_origin():
    assert erf_inv(0.0) == 0.0
    # erf is odd and erf(-0.0) is -0.0, so the inverse keeps the sign of zero
    assert math.copysign(1.0, erf_inv(0.0)) == 1.0
    assert math.copysign(1.0, erf_inv(-0.0)) == -1.0


def test_erf_inv_frozen_points():
    assert math.isclose(erf_inv(0.5204998778), ERF_INV_NEAR_HALF, rel_tol=0, abs_tol=1e-15)
    x = erf_inv(0.999999)
    # every x with erf(x) == 0.999999 lies within ulp(0.999999) / erf'(x) of the true value
    width = math.ulp(0.999999) / (2.0 / math.sqrt(math.pi) * math.exp(-ERF_INV_NEAR_ONE**2))
    assert math.isclose(x, ERF_INV_NEAR_ONE, rel_tol=0, abs_tol=width)
    assert erf(x) == 0.999999


def test_erf_inv_exact_half_argument():
    assert math.isclose(erf_inv(ERF_HALF), 0.5, rel_tol=0, abs_tol=1e-15)


@pytest.mark.parametrize("y", [1.0, -1.0, 1.5, -2.0, math.nan])
def test_erf_inv_domain_errors(y):
    with pytest.raises(DomainError):
        erf_inv(y)


def test_erf_inv_warns_near_saturation():
    with pytest.warns(IllConditionedWarning):
        x = erf_inv(1.0 - 1e-13)
    assert math.isfinite(x) and x > 0


@given(st.floats(min_value=-0.999999, max_value=0.999999))
@example(0.999999)
@example(-0.999999)
@example(1e-300)
def test_erf_inv_round_trip(y):
    assert abs(erf(erf_inv(y)) - y) <= 1e-13


#: erfinv to 50 digits (mpmath), rounded, from the smallest subnormal to just
#: below 1e-300, where erf is linear to far under half an ulp.
ERF_INV_TINY = [
    (5e-324, 5e-324),
    (1e-320, 8.864e-321),
    (1e-310, 8.8622692545277e-311),
    (sys.float_info.min, 1.9719203645301425e-308),
    (1e-305, 8.86226925452758e-306),
    (1e-302, 8.86226925452758e-303),
]


@pytest.mark.parametrize("y, expected", ERF_INV_TINY)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_erf_inv_is_within_an_ulp_down_to_the_smallest_subnormal(y, expected, sign):
    # the round trip's absolute 1e-13 cannot see an error of 1e20 ulps here
    assert abs(erf_inv(sign * y) - sign * expected) <= math.ulp(expected)


@given(st.floats(min_value=-5.0, max_value=5.0))
@example(0.0)
def test_erf_odd(x):
    assert erf(-x) == -erf(x)


def test_erf_strictly_increasing_on_grid():
    grid = [i / 64.0 for i in range(-256, 257)]
    values = [erf(x) for x in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_erf_inv_monotone():
    ys = [i / 100.0 for i in range(-99, 100)]
    xs = [erf_inv(y) for y in ys]
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_erf_inv_stays_below_six_so_the_decay_of_recover_is_normal():
    # inverse_convective._recover forms e**(-2 xi^2) for gamma and epsilon
    # from xi = erf_inv of a face argument below 1, and splits no power of
    # it: that holds while xi < 6, where e**(-2 xi^2) > e**-72 is normal.
    with pytest.warns(IllConditionedWarning):
        top = erf_inv(math.nextafter(1.0, 0.0))
    assert top < 6.0
    assert math.exp(-72.0) >= sys.float_info.min


def test_erf_inv_runs_once_per_face_case_solve(monkeypatch):
    # l, gamma and epsilon read xi off the face equation once; k, rho and c
    # solve a front equation and never invert erf.
    calls = 0

    def counting(y: float) -> float:
        nonlocal calls
        calls += 1
        return erf_inv(y)

    monkeypatch.setattr(specfun, "erf_inv", counting)
    for face, solver in ((Face.CONVECTIVE, solve_convective_case), (Face.DIRICHLET, solve_dirichlet_case)):
        rng = random.Random(1)
        for _ in range(200):
            problem = random_problem(rng, face=face)
            for case in UnknownCase:
                thermal, mushy, _ = problem.hide(case)
                calls = 0
                solver(case, thermal, mushy, problem.boundary)
                assert calls == (1 if case in FACE_CASES else 0), (face, case)


# The kernel against 50 digits (tests/oracle.py).  The rounding floor of a
# double answer x to erf(x) = y is ulp(y)/erf'(x) + ulp(x): the spread of
# the x whose erf rounds to y, plus x's own rounding.  Measured worst over
# the 1e5 points below: 0.69 of the floor, with 40% of the answers within
# half an ulp.


def _floor(y, x):
    return math.ulp(y) / (TWO_OVER_SQRT_PI * math.exp(-x * x)) + math.ulp(x)


#: math.erf's worst error against 50 digits, in ulps: the libm allowance a
#: certified bound takes as given.  Measured on the points below with glibc
#: 2.36: 1.04 ulp, at x = 0.0486 (erf 0.0548).
LIBM_ERF_ULPS = 2.0


def test_erf_inv_is_within_the_rounding_floor_of_50_digits():
    # 1e5 points: 5e4 uniform in x in (0, 5.9] (erf rounds to 1 a little
    # above 5.86), which reach the saturation that uniform y almost never
    # does, and 5e4 uniform in y in (0, 1).
    rng = random.Random(22)
    ys = [y for y in (math.erf(rng.uniform(0.0, 5.9)) for _ in range(50_000)) if y < 1.0]
    ys += [y for y in (rng.random() for _ in range(50_000)) if y >= 2.0**-100]
    assert len(ys) > 99_000
    worst, worst_erf = 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for y in ys:
            x = erf_inv(y)
            worst = max(worst, abs(oracle.erf_inv_error(y, x)) / _floor(y, x))
            e = math.erf(x)
            worst_erf = max(worst_erf, abs(oracle.scaled(e) - oracle.erf_scaled(x)) / oracle.scaled(math.ulp(e)))
    assert worst <= 1.0, worst
    assert worst_erf <= LIBM_ERF_ULPS, worst_erf


def test_erf_inv_is_within_the_rounding_floor_over_the_tiny_decades():
    # Three points in each decade from 1e-300 to 1e-1, against mpmath's
    # 50-digit erf directly; below 1e-300 the inverse is one product.
    rng = random.Random(23)
    for decade in range(-300, 0):
        for _ in range(3):
            y = rng.uniform(1.0, 10.0) * 10.0**decade
            x = erf_inv(y)
            assert abs(float(x - oracle.erf_inv(y, start=x))) <= _floor(y, x), y


def test_oracle_fast_paths_agree_with_mpmath():
    # erf_scaled against mpmath's erf to its 50 digits, and erf_inv_error
    # against mpmath's erfinv, on points up to erf's saturation.
    rng = random.Random(24)
    xs = [rng.uniform(0.0, 5.86) for _ in range(150)] + [0.0, 1.0 / 128, 6.0]
    for x in xs:
        unit = 2**oracle.FRACTION_BITS
        assert abs(oracle.erf_scaled(x) - oracle.erf(x) * unit) <= 1e-49 * unit, x
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for y in [math.erf(x) for x in xs[:100] if 0.0 < math.erf(x) < 1.0]:
            x = erf_inv(y)
            exact = float(x - oracle.erf_inv(y))
            assert math.isclose(oracle.erf_inv_error(y, x), exact, rel_tol=1e-6, abs_tol=1e-30), y


class _CountingMath:
    """The math module, counting erf calls."""

    def __init__(self):
        self.erf_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def erf(self, x):
        self.erf_calls += 1
        return math.erf(x)


def test_erf_inv_evaluation_budget_on_face_arguments(monkeypatch):
    # Giles' start is within ~1e-7 below x = 3.5, so one Halley step, one
    # erf evaluation, meets the stop rule on the face arguments every
    # face-determined solve inverts.
    counting = _CountingMath()
    monkeypatch.setattr(specfun, "math", counting)
    calls = []
    for face in Face:
        rng = random.Random(1)
        for _ in range(200):
            problem = random_problem(rng, face=face)
            y = face_argument(problem.thermal, problem.boundary, face)
            counting.erf_calls = 0
            erf_inv(y)
            calls.append(counting.erf_calls)
    assert sum(calls) / len(calls) <= 1.5, sum(calls) / len(calls)
    assert max(calls) <= 3, max(calls)
