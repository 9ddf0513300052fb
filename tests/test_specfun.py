import math
import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from mushy import solve_convective_case, solve_dirichlet_case, specfun
from mushy.errors import DomainError, IllConditionedWarning
from mushy.inverse_convective import FACE_CASES
from mushy.manufacture import random_problem
from mushy.model import Face, UnknownCase
from mushy.specfun import erf, erf_inv

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
