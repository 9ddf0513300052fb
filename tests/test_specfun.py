import math

import pytest
from hypothesis import example, given, strategies as st

from mushy.errors import DomainError, IllConditionedWarning
from mushy.specfun import erf, erf_inv, erfc

# Frozen via the independent series evaluation (tests/test_verify.py checks
# the two routes against each other on a dense grid).
ERF_ONE = 0.8427007929497149
ERF_HALF = 0.5204998778130465
ERF_INV_NEAR_HALF = 0.4999999999851538  # erf_inv of the 10-digit truncation
ERF_INV_NEAR_ONE = 3.4589107372696763


def test_erf_at_origin():
    assert erf(0.0) == 0.0


def test_erf_at_one():
    assert erf(1.0) == ERF_ONE


def test_erf_odd_symmetry_frozen_point():
    assert erf(-0.5) == -erf(0.5) == -ERF_HALF


def test_erfc_complements_erf():
    for x in (0.0, 0.3, 1.0, 2.5, -1.7):
        assert math.isclose(erfc(x), 1.0 - erf(x), rel_tol=0, abs_tol=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_erf_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        erf(bad)
    with pytest.raises(DomainError):
        erfc(bad)


def test_erf_inv_at_origin():
    assert erf_inv(0.0) == 0.0


def test_erf_inv_frozen_points():
    assert math.isclose(erf_inv(0.5204998778), ERF_INV_NEAR_HALF, rel_tol=0, abs_tol=1e-15)
    x = erf_inv(0.999999)
    assert math.isclose(x, ERF_INV_NEAR_ONE, rel_tol=0, abs_tol=1e-12)
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
