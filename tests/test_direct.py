import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from mushy.direct import (
    build_solution,
    consistency_residuals,
    face_argument,
    face_factor,
    front_balance,
    front_r,
    front_r_velocity,
    front_s,
    front_s_velocity,
    temperature,
    temperature_gradient,
    xexp_sq,
)
from mushy.errors import DomainError, NumericalError, ValidationError
from mushy.manufacture import random_problem
from mushy.model import (
    BoundaryData,
    Face,
    MushyCoefficients,
    SimilaritySolution,
    ThermalCoefficients,
    UnknownCase,
    with_coefficient,
)
from mushy.rootfind import solve_increasing
from mushy.specfun import erf

from conftest import REF_KWARGS, XI_REF

SQRT_PI = 1.7724538509055159
A_REF = -0.9225620128255848        # -sqrt(pi) erf(0.5), frozen via the series route
MU_REF = 0.5642012708343871        # 0.5 + 0.05 e**0.25
T_MID_REF = -0.43278623846507314   # profile at x = s(1)/2, frozen via the series route


def _random_cases(n, seed=7):
    rng = random.Random(seed)
    return [random_problem(rng, face=f) for _ in range(n) for f in (Face.CONVECTIVE, Face.DIRICHLET)]


@pytest.fixture(scope="module")
def ref_solution(convective_example):
    p = convective_example
    return build_solution(p.thermal, p.mushy, p.boundary, p.xi)


def test_amplitudes_and_liquid_front_frozen(ref_solution):
    assert ref_solution.b_coef == SQRT_PI
    assert abs(ref_solution.a_coef - A_REF) <= 1e-16
    assert abs(ref_solution.mu - MU_REF) <= 1e-16
    assert ref_solution.alpha == 1.0


def test_vanishing_zone_strength_collapses_the_zone():
    thermal = ThermalCoefficients(l=1.0, k=1.0, rho=1.0, c=1.0)
    boundary = BoundaryData(q0=1.0, d_inf=1.4226, h0=2.0)

    mushy = MushyCoefficients(epsilon=0.5, gamma=1e-12)
    sol = build_solution(thermal, mushy, boundary, 0.5)
    assert 0.5 < sol.mu < 0.5 + 1e-12

    # below representability the zone width rounds to zero, which the
    # strict s(t) < r(t) ordering refuses
    mushy = MushyCoefficients(epsilon=0.5, gamma=1e-300)
    with pytest.raises(ValidationError):
        build_solution(thermal, mushy, boundary, 0.5)


def test_amplitude_ratio_identity():
    for prob in _random_cases(20):
        sol = build_solution(prob.thermal, prob.mushy, prob.boundary, prob.xi)
        assert math.isclose(sol.a_coef / sol.b_coef, -erf(sol.xi), rel_tol=1e-14)


def test_front_balance_recovers_the_manufactured_front():
    # The direct problem: xi from the front balance alone, the face datum unused.
    for prob in _random_cases(500, seed=3):
        xi = solve_increasing(front_balance(prob.thermal, prob.mushy, prob.boundary))
        assert abs(xi - prob.xi) <= 1e-12, prob


def test_value_fills_the_unknown_as_the_completed_record_does():
    # In every face x case cell, the value handed to build_solution gives the
    # solution of the records completed with it, field for field, bit for bit.
    for prob in _random_cases(100, seed=23):
        for case in UnknownCase:
            thermal, mushy, value = prob.hide(case)
            filled = build_solution(thermal, mushy, prob.boundary, prob.xi, value)
            completed = build_solution(*with_coefficient(thermal, mushy, case, value), prob.boundary, prob.xi)
            assert [x.hex() for x in filled] == [x.hex() for x in completed], (prob, case)


_UNIT_THERMAL = ThermalCoefficients(l=1.0, k=1.0, rho=1.0, c=1.0)
_UNIT_MUSHY = MushyCoefficients(epsilon=0.5, gamma=0.1)
_UNIT_BOUNDARY = BoundaryData(q0=1.0, d_inf=1.0)
_B_COEF_INF = (ThermalCoefficients(l=1.0, k=1e-200, rho=1e-100, c=1.0), MushyCoefficients(epsilon=0.5, gamma=1e300),
               BoundaryData(q0=1e160, d_inf=1.0))
_TINY_RHO_C = ThermalCoefficients(l=1.0, k=1.0, rho=1e-200, c=1e-200)
_XI_MESSAGE = "xi must be positive and finite, got "

# build_solution's data and xi, its error and message, and the figures
# (b_coef, xi, mu, alpha) of a SimilaritySolution that fails the same check
# (None where the record holds).  Where two figures fail, the first of xi,
# mu > xi, b_coef and alpha is named.  A figure whose products leave the
# range is split, so each row's failing figures are past the range exactly.
BAD_FIGURE_ROWS = {
    "0.0": (_UNIT_THERMAL, _UNIT_MUSHY, _UNIT_BOUNDARY, 0.0, DomainError, _XI_MESSAGE + "0.0", (1.0, 0.0, 0.6, 1.0)),
    "-0.5": (_UNIT_THERMAL, _UNIT_MUSHY, _UNIT_BOUNDARY, -0.5, DomainError, _XI_MESSAGE + "-0.5",
             (1.0, -0.5, 0.6, 1.0)),
    "nan": (_UNIT_THERMAL, _UNIT_MUSHY, _UNIT_BOUNDARY, math.nan, DomainError, _XI_MESSAGE + "nan",
            (1.0, math.nan, 0.6, 1.0)),
    "inf": (_UNIT_THERMAL, _UNIT_MUSHY, _UNIT_BOUNDARY, math.inf, DomainError, _XI_MESSAGE + "inf",
            (1.0, math.inf, 0.6, 1.0)),
    # e**(xi^2) overflows at xi = -30: xi is checked before any figure
    "xi-before-figures": (_UNIT_THERMAL, _UNIT_MUSHY, _UNIT_BOUNDARY, -30.0, DomainError, _XI_MESSAGE + "-30.0",
                          (1.0, -30.0, 0.6, 1.0)),
    "xi-before-b-coef": (*_B_COEF_INF, math.nan, DomainError, _XI_MESSAGE + "nan", (math.inf, math.nan, 0.6, 1.0)),
    # rho c underflows to 0, which alpha = k / (rho c) divides by
    "xi-before-rho-c": (_TINY_RHO_C, _UNIT_MUSHY, _UNIT_BOUNDARY, math.nan, DomainError, _XI_MESSAGE + "nan",
                        (1.0, math.nan, 0.6, 1.0)),
    # there alpha is split, and its 1e400 is past the range (b_coef = 1.8e200, mu = 1.14)
    "rho-c-underflow": (_TINY_RHO_C, MushyCoefficients(epsilon=0.5, gamma=1e200), _UNIT_BOUNDARY, 0.5,
                        ValidationError, "alpha must be positive and finite, got inf", (1.0, 0.5, 0.6, math.inf)),
    "mu-equals-xi": (_UNIT_THERMAL, MushyCoefficients(epsilon=0.5, gamma=1e-300), _UNIT_BOUNDARY, 0.5,
                     ValidationError, "mu must exceed xi, got mu=0.5 xi=0.5", (1.0, 0.5, 0.5, 1.0)),
    # k rho c and 2 q0 overflow: the zone term is split, 6.4e-109, below half an ulp of xi
    "mu-split-below-an-ulp": (ThermalCoefficients(l=1.0, k=1e200, rho=1e200, c=1.0),
                              MushyCoefficients(epsilon=0.5, gamma=1.0), BoundaryData(q0=1e308, d_inf=1.0), 0.5,
                              ValidationError, "mu must exceed xi, got mu=0.5 xi=0.5", (1.0, 0.5, 0.5, 1.0)),
    "mu-before-b-coef": (_B_COEF_INF[0], MushyCoefficients(epsilon=0.5, gamma=1e-300), _B_COEF_INF[2], 0.5,
                         ValidationError, "mu must exceed xi, got mu=0.5 xi=0.5", (math.inf, 0.5, 0.5, 1.0)),
    "b-coef-inf": (*_B_COEF_INF, 0.5, ValidationError, "b_coef must be positive and finite, got inf",
                   (math.inf, 0.5, 0.6, 1.0)),
    "b-coef-zero": (ThermalCoefficients(l=1.0, k=1e150, rho=1e150, c=1.0), MushyCoefficients(epsilon=0.5, gamma=1e-200),
                    BoundaryData(q0=1e-180, d_inf=1.0), 0.5, ValidationError,
                    "b_coef must be positive and finite, got 0.0", (0.0, 0.5, 0.6, 1.0)),
    # alpha and b_coef both past the range: alpha = 1e-700 and b_coef = 1.8e-330, then alpha =
    # 1e310 and b_coef = 1.8e309
    "b-coef-before-alpha-zero": (ThermalCoefficients(l=1.0, k=1e-300, rho=1e200, c=1e200),
                                 MushyCoefficients(epsilon=0.5, gamma=1e300), BoundaryData(q0=1e-280, d_inf=1.0), 0.5,
                                 ValidationError, "b_coef must be positive and finite, got 0.0", (0.0, 0.5, 0.6, 0.0)),
    "b-coef-before-alpha-inf": (ThermalCoefficients(l=1.0, k=1e-10, rho=1e-160, c=1e-160),
                                MushyCoefficients(epsilon=0.5, gamma=1e300), BoundaryData(q0=1e144, d_inf=1.0), 0.5,
                                ValidationError, "b_coef must be positive and finite, got inf",
                                (math.inf, 0.5, 0.6, math.inf)),
    "b-coef-before-mu-inf": (ThermalCoefficients(l=1.0, k=1e200, rho=1e200, c=1.0),
                             MushyCoefficients(epsilon=0.5, gamma=1.0), BoundaryData(q0=1e-130, d_inf=1.0), 0.5,
                             ValidationError, "b_coef must be positive and finite, got 0.0",
                             (0.0, 0.5, math.inf, 1.0)),
    # the zone term gamma sqrt(k rho c) e**xi^2 / (2 q0) is 6.4e309
    "mu-inf": (ThermalCoefficients(l=1.0, k=1e200, rho=1e200, c=1e200), MushyCoefficients(epsilon=0.5, gamma=1e10),
               _UNIT_BOUNDARY, 0.5, NumericalError, "the liquid front mu leaves the range of a double", None),
    # e**(xi^2) overflows past xi = 26.64: mu is inf, raised after the record's checks
    "mu-inf-from-xi": (_UNIT_THERMAL, _UNIT_MUSHY, _UNIT_BOUNDARY, 27.0, NumericalError,
                       "the liquid front mu leaves the range of a double", None),
    "b-coef-before-mu-inf-from-xi": (ThermalCoefficients(l=1.0, k=1e150, rho=1e150, c=1.0),
                                     MushyCoefficients(epsilon=0.5, gamma=1e-200), BoundaryData(q0=1e-180, d_inf=1.0),
                                     27.0, ValidationError, "b_coef must be positive and finite, got 0.0",
                                     (0.0, 27.0, math.inf, 1.0)),
}


@pytest.mark.parametrize("name", BAD_FIGURE_ROWS)
def test_build_solution_rejects_bad_front(name):
    # build_solution checks each figure of the record once, in the record's
    # order; the record itself raises the same ValidationError for the same
    # figure, whatever build_solution raises for it.
    thermal, mushy, boundary, xi, error, message, figures = BAD_FIGURE_ROWS[name]
    with pytest.raises(error) as built:
        build_solution(thermal, mushy, boundary, xi)
    assert type(built.value) is error and str(built.value) == message
    if figures is not None:
        b_coef, xi, mu, alpha = figures
        with pytest.raises(ValidationError) as recorded:
            SimilaritySolution(a_coef=-1.0, b_coef=b_coef, xi=xi, mu=mu, alpha=alpha)
        assert str(recorded.value) == message


def test_temperature_vanishes_on_the_front(ref_solution):
    value, region = temperature(ref_solution, front_s(ref_solution, 1.0), 1.0)
    assert value == 0.0
    assert type(region) is str
    assert region == "solid"


def test_face_temperature_equals_attenuated_datum(convective_example, ref_solution):
    value, region = temperature(ref_solution, 0.0, 1.0)
    b = convective_example.boundary
    assert region == "solid"
    assert math.isclose(value, -(b.d_inf - b.q0 / b.h0), rel_tol=1e-14)
    assert value == ref_solution.a_coef


def test_mid_solid_profile_frozen(ref_solution):
    value, region = temperature(ref_solution, front_s(ref_solution, 1.0) / 2.0, 1.0)
    assert region == "solid"
    assert abs(value - T_MID_REF) <= 1e-15
    assert value < 0.0


def test_region_tags_cover_the_three_zones(ref_solution):
    t = 2.0
    s, r = front_s(ref_solution, t), front_r(ref_solution, t)
    assert 0.0 < s < r
    assert temperature(ref_solution, 0.5 * s, t)[1] == "solid"
    mid_value, mid_region = temperature(ref_solution, 0.5 * (s + r), t)
    assert (mid_value, mid_region) == (0.0, "mushy")
    far_value, far_region = temperature(ref_solution, 2.0 * r, t)
    assert (far_value, far_region) == (0.0, "liquid")


def test_fronts_start_at_zero_and_scale_with_sqrt_t(ref_solution):
    assert front_s(ref_solution, 0.0) == 0.0
    assert front_r(ref_solution, 0.0) == 0.0
    assert front_s(ref_solution, 4.0) / front_s(ref_solution, 1.0) == 2.0
    assert front_r(ref_solution, 4.0) / front_r(ref_solution, 1.0) == 2.0
    assert front_s(ref_solution, 1.0) == 2.0 * XI_REF  # alpha = 1


def test_front_velocities_differentiate_the_fronts(ref_solution):
    for t in (0.25, 1.0, 9.0):
        assert math.isclose(2.0 * t * front_s_velocity(ref_solution, t), front_s(ref_solution, t), rel_tol=1e-14)
        assert math.isclose(2.0 * t * front_r_velocity(ref_solution, t), front_r(ref_solution, t), rel_tol=1e-14)


def test_fronts_and_profile_stay_finite_where_alpha_t_leaves_the_double_range(ref_solution):
    # alpha = 4: alpha t overflows at t = 1e308 and alpha / t at t = 5e-324,
    # and alpha t underflows for alpha = t = 1e-300; the roots do not
    sol = ref_solution._replace(alpha=4.0)
    assert front_s(sol, 1e308) == 2e154
    assert front_r(sol, 1e308) == 4.0 * sol.mu * 1e154
    assert front_s_velocity(sol, 5e-324) == sol.xi * 2.0 / math.sqrt(5e-324)
    assert front_r_velocity(sol, 5e-324) == sol.mu * 2.0 / math.sqrt(5e-324)
    # T and dT/dx depend on x / sqrt(t): (1e154, 1e308) is (1, 1) rescaled
    assert temperature(sol, 1e154, 1e308) == temperature(sol, 1.0, 1.0)
    assert temperature_gradient(sol, 1e154, 1e308) == temperature_gradient(sol, 1.0, 1.0) / 1e154
    tiny = ref_solution._replace(alpha=1e-300)
    assert front_s(tiny, 1e-300) == 2.0 * XI_REF * 1e-300
    assert temperature(tiny, 0.5e-300, 1e-300) == temperature(ref_solution, 0.5, 1.0)


@pytest.mark.parametrize("op", [front_s, front_r])
def test_fronts_reject_negative_time(op, ref_solution):
    with pytest.raises(DomainError):
        op(ref_solution, -1.0)


@pytest.mark.parametrize("op", [front_s_velocity, front_r_velocity])
def test_front_velocities_reject_t_zero(op, ref_solution):
    with pytest.raises(DomainError):
        op(ref_solution, 0.0)


def test_profile_operations_reject_t_zero(ref_solution):
    for op in (temperature, temperature_gradient):
        with pytest.raises(DomainError):
            op(ref_solution, 0.1, 0.0)


def test_temperature_rejects_negative_position(ref_solution):
    with pytest.raises(DomainError):
        temperature(ref_solution, -0.1, 1.0)


def test_gradient_vanishes_beyond_the_solid(ref_solution):
    t = 1.0
    x = 1.5 * front_s(ref_solution, t)
    assert temperature_gradient(ref_solution, x, t) == 0.0


def test_imposed_flux_identity():
    # k dT/dx at the fixed face must reproduce the q0/sqrt(t) datum.
    for prob in _random_cases(15):
        sol = build_solution(prob.thermal, prob.mushy, prob.boundary, prob.xi)
        for t in (0.3, 1.0, 5.0):
            flux = prob.thermal.k * temperature_gradient(sol, 0.0, t)
            assert math.isclose(flux, prob.boundary.q0 / math.sqrt(t), rel_tol=1e-13)


def test_zone_width_gradient_identity():
    # dT/dx at s(t) times the zone width reproduces gamma.
    for prob in _random_cases(15):
        sol = build_solution(prob.thermal, prob.mushy, prob.boundary, prob.xi)
        for t in (0.3, 1.0, 5.0):
            s, r = front_s(sol, t), front_r(sol, t)
            # sample a hair inside the solid: exactly at s(t) the rounded
            # similarity variable can fall on the zero side of the front
            width_times_gradient = temperature_gradient(sol, s * (1.0 - 1e-12), t) * (r - s)
            assert math.isclose(width_times_gradient, prob.mushy.gamma, rel_tol=1e-9)


def test_manufactured_data_have_tiny_residuals():
    for prob in _random_cases(25):
        res = consistency_residuals(prob.thermal, prob.mushy, prob.boundary, prob.xi, prob.face)
        assert abs(res.res_stefan) <= 1e-13
        assert abs(res.res_face) <= 1e-13


def test_front_perturbation_shows_up_as_face_residual(convective_example):
    p = convective_example
    res = consistency_residuals(p.thermal, p.mushy, p.boundary, p.xi + 0.1, Face.CONVECTIVE)
    expected = (erf(p.xi + 0.1) - erf(p.xi)) / erf(p.xi)  # relative to the face argument, erf(xi)
    assert res.res_face > 0.0
    assert math.isclose(res.res_face, expected, rel_tol=0, abs_tol=1e-13)


def test_infinite_h0_reproduces_the_prescribed_temperature_face(dirichlet_example):
    p = dirichlet_example
    inf_boundary = BoundaryData(q0=p.boundary.q0, d_inf=p.boundary.d_inf, h0=math.inf)
    assert face_factor(inf_boundary, Face.CONVECTIVE) == 1.0
    conv = consistency_residuals(p.thermal, p.mushy, inf_boundary, p.xi, Face.CONVECTIVE)
    diri = consistency_residuals(p.thermal, p.mushy, p.boundary, p.xi, Face.DIRICHLET)
    assert conv == diri  # bit-for-bit: the attenuation factor is exactly 1


@given(st.floats(min_value=0.01, max_value=3.0), st.floats(min_value=0.01, max_value=3.0))
@settings(max_examples=60)
def test_xexp_strictly_increasing(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    assert xexp_sq(lo) < xexp_sq(hi)


def test_face_argument_consistency(convective_example):
    p = convective_example
    assert math.isclose(face_argument(p.thermal, p.boundary, Face.CONVECTIVE), erf(p.xi), rel_tol=1e-14)
