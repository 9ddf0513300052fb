import math

import pytest
from hypothesis import given, strategies as st

from mushy.direct import build_solution, front_s, xexp_sq
from mushy.errors import DomainError, NumericalError
from mushy.model import BoundaryData, Face, MushyCoefficients, SimilaritySolution, ThermalCoefficients
from mushy.rootfind import MonotoneEquation
from mushy.verify import (
    CONDITION_IDS,
    brute_bisect,
    condition_residuals,
    pde_residual,
    reference_erf,
)

ERF_ONE = 0.8427007929497149
ETA_UNIT_TARGET = 0.6529186404192053


@pytest.fixture(scope="module")
def ref_solution(convective_example):
    p = convective_example
    return build_solution(p.thermal, p.mushy, p.boundary, p.xi)


def test_series_erf_frozen_points():
    assert reference_erf(0.0) == 0.0
    assert reference_erf(1.0) == ERF_ONE
    assert reference_erf(-1.0) == -ERF_ONE


def test_series_erf_agrees_with_production_route():
    # dense spot check; the acceptance suite runs the full 1000-point grid
    for i in range(-120, 121):
        x = i / 40.0
        assert abs(reference_erf(x) - math.erf(x)) <= 1e-14


def test_series_erf_saturates_cleanly():
    # an ulp of overshoot is inherent to plain summation near saturation
    assert abs(reference_erf(6.0) - 1.0) <= 1e-15


@pytest.mark.parametrize("bad", [math.nan, 6.5, -7.0, math.inf])
def test_series_erf_domain(bad):
    with pytest.raises(DomainError):
        reference_erf(bad)


def test_bisection_frozen_root():
    eq = MonotoneEquation(f=xexp_sq, target=1.0)
    assert abs(brute_bisect(eq, 0.0, 1.0) - ETA_UNIT_TARGET) <= 1e-13


def test_bisection_handles_decreasing_orientation():
    eq = MonotoneEquation(f=lambda x: -x, target=-2.0)
    assert abs(brute_bisect(eq, 0.0, 5.0) - 2.0) <= 1e-13


def test_bisection_requires_a_sign_change():
    eq = MonotoneEquation(f=xexp_sq, target=100.0)
    with pytest.raises(DomainError):
        brute_bisect(eq, 0.0, 1.0)


def test_bisection_width_floor_is_harmless():
    eq = MonotoneEquation(f=lambda x: x, target=0.3)
    assert brute_bisect(eq, 0.0, 1.0, width=0.0) == pytest.approx(0.3, abs=1e-15)


def test_heat_equation_residual_is_second_order_small(ref_solution):
    s1 = front_s(ref_solution, 1.0)
    grid = pde_residual(ref_solution, [0.4 * s1, 0.5 * s1, 0.6 * s1], [1.0], fd_step=1e-4)
    assert grid.pde_residual_max < 1e-7
    assert grid.fd_step == 1e-4


def test_heat_equation_residual_shrinks_quadratically(ref_solution):
    s1 = front_s(ref_solution, 1.0)
    xs = [0.4 * s1, 0.5 * s1, 0.6 * s1]
    coarse = pde_residual(ref_solution, xs, [1.0], fd_step=1e-2).pde_residual_max
    fine = pde_residual(ref_solution, xs, [1.0], fd_step=1e-3).pde_residual_max
    assert 30.0 < coarse / fine < 300.0  # nominal ratio 100


def test_stencils_must_stay_inside_the_solid(ref_solution):
    s1 = front_s(ref_solution, 1.0)
    with pytest.raises(DomainError):
        pde_residual(ref_solution, [0.999 * s1], [1.0], fd_step=1e-2)
    with pytest.raises(DomainError):
        pde_residual(ref_solution, [1.5 * s1], [1.0])
    with pytest.raises(DomainError):
        pde_residual(ref_solution, [0.001 * s1], [1.0], fd_step=1e-2)  # x - dx < 0
    tiny = 1e-320  # t * fd_step and the squared space step underflow to zero
    with pytest.raises(DomainError):
        pde_residual(ref_solution, [0.5 * front_s(ref_solution, tiny)], [tiny])


@pytest.mark.parametrize("fd", [0.0, -1e-3, 0.5, 0.7, 1e-300])  # 1e-300: dx * dx underflows
def test_step_fraction_domain(ref_solution, fd):
    with pytest.raises(DomainError):
        pde_residual(ref_solution, [0.5], [1.0], fd_step=fd)


def test_empty_grids_rejected(ref_solution):
    with pytest.raises(DomainError):
        pde_residual(ref_solution, [], [1.0])
    with pytest.raises(DomainError):
        pde_residual(ref_solution, [0.5], [])
    with pytest.raises(DomainError):
        condition_residuals(
            ref_solution,
            ThermalCoefficients(l=1.0, k=1.0, rho=1.0, c=1.0),
            MushyCoefficients(epsilon=0.5, gamma=0.1),
            BoundaryData(q0=1.0, d_inf=1.4226, h0=2.0),
            [],
            Face.CONVECTIVE,
        )


def test_condition_identifiers_are_stable():
    assert CONDITION_IDS == ("pde", "fusion_at_s", "stefan", "mushy_width", "flux", "face")


def test_solved_data_meet_every_condition(convective_example, ref_solution):
    p = convective_example
    grid = condition_residuals(ref_solution, p.thermal, p.mushy, p.boundary, [0.5, 1.0, 2.0], Face.CONVECTIVE)
    assert set(grid.condition_residuals) == set(CONDITION_IDS[1:])
    for name, value in grid.condition_residuals.items():
        assert value <= 1e-12, name


def test_front_perturbation_trips_exactly_the_front_conditions(convective_example):
    p = convective_example
    shifted = build_solution(p.thermal, p.mushy, p.boundary, p.xi + 1e-3)
    grid = condition_residuals(shifted, p.thermal, p.mushy, p.boundary, [1.0], Face.CONVECTIVE)
    res = grid.condition_residuals
    # the profile meets the fusion, width and flux conditions for any front
    assert res["fusion_at_s"] <= 1e-12
    assert res["mushy_width"] <= 1e-12
    assert res["flux"] <= 1e-12
    # but the front balance and the face exchange notice the shift
    assert res["stefan"] > 1e-4
    assert res["face"] > 1e-4


def test_infinite_exchange_uses_the_limit_face_form(dirichlet_example):
    p = dirichlet_example
    sol = build_solution(p.thermal, p.mushy, p.boundary, p.xi)
    inf_boundary = BoundaryData(q0=p.boundary.q0, d_inf=p.boundary.d_inf, h0=math.inf)
    conv = condition_residuals(sol, p.thermal, p.mushy, inf_boundary, [1.0], Face.CONVECTIVE)
    diri = condition_residuals(sol, p.thermal, p.mushy, p.boundary, [1.0], Face.DIRICHLET)
    assert conv.condition_residuals["face"] == diri.condition_residuals["face"]
    assert math.isfinite(conv.condition_residuals["face"])


def test_an_underflowing_conducted_flux_is_a_numerical_error(convective_example):
    # At xi = 30, e^{-xi^2} underflows to 0 and so does k dT/dx at s(t), the
    # Stefan residual's scale: a NumericalError, not a ZeroDivisionError.
    p = convective_example
    sol = SimilaritySolution(a_coef=-1.0, b_coef=1.0, xi=30.0, mu=31.0, alpha=1.0)
    with pytest.raises(NumericalError, match="conducted flux .* range of a double"):
        condition_residuals(sol, p.thermal, p.mushy, p.boundary, [1.0], Face.CONVECTIVE)


@given(st.floats(min_value=0.05, max_value=2.9))
def test_series_erf_odd_and_bounded(x):
    value = reference_erf(x)
    assert reference_erf(-x) == -value
    assert 0.0 < value < 1.0
