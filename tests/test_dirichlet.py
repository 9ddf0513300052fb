import math
import random

import pytest

from mushy import inverse_convective as conv
from mushy import inverse_dirichlet as diri
from mushy.errors import NoRootError, RestrictionError
from mushy.manufacture import manufacture, random_problem
from mushy.model import BoundaryData, Face, MushyCoefficients, ThermalCoefficients, UnknownCase
from mushy.rootfind import solve_increasing

from conftest import XI_REF

D_INF_REF = 0.9225620128255848      # sqrt(pi) erf(0.5): unit coefficients
ETA_UNIT_TARGET = 0.6529186404192053  # root of x e**x^2 = 1, frozen by bisection

UNIT_THERMAL = ThermalCoefficients(l=1.0, k=1.0, rho=1.0, c=1.0)


def test_reference_face_datum(dirichlet_example):
    assert dirichlet_example.boundary.d_inf == pytest.approx(D_INF_REF, rel=0, abs=1e-16)
    assert dirichlet_example.boundary.h0 is None


def test_all_cases_round_trip(dirichlet_example):
    for case in UnknownCase:
        thermal, mushy, truth = dirichlet_example.hide(case)
        result = diri.solve_dirichlet_case(case, thermal, mushy, dirichlet_example.boundary)
        assert math.isclose(result.value, truth, rel_tol=1e-11), case
        assert abs(result.xi - XI_REF) <= 1e-12
        assert tuple(r.restriction_id for r in result.reports) == diri.applicable_restrictions(case)


def test_datum_too_large_rejected(dirichlet_example):
    thermal, mushy, _ = dirichlet_example.hide(UnknownCase.L)
    boundary = BoundaryData(q0=1.0, d_inf=math.sqrt(math.pi) * (1.0 + 1e-9), h0=None)
    with pytest.raises(RestrictionError) as err:
        diri.solve_dirichlet_case(UnknownCase.L, thermal, mushy, boundary)
    assert err.value.failed_ids() == ("R6",)


def test_positive_growth_bound_root_frozen():
    boundary = BoundaryData(q0=1.0, d_inf=0.5, h0=None)  # d_inf unused by the root
    eta = diri.solve_eta_r7(UNIT_THERMAL, boundary)
    assert abs(eta - ETA_UNIT_TARGET) <= 1e-12


def test_bound_roots_coincide_when_growth_vanishes():
    boundary = BoundaryData(q0=1.0, d_inf=0.5, h0=None)
    mushy = MushyCoefficients(epsilon=0.5, gamma=1e-300)
    eta7 = diri.solve_eta_r7(UNIT_THERMAL, boundary)
    eta8 = diri.solve_eta_r8(UNIT_THERMAL, mushy, boundary)
    assert abs(eta7 - eta8) <= 1e-12


def test_positive_fraction_bound_has_no_root_for_strong_growth():
    boundary = BoundaryData(q0=1.0, d_inf=0.5, h0=None)
    mushy = MushyCoefficients(epsilon=0.5, gamma=3.0)  # g = 1.5 exceeds the balance value 1
    with pytest.raises(NoRootError):
        diri.solve_eta_r8(UNIT_THERMAL, mushy, boundary)


def test_vacuous_fraction_bound_is_satisfied_with_note():
    boundary = BoundaryData(q0=1.0, d_inf=0.5, h0=None)
    mushy = MushyCoefficients(epsilon=0.5, gamma=3.0)
    report = diri.check_r8(UNIT_THERMAL, mushy, boundary)
    assert report.satisfied
    assert report.lhs == 0.0
    assert "no positive root" in report.note


def test_round_trip_through_the_vacuous_regime():
    # strong growth and a large latent fraction: the auxiliary bound root
    # does not exist, yet the data are perfectly consistent
    prob = manufacture(xi=0.5, k=1.0, rho=1.0, c=1.0, epsilon=0.8, gamma=2.5, q0=1.0, face=Face.DIRICHLET)
    thermal, mushy, truth = prob.hide(UnknownCase.EPSILON)
    result = diri.solve_dirichlet_case(UnknownCase.EPSILON, thermal, mushy, prob.boundary)
    assert math.isclose(result.value, truth, rel_tol=1e-11)
    r8 = {r.restriction_id: r for r in result.reports}["R8"]
    assert r8.satisfied and r8.note


def test_repaired_specific_heat_restriction_keeps_printed_form(dirichlet_example):
    thermal, mushy, _ = dirichlet_example.hide(UnknownCase.C)
    report = diri.check_r9(thermal, mushy, dirichlet_example.boundary)
    assert report.satisfied
    assert "printed as" in report.note and "D_0" in report.note


def test_specific_heat_existence_boundary(dirichlet_example):
    _, mushy, _ = dirichlet_example.hide(UnknownCase.C)
    b = dirichlet_example.boundary
    l_boundary = 2.0 * b.q0 * b.q0 / (b.d_inf + 0.05)  # unit k, rho
    good = ThermalCoefficients(l=l_boundary * (1.0 - 1e-9), k=1.0, rho=1.0, c=None)
    bad = ThermalCoefficients(l=l_boundary * (1.0 + 1e-9), k=1.0, rho=1.0, c=None)
    assert diri.solve_dirichlet_case(UnknownCase.C, good, mushy, b).value > 0.0
    with pytest.raises(RestrictionError) as err:
        diri.solve_dirichlet_case(UnknownCase.C, bad, mushy, b)
    assert err.value.failed_ids() == ("R9",)


def test_front_equation_vanishes_at_the_origin(dirichlet_example):
    thermal, mushy, _ = dirichlet_example.hide(UnknownCase.K)
    eq = diri.xi_equation_kr(thermal, mushy, dirichlet_example.boundary)
    assert eq.lower_limit == 0.0
    assert 0.0 < eq.f(1e-8) < 1e-15  # any positive target admits a root


def test_face_determined_front_is_shared_bitwise(dirichlet_example):
    xis = []
    for case in (UnknownCase.L, UnknownCase.GAMMA, UnknownCase.EPSILON):
        thermal, mushy, _ = dirichlet_example.hide(case)
        xis.append(diri.solve_dirichlet_case(case, thermal, mushy, dirichlet_example.boundary).xi)
    assert xis[0] == xis[1] == xis[2]


def test_conductivity_and_density_share_the_front_equation(dirichlet_example):
    thermal_k, mushy, _ = dirichlet_example.hide(UnknownCase.K)
    thermal_rho, _, _ = dirichlet_example.hide(UnknownCase.RHO)
    rk = diri.solve_dirichlet_case(UnknownCase.K, thermal_k, mushy, dirichlet_example.boundary)
    rr = diri.solve_dirichlet_case(UnknownCase.RHO, thermal_rho, mushy, dirichlet_example.boundary)
    assert rk.xi == rr.xi


def test_specific_heat_front_equation_root(dirichlet_example):
    thermal, mushy, _ = dirichlet_example.hide(UnknownCase.C)
    eq = diri.xi_equation_c(thermal, mushy, dirichlet_example.boundary)
    assert abs(solve_increasing(eq) - XI_REF) <= 1e-12
    expected_low = 0.5 * math.sqrt(math.pi) + 0.05 * math.sqrt(math.pi) / (2.0 * dirichlet_example.boundary.d_inf)
    assert eq.lower_limit == pytest.approx(expected_low, rel=1e-14)


def test_infinite_transfer_reproduces_prescribed_temperature(dirichlet_example):
    # the Dirichlet recovery is the convective one at beta = 1, which h0 = inf
    # produces exactly, so the two must agree to the last bit
    problems = [dirichlet_example]
    problems += [random_problem(random.Random(seed), face=Face.DIRICHLET) for seed in range(200)]
    for prob in problems:
        b = prob.boundary
        inf_boundary = BoundaryData(q0=b.q0, d_inf=b.d_inf, h0=math.inf)
        for case in UnknownCase:
            thermal, mushy, _ = prob.hide(case)
            via_limit = conv.solve_case(case, thermal, mushy, inf_boundary)
            direct = diri.solve_dirichlet_case(case, thermal, mushy, b)
            assert (via_limit.xi, via_limit.value) == (direct.xi, direct.value), (case, prob)


def test_limit_study_converges_at_first_order(dirichlet_example):
    thermal, mushy, _ = dirichlet_example.hide(UnknownCase.GAMMA)
    study = diri.limit_study(
        UnknownCase.GAMMA, thermal, mushy, dirichlet_example.boundary, (10.0, 100.0, 1000.0, 10000.0)
    )
    assert abs(study.xi_dirichlet - XI_REF) <= 1e-13
    assert not study.excluded
    assert study.fitted_slope == pytest.approx(-1.0, abs=0.1)
    deltas = [abs(x - study.xi_dirichlet) for x in study.xi_conv]
    assert deltas == sorted(deltas, reverse=True)  # monotone approach


def test_limit_study_excludes_insufficient_transfer(dirichlet_example):
    thermal, mushy, _ = dirichlet_example.hide(UnknownCase.GAMMA)
    study = diri.limit_study(
        UnknownCase.GAMMA, thermal, mushy, dirichlet_example.boundary, (0.5, 10.0, 100.0, 1000.0)
    )
    assert len(study.excluded) == 1
    h0, reports = study.excluded[0]
    assert h0 == 0.5
    assert [r.restriction_id for r in reports if not r.satisfied] == ["R1"]
    assert len(study.h0_grid) == 3
