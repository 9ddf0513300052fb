import math
import warnings
from dataclasses import replace

import pytest

from mushy import inverse_convective as conv
from mushy.direct import face_argument, stefan_rhs, xexp_sq
from mushy.errors import IllConditionedWarning, RestrictionError
from mushy.manufacture import manufacture
from mushy.model import BoundaryData, Face, MushyCoefficients, RestrictionReport, ThermalCoefficients, UnknownCase
from mushy.rootfind import solve_increasing
from mushy.specfun import erf_inv

from conftest import REF_KWARGS, XI_REF

# Frozen from the forward construction (oracle: substitute xi = 0.5 into the
# two consistency equations with unit thermal coefficients, eps=0.5,
# gamma=0.1, q0=1, h0=2).
D_INF_REF = 1.4225620128255847
L_REF = 1.4636343789756727
R1_RHS_REF = 2.8451240256511694     # h0 * d_inf
F6_LOWER_REF = 0.9342576764013288   # small-x limit of the specific-heat equation


def test_reference_face_datum(convective_example):
    assert convective_example.boundary.d_inf == pytest.approx(D_INF_REF, rel=0, abs=1e-16)


def test_latent_heat_recovery_frozen(convective_example):
    thermal, mushy, truth = convective_example.hide(UnknownCase.L)
    result = conv.solve_case(UnknownCase.L, thermal, mushy, convective_example.boundary)
    assert abs(result.xi - XI_REF) <= 1e-13
    assert math.isclose(result.value, L_REF, rel_tol=1e-13)
    assert math.isclose(result.value, truth, rel_tol=1e-13)
    assert result.value > 0.0


def test_latent_heat_restriction_reports(convective_example):
    thermal, mushy, _ = convective_example.hide(UnknownCase.L)
    result = conv.solve_case(UnknownCase.L, thermal, mushy, convective_example.boundary)
    r1 = result.reports[0]
    assert (r1.restriction_id, r1.satisfied) == ("R1", True)
    assert r1.lhs == 1.0
    assert abs(r1.rhs - R1_RHS_REF) <= 1e-15
    assert [r.restriction_id for r in result.reports] == ["R1", "R2"]


def test_cooling_restriction_rejects_strong_flux(convective_example):
    thermal, mushy, _ = convective_example.hide(UnknownCase.L)
    boundary = BoundaryData(q0=2.5, d_inf=1.25, h0=2.0)  # q0 == h0 d_inf exactly
    with pytest.raises(RestrictionError) as err:
        conv.solve_case(UnknownCase.L, thermal, mushy, boundary)
    assert err.value.failed_ids() == ("R1",)


def test_face_argument_at_unity_rejected(convective_example):
    thermal, mushy, _ = convective_example.hide(UnknownCase.L)
    # datum placed so the argument of the inverse error function is 1 + 1e-9
    d_inf = 0.5 + math.sqrt(math.pi) * (1.0 + 1e-9)
    with pytest.raises(RestrictionError) as err:
        conv.solve_case(UnknownCase.L, thermal, mushy, BoundaryData(q0=1.0, d_inf=d_inf, h0=2.0))
    assert err.value.failed_ids() == ("R2",)


def test_zone_growth_recovery(convective_example):
    thermal, mushy, truth = convective_example.hide(UnknownCase.GAMMA)
    result = conv.solve_case(UnknownCase.GAMMA, thermal, mushy, convective_example.boundary)
    assert math.isclose(result.value, truth, rel_tol=1e-12)
    assert [r.restriction_id for r in result.reports] == ["R1", "R2", "R3"]


def test_zone_growth_composes_with_latent_heat_result(convective_example):
    # feed the recovered latent heat back in and identify gamma instead
    thermal_l, mushy_l, _ = convective_example.hide(UnknownCase.L)
    l_rec = conv.solve_case(UnknownCase.L, thermal_l, mushy_l, convective_example.boundary).value
    thermal = ThermalCoefficients(l=l_rec, k=1.0, rho=1.0, c=1.0)
    mushy = MushyCoefficients(epsilon=0.5, gamma=None)
    result = conv.solve_case(UnknownCase.GAMMA, thermal, mushy, convective_example.boundary)
    assert math.isclose(result.value, REF_KWARGS["gamma"], rel_tol=1e-12)


def test_zero_zone_growth_boundary(convective_example):
    thermal, mushy, _ = convective_example.hide(UnknownCase.GAMMA)
    xi = erf_inv(face_argument(thermal, convective_example.boundary, Face.CONVECTIVE))
    l_star = convective_example.boundary.q0 / xexp_sq(xi)  # unit k, rho, c
    near = ThermalCoefficients(l=l_star * (1.0 - 1e-9), k=1.0, rho=1.0, c=1.0)
    past = ThermalCoefficients(l=l_star * (1.0 + 1e-9), k=1.0, rho=1.0, c=1.0)
    ok = conv.solve_case(UnknownCase.GAMMA, near, mushy, convective_example.boundary)
    assert 0.0 < ok.value < 1e-6
    with pytest.raises(RestrictionError) as err:
        conv.solve_case(UnknownCase.GAMMA, past, mushy, convective_example.boundary)
    assert err.value.failed_ids() == ("R3",)


def test_zone_growth_scales_inversely_with_latent_fraction(convective_example):
    thermal, _, _ = convective_example.hide(UnknownCase.GAMMA)
    b = convective_example.boundary
    lo = conv.solve_case(UnknownCase.GAMMA, thermal, MushyCoefficients(epsilon=0.5, gamma=None), b)
    hi = conv.solve_case(UnknownCase.GAMMA, thermal, MushyCoefficients(epsilon=0.75, gamma=None), b)
    assert math.isclose(hi.value / lo.value, 2.0, rel_tol=1e-12)
    assert hi.xi == lo.xi


def test_latent_fraction_recovery(convective_example):
    thermal, mushy, truth = convective_example.hide(UnknownCase.EPSILON)
    result = conv.solve_case(UnknownCase.EPSILON, thermal, mushy, convective_example.boundary)
    assert math.isclose(result.value, truth, rel_tol=1e-12)
    assert 0.0 < result.value < 1.0
    assert [r.restriction_id for r in result.reports] == ["R1", "R2", "R3", "R4"]


def test_latent_fraction_composes_with_zone_growth(convective_example):
    thermal, mushy_g, _ = convective_example.hide(UnknownCase.GAMMA)
    gamma_rec = conv.solve_case(UnknownCase.GAMMA, thermal, mushy_g, convective_example.boundary).value
    result = conv.solve_case(
        UnknownCase.EPSILON, thermal, MushyCoefficients(epsilon=None, gamma=gamma_rec), convective_example.boundary
    )
    assert math.isclose(result.value, REF_KWARGS["epsilon"], rel_tol=1e-12)


def test_latent_fraction_sign_boundary(convective_example):
    thermal, _, _ = convective_example.hide(UnknownCase.EPSILON)
    # the recovered fraction changes sign where gamma equals the lumped
    # zone strength 0.05 of the reference data
    ok = conv.solve_case(
        UnknownCase.EPSILON, thermal, MushyCoefficients(epsilon=None, gamma=0.051), convective_example.boundary
    )
    assert 0.0 < ok.value < 0.05
    with pytest.raises(RestrictionError) as err:
        conv.solve_case(
            UnknownCase.EPSILON, thermal, MushyCoefficients(epsilon=None, gamma=0.049), convective_example.boundary
        )
    assert err.value.failed_ids() == ("R4",)


def test_conductivity_recovery(convective_example):
    thermal, mushy, truth = convective_example.hide(UnknownCase.K)
    result = conv.solve_case(UnknownCase.K, thermal, mushy, convective_example.boundary)
    assert math.isclose(result.value, truth, rel_tol=1e-12)
    assert abs(result.xi - XI_REF) <= 1e-12
    assert [r.restriction_id for r in result.reports] == ["R1"]


def test_conductivity_equation_root_matches_reference_front(convective_example):
    thermal, mushy, _ = convective_example.hide(UnknownCase.K)
    eq = conv.xi_equation_kr(thermal, mushy, convective_example.boundary)
    assert abs(solve_increasing(eq) - XI_REF) <= 1e-12


def test_stronger_zone_growth_shifts_the_root_down(convective_example):
    thermal, _, _ = convective_example.hide(UnknownCase.K)
    weak = conv.xi_equation_kr(thermal, MushyCoefficients(epsilon=0.5, gamma=1e-12), convective_example.boundary)
    strong = conv.xi_equation_kr(thermal, MushyCoefficients(epsilon=0.5, gamma=1.0), convective_example.boundary)
    assert weak.target == strong.target  # the datum side does not involve gamma
    assert solve_increasing(strong) < solve_increasing(weak)


def test_density_recovery_shares_the_front_equation(convective_example):
    thermal_k, mushy, _ = convective_example.hide(UnknownCase.K)
    thermal_rho, _, truth_rho = convective_example.hide(UnknownCase.RHO)
    k_result = conv.solve_case(UnknownCase.K, thermal_k, mushy, convective_example.boundary)
    rho_result = conv.solve_case(UnknownCase.RHO, thermal_rho, mushy, convective_example.boundary)
    assert rho_result.xi == k_result.xi  # identical equation, identical root
    assert math.isclose(rho_result.value, truth_rho, rel_tol=1e-12)


def test_density_scales_with_flux_squared(convective_example):
    thermal, mushy, _ = convective_example.hide(UnknownCase.RHO)
    b = convective_example.boundary
    base = conv.solve_case(UnknownCase.RHO, thermal, mushy, b)
    # doubling q0 and h0 leaves the attenuated datum (and hence xi) fixed
    scaled = conv.solve_case(
        UnknownCase.RHO, thermal, mushy, BoundaryData(q0=2.0 * b.q0, d_inf=b.d_inf, h0=2.0 * b.h0)
    )
    assert scaled.xi == base.xi
    assert math.isclose(scaled.value / base.value, 4.0, rel_tol=1e-12)


def test_specific_heat_recovery(convective_example):
    thermal, mushy, truth = convective_example.hide(UnknownCase.C)
    result = conv.solve_case(UnknownCase.C, thermal, mushy, convective_example.boundary)
    assert math.isclose(result.value, truth, rel_tol=1e-12)
    assert [r.restriction_id for r in result.reports] == ["R1", "R5"]


def test_specific_heat_equation_low_end_limit(convective_example):
    thermal, mushy, _ = convective_example.hide(UnknownCase.C)
    eq = conv.xi_equation_c(thermal, mushy, convective_example.boundary)
    assert abs(eq.lower_limit - F6_LOWER_REF) <= 1e-15
    assert abs(eq.f(1e-8) - eq.lower_limit) <= 1e-7


def test_specific_heat_existence_boundary(convective_example):
    _, mushy, _ = convective_example.hide(UnknownCase.C)
    b = convective_example.boundary
    beta_d_inf = b.d_inf - b.q0 / b.h0
    l_boundary = 2.0 * b.q0 * b.q0 / (beta_d_inf + 0.05)  # unit k, rho
    good = ThermalCoefficients(l=l_boundary * (1.0 - 1e-9), k=1.0, rho=1.0, c=None)
    bad = ThermalCoefficients(l=l_boundary * (1.0 + 1e-9), k=1.0, rho=1.0, c=None)
    assert conv.solve_case(UnknownCase.C, good, mushy, b).value > 0.0
    with pytest.raises(RestrictionError) as err:
        conv.solve_case(UnknownCase.C, bad, mushy, b)
    assert err.value.failed_ids() == ("R5",)


def test_face_determined_front_is_shared_bitwise(convective_example):
    results = []
    for case in (UnknownCase.L, UnknownCase.GAMMA, UnknownCase.EPSILON):
        thermal, mushy, _ = convective_example.hide(case)
        results.append(conv.solve_case(case, thermal, mushy, convective_example.boundary).xi)
    assert results[0] == results[1] == results[2]


# The restrictions of each convective case, as the paper lists them.
CASE_RESTRICTIONS = {
    UnknownCase.L: ("R1", "R2"),
    UnknownCase.GAMMA: ("R1", "R2", "R3"),
    UnknownCase.EPSILON: ("R1", "R2", "R3", "R4"),
    UnknownCase.K: ("R1",),
    UnknownCase.RHO: ("R1",),
    UnknownCase.C: ("R1", "R5"),
}


def test_dispatcher_routes_every_case(convective_example):
    for case in UnknownCase:
        thermal, mushy, truth = convective_example.hide(case)
        result = conv.solve_case(case, thermal, mushy, convective_example.boundary)
        assert result.case is case
        assert math.isclose(result.value, truth, rel_tol=1e-11)
        assert tuple(r.restriction_id for r in result.reports) == CASE_RESTRICTIONS[case]


def test_restriction_checks_stop_at_first_failure(convective_example):
    thermal, mushy, _ = convective_example.hide(UnknownCase.EPSILON)
    for thermal, boundary, ids in (
        (thermal, BoundaryData(q0=2.5, d_inf=1.25, h0=2.0), ("R1",)),  # R1 fails
        (replace(thermal, l=1.5 * thermal.l), convective_example.boundary, ("R1", "R2", "R3")),  # R3 fails
    ):
        reports = conv.check_all(UnknownCase.EPSILON, thermal, mushy, boundary)
        assert tuple(r.restriction_id for r in reports) == ids
        assert not reports[-1].satisfied
        with pytest.raises(RestrictionError) as err:
            conv.solve_case(UnknownCase.EPSILON, thermal, mushy, boundary)
        assert err.value.reports == reports


@pytest.mark.parametrize("verdicts, message", [
    ((True, False), "restriction(s) R2 violated"),
    ((False, True, False), "restriction(s) R1, R3 violated"),
])
def test_require_satisfied_names_every_failed_restriction(verdicts, message):
    reports = tuple(RestrictionReport(f"R{i}", ok, 1.0, 2.0) for i, ok in enumerate(verdicts, 1))
    with pytest.raises(RestrictionError) as err:
        conv.require_satisfied(reports)
    assert type(err.value) is RestrictionError
    assert str(err.value) == message
    assert err.value.reports == reports
    assert err.value.failed_ids() == tuple(r.restriction_id for r in reports if not r.satisfied)
    assert conv.require_satisfied(reports[:1] if verdicts[0] else ()) is None


@pytest.mark.parametrize("xi", [5.05, 5.3])
def test_saturated_face_warns_once_per_solve(xi):
    # Near erf saturation the face equation is ill conditioned; each l,
    # gamma and epsilon solve says so once, however many restrictions use xi.
    problem = manufacture(**dict(REF_KWARGS, xi=xi), h0=2.0)
    for case in conv.FACE_CASES:
        thermal, mushy, _ = problem.hide(case)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            conv.solve_case(case, thermal, mushy, problem.boundary)
        assert [w.category for w in caught] == [IllConditionedWarning], case
