import math
import sys

import oracle
import pytest

from mushy import inverse_convective as conv
from mushy.direct import face_argument, xexp_sq
from mushy.errors import NumericalError, RestrictionError
from mushy.model import BoundaryData, Face, MushyCoefficients, RestrictionReport, ThermalCoefficients, UnknownCase
from mushy.rootfind import solve_increasing
from mushy.specfun import erf_inv

from conftest import REF_KWARGS, XI_REF

# Frozen from the forward construction (oracle: substitute xi = 0.5 into the
# two consistency equations with unit thermal coefficients, eps=0.5,
# gamma=0.1, q0=1, h0=2).
L_REF = 1.4636343789756727
R1_RHS_REF = 2.8451240256511694     # h0 * d_inf


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


def test_stronger_zone_growth_shifts_the_root_down(convective_example):
    thermal, _, _ = convective_example.hide(UnknownCase.K)
    weak = conv.xi_equation_kr(thermal, MushyCoefficients(epsilon=0.5, gamma=1e-12), convective_example.boundary)
    strong = conv.xi_equation_kr(thermal, MushyCoefficients(epsilon=0.5, gamma=1.0), convective_example.boundary)
    assert weak.target == strong.target  # the datum side does not involve gamma
    assert solve_increasing(strong) < solve_increasing(weak)


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


# Valid data whose product rho c (k), rho k (l) or k rho c (gamma) underflows
# to 0, while the group it feeds, formed from the data's mantissas and
# exponents, need not; each once raised a bare ZeroDivisionError in the
# closed form.  The exact answer
# for k, at 60 digits, is 2.8e400, past the largest double.
PRODUCT_UNDERFLOW_ROWS = [
    (UnknownCase.K, ThermalCoefficients(l=1e-200, k=None, rho=1e-200, c=1e-200),
     MushyCoefficients(epsilon=0.5, gamma=0.1), BoundaryData(q0=1.0, d_inf=1.0, h0=2.0)),
    (UnknownCase.L, ThermalCoefficients(k=1e-200, rho=1e-200, c=1.0),
     MushyCoefficients(epsilon=0.5, gamma=1e199), BoundaryData(q0=1.0, d_inf=1e200, h0=2e-200)),
    (UnknownCase.GAMMA, ThermalCoefficients(l=1.0, k=1e-120, rho=1e-120, c=1e-120),
     MushyCoefficients(epsilon=0.5), BoundaryData(q0=1.0, d_inf=1.0, h0=2.0)),
]


@pytest.mark.parametrize("case, thermal, mushy, boundary", PRODUCT_UNDERFLOW_ROWS, ids=["k", "l", "gamma"])
def test_a_product_that_underflows_is_solved_or_names_the_value(case, thermal, mushy, boundary):
    # An answer is within 2 kappa u of the 60-digit one (kappa its condition
    # number over the known data); an exact answer that is no double is the
    # NumericalError naming the recovered value.
    data = {**vars(thermal), **vars(mushy), **vars(boundary)}
    if case is UnknownCase.K:
        assert oracle.root_cell(case.value, data) > sys.float_info.max
        with pytest.raises(NumericalError, match=f"the recovered {case.value} = inf is not a positive normal double"):
            conv.solve_case(case, thermal, mushy, boundary)
        return
    got = conv.solve_case(case, thermal, mushy, boundary)
    exact, kappa = oracle.face_cell_condition(case.value, data, got.xi)
    assert abs(float((got.value - exact) / exact)) <= 2.0 * float(kappa) * 2.0**-53


@pytest.mark.parametrize("case", list(UnknownCase), ids=lambda case: case.value)
def test_infinite_h0_outside_the_band_is_the_dirichlet_face(case):
    # h0 = inf is the Dirichlet limit that validate admits; with k = 1e100,
    # whose products reach past 2^250, h0 d_inf is inf and q0 / (h0 d_inf) is
    # split to 0, so each convective figure is the Dirichlet one bit for bit
    # (beta = 1).
    from mushy import inverse_dirichlet as diri
    from mushy.direct import consistency_residuals
    from mushy.manufacture import manufacture

    prob = manufacture(xi=0.5, k=1e100, rho=1.0, c=1.0, epsilon=0.5, gamma=0.1, q0=1.0, face=Face.DIRICHLET)
    thermal, mushy, _ = prob.hide(case)
    boundary = BoundaryData(q0=prob.boundary.q0, d_inf=prob.boundary.d_inf, h0=math.inf)
    got = conv.solve_case(case, thermal, mushy, boundary)
    expected = diri.solve_dirichlet_case(case, thermal, mushy, prob.boundary)
    assert (got.value, got.xi, got.solution) == (expected.value, expected.xi, expected.solution)
    assert all(report.satisfied for report in conv.check_all(case, thermal, mushy, boundary))
    assert consistency_residuals(prob.thermal, prob.mushy, boundary, got.xi, Face.CONVECTIVE) == consistency_residuals(
        prob.thermal, prob.mushy, prob.boundary, got.xi, Face.DIRICHLET)
