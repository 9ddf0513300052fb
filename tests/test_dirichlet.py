import math
import random
import warnings

import pytest

from mushy import inverse_convective as conv
from mushy import inverse_dirichlet as diri
from mushy import specfun
from mushy.direct import face_argument
from mushy.errors import IllConditionedWarning, NoRootError, RestrictionError, SolverError
from mushy.manufacture import manufacture, random_problem
from mushy.model import BoundaryData, Face, MushyCoefficients, ThermalCoefficients, UnknownCase, with_coefficient
from mushy.rootfind import solve_increasing

from conftest import OUT_OF_RANGE_ROWS, XI_REF

D_INF_REF = 0.9225620128255848      # sqrt(pi) erf(0.5): unit coefficients
ETA_UNIT_TARGET = 0.6529186404192053  # root of x e**x^2 = 1, frozen by bisection
ETA_R8_FAR = 20.082304769727949912  # root of (x + 5e-151 e**x^2) e**x^2 = 1e200, 50 digits (mpmath), rounded

UNIT_THERMAL = ThermalCoefficients(l=1.0, k=1.0, rho=1.0, c=1.0)


def test_reference_face_datum(dirichlet_example):
    assert dirichlet_example.boundary.d_inf == pytest.approx(D_INF_REF, rel=0, abs=1e-16)
    assert dirichlet_example.boundary.h0 is None


# The restrictions of each Dirichlet case, as the paper lists them; k and
# rho carry none.
CASE_RESTRICTIONS = {
    UnknownCase.L: ("R6",),
    UnknownCase.GAMMA: ("R7",),
    UnknownCase.EPSILON: ("R7", "R8"),
    UnknownCase.K: (),
    UnknownCase.RHO: (),
    UnknownCase.C: ("R9",),
}


def test_all_cases_round_trip(dirichlet_example):
    for case in UnknownCase:
        thermal, mushy, truth = dirichlet_example.hide(case)
        result = diri.solve_dirichlet_case(case, thermal, mushy, dirichlet_example.boundary)
        assert math.isclose(result.value, truth, rel_tol=1e-11), case
        assert abs(result.xi - XI_REF) <= 1e-12
        assert tuple(r.restriction_id for r in result.reports) == CASE_RESTRICTIONS[case]


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


def test_positive_fraction_bound_root_past_the_doubled_exponent():
    # g e**(2 x^2) overflows past x = 18.84, yet the front balance
    # (x + g e**x^2) e**x^2 is finite up to x = 26.6: the root at 20.08 is found.
    thermal = ThermalCoefficients(l=1e-200, k=1.0, rho=1.0, c=1.0)
    mushy = MushyCoefficients(epsilon=0.5, gamma=1e-150)
    eta = diri.solve_eta_r8(thermal, mushy, BoundaryData(q0=1.0, d_inf=1.0, h0=None))
    assert math.isclose(eta, ETA_R8_FAR, rel_tol=1e-15)


def test_fraction_bound_raises_for_a_target_that_is_not_finite():
    # (q0/l) sqrt(c/(rho k)) = 1e10/1e-300 overflows: the equation has no
    # root, but not because g reaches the target, so R8 raises as R7 does.
    thermal = ThermalCoefficients(l=1e-300, k=1.0, rho=1.0, c=1.0)
    mushy = MushyCoefficients(epsilon=0.5, gamma=1e-150)
    boundary = BoundaryData(q0=1e10, d_inf=1.0, h0=None)
    with pytest.raises(NoRootError, match="target must be finite"):
        diri.check_r7(thermal, boundary)
    with pytest.raises(NoRootError, match="target must be finite"):
        diri.check_r8(thermal, mushy, boundary)


def _stressed_draws(n, seed):
    """Dirichlet data with q0 and gamma scaled off consistency, kept where
    the face equation is attainable, with the face-determined xi."""
    rng = random.Random(seed)
    for _ in range(n):
        prob = random_problem(rng, face=Face.DIRICHLET, xi_range=(0.01, 5.0))
        boundary = BoundaryData(q0=prob.boundary.q0 * rng.choice((0.3, 0.7, 1.0, 1.5, 3.0)), d_inf=prob.boundary.d_inf)
        mushy = MushyCoefficients(epsilon=prob.mushy.epsilon, gamma=prob.mushy.gamma * rng.choice((0.1, 1.0, 10.0)))
        arg = face_argument(prob.thermal, boundary, Face.DIRICHLET)
        if arg < 1.0:
            yield prob.thermal, mushy, boundary, specfun.erf_inv(arg)


def test_auxiliary_roots_decide_as_the_balance_at_the_face_front():
    # R7 (through eta_r7) and R8 (through eta_r8) are R3 and R4 at
    # xi = erf_inv(face argument): the same verdict on every draw, and each
    # verdict occurs.
    verdicts = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for thermal, mushy, boundary, xi in _stressed_draws(3000, 7):
            r7 = diri.check_r7(thermal, boundary).satisfied
            r8 = diri.check_r8(thermal, mushy, boundary).satisfied
            assert r7 == conv.check_r3(thermal, boundary, xi).satisfied, (thermal, boundary, xi)
            assert r8 == conv.check_r4(thermal, mushy, boundary, xi).satisfied, (thermal, mushy, boundary, xi)
            verdicts.update((("R7", r7), ("R8", r8)))
    assert len(verdicts) == 4


def test_specific_heat_restriction_is_the_dirichlet_limit_of_r5():
    # R5's margin rhs - lhs at h0 -> inf is R9's margin 1 - lhs times the
    # positive 2 q0^2 / (rho l k d_inf), evaluated on the checks' own formulas.
    sympy = pytest.importorskip("sympy")
    l, k, rho, c, eps, gamma, q0, d_inf, h0 = sympy.symbols("l k rho c epsilon gamma q0 d_inf h0", positive=True)
    thermal = ThermalCoefficients(l=l, k=k, rho=rho, c=c)
    mushy = MushyCoefficients(epsilon=eps, gamma=gamma)
    r5 = conv.check_r5(thermal, mushy, BoundaryData(q0=q0, d_inf=d_inf, h0=h0))
    r9 = diri.check_r9(thermal, mushy, BoundaryData(q0=q0, d_inf=d_inf, h0=None))
    margin5 = sympy.limit(sympy.nsimplify(r5.rhs - r5.lhs), h0, sympy.oo)
    margin9 = 1 - sympy.nsimplify(r9.lhs)
    assert sympy.cancel(margin5 - margin9 * 2 * q0**2 / (rho * l * k * d_inf)) == 0


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


def test_no_case_solve_copies_a_coefficient_record(monkeypatch):
    # Every face x case cell hands its recovered value to build_solution; a
    # with_coefficient that raises is never reached.
    rng = random.Random(29)
    cells = []
    for face in Face:
        for _ in range(10):
            prob = random_problem(rng, face=face)
            cells += [(face, case, *prob.hide(case), prob.boundary) for case in UnknownCase]

    def copy(*args):
        raise AssertionError("a case solve copied a coefficient record")

    monkeypatch.setattr("mushy.model.with_coefficient", copy)
    assert not hasattr(conv, "with_coefficient") and not hasattr(diri, "with_coefficient")
    for face, case, thermal, mushy, truth, boundary in cells:
        solve = conv.solve_case if face is Face.CONVECTIVE else diri.solve_dirichlet_case
        assert math.isclose(solve(case, thermal, mushy, boundary).value, truth, rel_tol=1e-10)


def _wide_draws(n, seed):
    """``n`` data sets, both faces and every case, each coefficient and
    boundary value log-uniform over [1e-200, 1e200]."""
    rng = random.Random(seed)

    def wide():
        return math.exp(rng.uniform(math.log(1e-200), math.log(1e200)))

    rows = []
    for _ in range(n):
        face, case = rng.choice(list(Face)), rng.choice(list(UnknownCase))
        thermal = ThermalCoefficients(l=wide(), k=wide(), rho=wide(), c=wide())
        mushy = MushyCoefficients(epsilon=rng.uniform(0.01, 0.99), gamma=wide())
        boundary = BoundaryData(q0=wide(), d_inf=wide(), h0=wide() if face is Face.CONVECTIVE else None)
        rows.append((face, case, *with_coefficient(thermal, mushy, case, None), boundary))
    return rows


def test_a_solve_returns_a_positive_finite_value_or_raises():
    # Over two hundred decades each way, a solve and a restriction check either
    # succeed, with a positive finite coefficient, or raise a SolverError;
    # no ZeroDivisionError escapes and no inf is returned.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for face, case, thermal, mushy, boundary in OUT_OF_RANGE_ROWS + _wide_draws(400, 1):
            inverse = conv if face is Face.CONVECTIVE else diri
            solve = conv.solve_case if face is Face.CONVECTIVE else diri.solve_dirichlet_case
            try:
                value = solve(case, thermal, mushy, boundary).value
            except SolverError:
                pass
            else:
                assert 0.0 < value < math.inf, (face, case, thermal, mushy, boundary)
            try:
                inverse.check_all(case, thermal, mushy, boundary)
            except SolverError:
                pass
