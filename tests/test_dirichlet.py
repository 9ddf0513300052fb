import math
import random
import warnings

import oracle
import pytest

from mushy import inverse_convective as conv
from mushy import inverse_dirichlet as diri
from mushy import direct, specfun
from mushy.direct import face_argument
from mushy.errors import IllConditionedWarning, NoRootError, NumericalError
from mushy.manufacture import manufacture, random_problem
from mushy.model import (
    BoundaryData,
    Face,
    MushyCoefficients,
    ThermalCoefficients,
    UnknownCase,
)

from conftest import OUT_OF_RANGE_ROWS, XI_REF, assert_value_or_solver_error, verify_exits

ETA_UNIT_TARGET = 0.6529186404192053  # root of x e**x^2 = 1, frozen by bisection
ETA_R8_FAR = 20.082304769727949912  # root of (x + 5e-151 e**x^2) e**x^2 = 1e200, 50 digits (mpmath), rounded

UNIT_THERMAL = ThermalCoefficients(l=1.0, k=1.0, rho=1.0, c=1.0)


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
    # root, but not because g reaches the target, so R8 raises as R7 does,
    # with the range rule's error for the Stefan target.
    thermal = ThermalCoefficients(l=1e-300, k=1.0, rho=1.0, c=1.0)
    mushy = MushyCoefficients(epsilon=0.5, gamma=1e-150)
    boundary = BoundaryData(q0=1e10, d_inf=1.0, h0=None)
    with pytest.raises(NumericalError, match="the Stefan target S = inf is not a positive normal double"):
        diri.check_r7(thermal, boundary)
    with pytest.raises(NumericalError, match="the Stefan target S = inf is not a positive normal double"):
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


def test_specific_heat_restriction_is_the_dirichlet_limit_of_r5(monkeypatch):
    # R5's margin rhs - lhs at h0 -> inf is R9's margin 1 - lhs times the
    # positive 2 q0^2 / (rho l k d_inf), evaluated on the checks' own formulas.
    # Each formula is the plain one where its products are positive normal
    # doubles; with the normal range taken from 0, every positive symbol is.
    sympy = pytest.importorskip("sympy")
    for module in (direct, conv, diri):
        monkeypatch.setattr(module, "_NORMAL_MIN", 0.0)
    l, k, rho, c, w, gamma, q0, d_inf, h0 = sympy.symbols("l k rho c w gamma q0 d_inf h0", positive=True)
    thermal = ThermalCoefficients(l=l, k=k, rho=rho, c=c)
    mushy = MushyCoefficients(epsilon=1 - w, gamma=gamma)  # w = 1 - epsilon, positive
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


@pytest.mark.filterwarnings("ignore::mushy.errors.IllConditionedWarning")
def test_a_solve_returns_a_positive_finite_value_or_raises():
    # Data whose arithmetic leaves the double range meet the wide-range
    # property of test_rootfind: a positive finite value or a SolverError
    # other than ConvergenceError, and no ZeroDivisionError or inf.
    assert_value_or_solver_error(OUT_OF_RANGE_ROWS)


def test_a_subnormal_k_rho_c_is_solved_in_normalised_units():
    # k rho c = 3.1e-320 is subnormal in the caller's units, where sqrt(k rho c)
    # keeps about four digits and l came back 3.3e-5 off (2.796159e-106).  The
    # face group A and sqrt(k rho c) are formed from the data's mantissas and
    # exponents there, so no product loses a digit; the 60-digit answer is
    # 2.7962519443961097654e-106 (kappa 6.0), at xi = 1.5076422103546561458e-4.
    thermal = ThermalCoefficients(k=1.1e-107, rho=1.3e-107, c=2.2e-106)
    mushy = MushyCoefficients(epsilon=0.5, gamma=1.0)
    result = diri.solve_dirichlet_case(UnknownCase.L, thermal, mushy, BoundaryData(q0=1e-160, d_inf=1.7e-4))
    assert math.isclose(result.value, 2.7962519443961097654e-106, rel_tol=2 * 6.0 * 2.0**-53)
    assert math.isclose(result.xi, 1.5076422103546561458e-4, rel_tol=2.0**-53)


@pytest.mark.filterwarnings("ignore::mushy.errors.IllConditionedWarning")
def test_a_wide_range_verify_fits_its_units_once(tmp_path, monkeypatch, capsys):
    # The solves run in the caller's units and fit none.  mushy verify fits
    # the units of the solution record once, those in which k, rho, c and
    # b_coef lie within a factor 2 of 1.  Over 150 wide-range recipe draws
    # (oracle.wide_range_draws on seed 1) the two faces answer 216 cells, 52
    # of which pass verify, as when verify checked in units fitted to all
    # the data; the rest exit 3 or 4, and no verify raises anything but a
    # SolverError.
    exits = verify_exits(oracle.wide_range_draws(150, 1), tuple(Face), tmp_path, monkeypatch)
    capsys.readouterr()
    assert exits == {"answered": 216, 0: 52, 3: 52, 4: 112}, exits
