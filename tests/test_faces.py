"""Behaviours that do not depend on the face condition.

Each test runs on the convective face and on its h0 -> inf limit, the
Dirichlet face, with the two session examples: xi = 0.5, unit thermal
coefficients, epsilon = 0.5, gamma = 0.1, q0 = 1 (and h0 = 2 on the
convective face), or, at the end, with random_problem draws.  Behaviours
of one face stay in ``test_convective.py`` and ``test_dirichlet.py``.
"""

import importlib.util
import math
import random
import warnings
from dataclasses import replace
from pathlib import Path

import oracle
import pytest

from mushy import inverse_convective as conv
from mushy import inverse_dirichlet as diri
from mushy import model
from mushy.errors import (
    ConvergenceError,
    IllConditionedWarning,
    NoRootError,
    NumericalError,
    RestrictionError,
    SolverError,
    ValidationError,
)
from mushy.manufacture import manufacture, random_problem
from mushy.model import (
    BoundaryData,
    CaseResult,
    Face,
    MushyCoefficients,
    ProblemInstance,
    ThermalCoefficients,
    UnknownCase,
)
from mushy.rootfind import solve_increasing

from conftest import REF_KWARGS, XI_REF, verify_exits

#: Each face's inverse module and case solver.
INVERSE = {Face.CONVECTIVE: conv, Face.DIRICHLET: diri}
SOLVE = {Face.CONVECTIVE: conv.solve_case, Face.DIRICHLET: diri.solve_dirichlet_case}

# The restrictions of each case, as the paper lists them.  R6-R9 are R2-R5
# at h0 -> inf; the Dirichlet k and rho cases carry none.
CASE_RESTRICTIONS = {
    Face.CONVECTIVE: {
        UnknownCase.L: ("R1", "R2"),
        UnknownCase.GAMMA: ("R1", "R2", "R3"),
        UnknownCase.EPSILON: ("R1", "R2", "R3", "R4"),
        UnknownCase.K: ("R1",),
        UnknownCase.RHO: ("R1",),
        UnknownCase.C: ("R1", "R5"),
    },
    Face.DIRICHLET: {
        UnknownCase.L: ("R6",),
        UnknownCase.GAMMA: ("R7",),
        UnknownCase.EPSILON: ("R7", "R8"),
        UnknownCase.K: (),
        UnknownCase.RHO: (),
        UnknownCase.C: ("R9",),
    },
}

# Frozen from the forward construction: d_inf = sqrt(pi) erf(0.5), plus
# q0 / h0 = 0.5 on the convective face.
D_INF_REF = {Face.CONVECTIVE: 1.4225620128255847, Face.DIRICHLET: 0.9225620128255848}
# The 0+ limit sqrt(pi)/2 + gamma (1 - epsilon) sqrt(pi) / (2 beta d_inf) of
# the specific-heat xi equation; beta d_inf is sqrt(pi) erf(0.5) on both faces.
F6_LOWER_REF = 0.9342576764013288


@pytest.fixture(params=list(Face), ids=[face.value for face in Face])
def face(request):
    return request.param


@pytest.fixture()
def example(face, convective_example, dirichlet_example):
    return convective_example if face is Face.CONVECTIVE else dirichlet_example


def _attenuation(boundary):
    """q0 / h0, which the convective face takes off d_inf (beta d_inf =
    d_inf - q0 / h0); 0 on the Dirichlet face."""
    return 0.0 if boundary.h0 is None else boundary.q0 / boundary.h0


def test_reference_face_datum(face, example):
    assert example.boundary.d_inf == pytest.approx(D_INF_REF[face], rel=0, abs=1e-16)
    assert (example.boundary.h0 is None) == (face is Face.DIRICHLET)


def test_every_case_round_trips(face, example):
    for case in UnknownCase:
        thermal, mushy, truth = example.hide(case)
        result = SOLVE[face](case, thermal, mushy, example.boundary)
        assert result.case is case
        assert math.isclose(result.value, truth, rel_tol=1e-11), case
        assert abs(result.xi - XI_REF) <= 1e-12, case
        assert tuple(r.restriction_id for r in result.reports) == CASE_RESTRICTIONS[face][case]


def test_face_argument_above_unity_rejected(face, example):
    # d_inf placed so that the argument of the inverse error function is 1 + 1e-9
    thermal, mushy, _ = example.hide(UnknownCase.L)
    b = example.boundary
    boundary = replace(b, d_inf=_attenuation(b) + math.sqrt(math.pi) * (1.0 + 1e-9))
    with pytest.raises(RestrictionError) as err:
        SOLVE[face](UnknownCase.L, thermal, mushy, boundary)
    assert err.value.failed_ids() == CASE_RESTRICTIONS[face][UnknownCase.L][-1:]  # R2 / R6


# The face-determined xi of unit l, k, rho, c and q0, gamma = 0.1, epsilon = 0.5
# and d_inf = 2.3e-308 sqrt(pi) (h0 = 1e308 on the convective face): erf_inv
# of a face argument below the normal range, a subnormal double.
SUBNORMAL_XI = {Face.CONVECTIVE: 1.538321928541343e-308, Face.DIRICHLET: 2.0383219285413435e-308}


@pytest.mark.parametrize("case", conv.FACE_CASES, ids=lambda case: case.value)
def test_a_subnormal_face_front_is_refused(face, case):
    boundary = BoundaryData(q0=1.0, d_inf=2.3e-308 * math.sqrt(math.pi), h0=1e308 if face is Face.CONVECTIVE else None)
    thermal, mushy = model.with_coefficient(ThermalCoefficients(l=1.0, k=1.0, rho=1.0, c=1.0),
                                            MushyCoefficients(epsilon=0.5, gamma=0.1), case, None)
    if face is Face.DIRICHLET and case is UnknownCase.EPSILON:  # R8 fails before the solve reads xi
        with pytest.raises(RestrictionError) as err:
            SOLVE[face](case, thermal, mushy, boundary)
        assert err.value.failed_ids() == ("R8",)
        return
    with pytest.raises(NumericalError) as err:
        SOLVE[face](case, thermal, mushy, boundary)
    assert str(err.value).startswith(f"xi = {SUBNORMAL_XI[face]!r} is not a positive normal double")


def test_face_determined_front_is_shared_bitwise(face, example):
    xis = []
    for case in conv.FACE_CASES:
        thermal, mushy, _ = example.hide(case)
        xis.append(SOLVE[face](case, thermal, mushy, example.boundary).xi)
    assert xis[0] == xis[1] == xis[2]


def test_density_recovery_shares_the_front_equation(face, example):
    thermal_k, mushy, _ = example.hide(UnknownCase.K)
    thermal_rho, _, truth_rho = example.hide(UnknownCase.RHO)
    k_result = SOLVE[face](UnknownCase.K, thermal_k, mushy, example.boundary)
    rho_result = SOLVE[face](UnknownCase.RHO, thermal_rho, mushy, example.boundary)
    assert rho_result.xi == k_result.xi  # identical equation, identical root
    assert math.isclose(rho_result.value, truth_rho, rel_tol=1e-12)


def test_specific_heat_existence_boundary(face, example):
    _, mushy, _ = example.hide(UnknownCase.C)
    b = example.boundary
    l_boundary = 2.0 * b.q0 * b.q0 / (b.d_inf - _attenuation(b) + 0.05)  # unit k, rho
    good = ThermalCoefficients(l=l_boundary * (1.0 - 1e-9), k=1.0, rho=1.0, c=None)
    bad = ThermalCoefficients(l=l_boundary * (1.0 + 1e-9), k=1.0, rho=1.0, c=None)
    assert SOLVE[face](UnknownCase.C, good, mushy, b).value > 0.0
    with pytest.raises(RestrictionError) as err:
        SOLVE[face](UnknownCase.C, bad, mushy, b)
    assert err.value.failed_ids() == CASE_RESTRICTIONS[face][UnknownCase.C][-1:]  # R5 / R9


@pytest.mark.parametrize("case, lower", [(UnknownCase.K, 0.0), (UnknownCase.C, F6_LOWER_REF)], ids=["kr", "c"])
def test_front_equation_root_and_lower_limit(face, example, case, lower):
    thermal, mushy, _ = example.hide(case)
    build = INVERSE[face].xi_equation_kr if case is UnknownCase.K else INVERSE[face].xi_equation_c
    eq = build(thermal, mushy, example.boundary)
    assert abs(solve_increasing(eq) - XI_REF) <= 1e-12
    assert eq.lower_limit == lower
    # f starts at its limit at 0+: for k and rho that is 0, so any positive
    # target admits a root
    assert 0.0 < eq.f(1e-8) and abs(eq.f(1e-8) - eq.lower_limit) < 1e-15


@pytest.mark.parametrize("xi", [5.05, 5.3])
def test_saturated_face_warns_once_per_solve(face, example, xi):
    # Near erf saturation the face equation is ill conditioned; each l,
    # gamma and epsilon solve says so once, however many restrictions use xi.
    problem = manufacture(**dict(REF_KWARGS, xi=xi), h0=example.boundary.h0, face=face)
    for case in conv.FACE_CASES:
        thermal, mushy, _ = problem.hide(case)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            SOLVE[face](case, thermal, mushy, problem.boundary)
        assert [w.category for w in caught] == [IllConditionedWarning], case


@pytest.mark.parametrize("face, l_scale, boundary, ids", [
    (Face.CONVECTIVE, 1.0, BoundaryData(q0=2.5, d_inf=1.25, h0=2.0), ("R1",)),
    (Face.CONVECTIVE, 1.5, None, ("R1", "R2", "R3")),
    (Face.DIRICHLET, 1.5, None, ("R7",)),
], ids=["convective-R1", "convective-R3", "dirichlet-R7"])
def test_restriction_checks_stop_at_first_failure(face, example, l_scale, boundary, ids):
    thermal, mushy, _ = example.hide(UnknownCase.EPSILON)
    thermal = replace(thermal, l=l_scale * thermal.l)
    boundary = boundary or example.boundary
    reports = INVERSE[face].check_all(UnknownCase.EPSILON, thermal, mushy, boundary)
    assert tuple(r.restriction_id for r in reports) == ids
    assert not reports[-1].satisfied
    with pytest.raises(RestrictionError) as err:
        SOLVE[face](UnknownCase.EPSILON, thermal, mushy, boundary)
    assert err.value.reports == reports


@pytest.mark.parametrize("case", [None, "l", 3])
@pytest.mark.parametrize("entry", ["solve", "check_all"])
def test_a_case_that_is_no_member_is_refused_before_any_restriction(face, example, entry, case):
    # On complete data, None (validate's direct mode) and "l" (a member's
    # value) pass validate; each entry refuses them, before a restriction
    # pass whose reports, or whose recovery, it would otherwise return.
    run = SOLVE[face] if entry == "solve" else INVERSE[face].check_all
    with pytest.raises(ValidationError) as err:
        run(case, example.thermal, example.mushy, example.boundary)
    assert str(err.value) == f"case must be an UnknownCase member, got {case!r}"


#: The dimensions of each datum and solution field as exponents of mass,
#: length, half-time and temperature: q0 and h0 carry T^(-5/2), so time
#: counts in halves and its unit changes by powers of 4.  Every report but
#: R1 is a number.
DIMENSIONS = {
    "l": (0, 2, -4, 0),
    "k": (1, 1, -6, -1),
    "rho": (1, -3, 0, 0),
    "c": (0, 2, -4, -1),
    "q0": (1, 0, -5, 0),
    "h0": (1, 0, -5, -1),
    "d_inf": (0, 0, 0, 1),
    "gamma": (0, 0, 0, 1),
    "epsilon": (0, 0, 0, 0),
    "xi": (0, 0, 0, 0),
    "mu": (0, 0, 0, 0),
    "alpha": (0, 2, -2, 0),
    "a_coef": (0, 0, 0, 1),
    "b_coef": (0, 0, 0, 1),
}

#: Units M 2^a, L 2^b, T 4^c and Theta 2^d as (a, b, c, d): each datum
#: changes by an exact power of two.  The last takes k, rho, q0 and h0 past
#: 2^250, so that products of four data would leave the double range: the
#: solve there, which splits a group whose products leave it, is compared
#: bit for bit with the plain one.
UNIT_CHANGES = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-40, 25, 9, 60), (13, -7, -4, -21),
                (300, 0, 0, 0), (600, 0, 0, 0), (0, 0, 0, 700), (-300, 200, 0, 0)]


def _rescale(units, name, value):
    """``value`` of the datum or figure ``name`` in the units ``units``."""
    if value is None:
        return None
    return math.ldexp(value, sum(u * e for u, e in zip(units, DIMENSIONS[name])))


def _rescale_record(units, record):
    """An input record or a SimilaritySolution in the units ``units``."""
    fields = record._asdict() if isinstance(record, tuple) else vars(record)
    return type(record)(**{name: _rescale(units, name, value) for name, value in fields.items()})


def _rescale_reports(units, reports):
    """R1's sides q0 and h0 d_inf scale as q0; every other side is a number."""
    return tuple(r._replace(lhs=_rescale(units, "q0", r.lhs), rhs=_rescale(units, "q0", r.rhs))
                 if r.restriction_id == "R1" else r for r in reports)


def _outcome(face, case, thermal, mushy, boundary):
    try:
        return SOLVE[face](case, thermal, mushy, boundary)
    except SolverError as err:
        return err


@pytest.mark.filterwarnings("ignore::mushy.errors.IllConditionedWarning")
def test_cells_commute_with_exact_unit_changes(face):
    # random_problem seeds 3 and 4, 100 draws each, xi alternating between
    # (0.05, 2) and (1e-4, 5.5), l scaled by 1, 0.3 or 3 so that restrictions
    # also fail: every case under every unit change (8,400 solves a face).
    # A success is bit-identical after the rescale, a failure raises the
    # same type with the same reports.
    outcomes = set()
    for seed in (3, 4):
        rng = random.Random(seed)
        for i in range(100):
            prob = random_problem(rng, face=face, xi_range=((0.05, 2.0), (1e-4, 5.5))[i % 2])
            prob = prob._replace(thermal=replace(prob.thermal, l=prob.thermal.l * (1.0, 0.3, 3.0)[i % 3]))
            for case in UnknownCase:
                thermal, mushy, _ = prob.hide(case)
                base = _outcome(face, case, thermal, mushy, prob.boundary)
                outcomes.add(type(base))
                for units in UNIT_CHANGES:
                    data = (_rescale_record(units, record) for record in (thermal, mushy, prob.boundary))
                    got = _outcome(face, case, *data)
                    assert type(got) is type(base), (seed, i, case, units)
                    if isinstance(base, RestrictionError):
                        assert got.reports == _rescale_reports(units, base.reports), (seed, i, case, units)
                    elif not isinstance(base, SolverError):
                        expected = (_rescale(units, case.value, base.value), base.xi,
                                    _rescale_record(units, base.solution), _rescale_reports(units, base.reports))
                        assert (got.value, got.xi, got.solution, got.reports) == expected, (seed, i, case, units)
    assert {CaseResult, RestrictionError} <= outcomes


@pytest.mark.filterwarnings("ignore::mushy.errors.IllConditionedWarning")
def test_wide_range_verifies_fit_their_units_once(face, tmp_path, monkeypatch, capsys):
    # Every case of 50 wide-range recipe draws (oracle.wide_range_draws on
    # seed 1).  The solves and restriction passes fit no units; mushy verify
    # fits the units of each answered cell's solution record exactly once,
    # and no verify raises anything but a SolverError.  The passes are those
    # of verify in units fitted to all the data.
    exits = verify_exits(oracle.wide_range_draws(50, 1), (face,), tmp_path, monkeypatch)
    capsys.readouterr()
    assert exits == {Face.CONVECTIVE: {"answered": 18, 0: 5, 3: 2, 4: 11},
                     Face.DIRICHLET: {"answered": 64, 0: 11, 3: 21, 4: 32}}[face], exits


#: Draw 187 of 3,000 from random.Random(1) with l, k, rho, c, gamma, q0,
#: d_inf and h0 each log-uniform in 2^+-249 and epsilon uniform in (0.01,
#: 0.99): a Dirichlet rho cell whose data all lie within 2^+-250.  Checked
#: at times of the caller's units, its finite-difference step underflows at
#: t = 0.5 (exit 3); in a mass unit of 2^300, or in the units of its
#: solution record, its condition residuals fail (exit 4).
IN_RANGE_RHO_ROW = (
    Face.DIRICHLET, UnknownCase.RHO,
    ThermalCoefficients(l=5.418194473330453e+71, k=1.9207008965961493e-65, c=2.031164055928657e-66),
    MushyCoefficients(epsilon=0.5371877110924368, gamma=5.487674098878382e+34),
    BoundaryData(q0=7.039119295285086e+52, d_inf=9.178246728982442e-66))

#: Unit changes that take k, rho and q0 (and h0) past 2^250: a mass unit of
#: 2^300, and a smaller mass unit with a larger length unit.
VERIFY_UNIT_CHANGES = [(300, 0, 0, 0), (-300, 200, 0, 0)]


@pytest.mark.filterwarnings("ignore::mushy.errors.IllConditionedWarning")
def test_verify_does_not_depend_on_the_callers_units(face, tmp_path, capsys):
    # Every case of 30 random_problem draws (seed 5), and on the Dirichlet
    # face the row above: mushy verify writes the same exit code, stdout and
    # stderr after each exact unit change.  Its residuals are unit-free, and
    # it checks them at fixed times of the solution's own units.  No cell
    # fails a restriction, whose message gives R1's sides in the caller's
    # units.
    from mushy import cli

    assert {name: DIMENSIONS[name] for name in cli._DIMENSIONS} == cli._DIMENSIONS
    rng = random.Random(5)
    cells = []
    for _ in range(30):
        prob = random_problem(rng, face=face)
        cells += [(face, case, *prob.hide(case)[:2], prob.boundary) for case in UnknownCase]
    if face is Face.DIRICHLET:
        cells.append(IN_RANGE_RHO_ROW)
    path = tmp_path / "cell.ini"
    codes = []
    for face_, case, *data in cells:
        reports = []
        for units in [(0, 0, 0, 0), *VERIFY_UNIT_CHANGES]:
            scaled = (_rescale_record(units, record) for record in data)
            path.write_text(cli.scenario_to_ini(ProblemInstance(face_, case, *scaled)))
            reports.append((cli.main(["verify", str(path)]), *capsys.readouterr()))
        assert reports[1:] == reports[:1] * len(VERIFY_UNIT_CHANGES), (case, data, reports)
        codes.append(reports[0][0])
    assert cli.EXIT_OK in codes, codes
    if face is Face.DIRICHLET:
        assert codes[-1] == cli.EXIT_RESIDUAL


#: Bound on a cell's relative error in units of kappa u, with kappa its
#: 60-digit condition number over the known data.  The worst measured over
#: seeds 1-5, 50 draws a face, is 1.07 for the 1,500 l, gamma and epsilon
#: cases and 1.24 for the 1,500 k, rho and c cases.
FACE_CELL_ERROR_UNITS = 2.0


def test_face_cells_match_a_60_digit_oracle(face):
    # Every case of 50 random_problem draws, against the answer for the same
    # double data at 60 digits: the library's error is its own, not the
    # data's rounding.  l, gamma and epsilon take xi from the face equation,
    # k, rho and c from their xi equation's root.
    rng = random.Random(1)
    u = 2.0**-53
    for _ in range(50):
        prob = random_problem(rng, face=face)
        for case in UnknownCase:
            thermal, mushy, _ = prob.hide(case)
            result = SOLVE[face](case, thermal, mushy, prob.boundary)
            data = {**vars(thermal), **vars(mushy), **vars(prob.boundary)}
            condition = oracle.face_cell_condition if case in conv.FACE_CASES else oracle.root_cell_condition
            exact, kappa = condition(case.value, data, result.xi)
            error = abs(float((result.value - exact) / exact))
            assert error <= FACE_CELL_ERROR_UNITS * float(kappa) * u, (case, prob)


#: The wide-range recipe draw hardest to solve in the caller's units
#: (Dirichlet face): c / (rho k) = 7.8e-322 is subnormal there, and the l and
#: gamma cells came back 7.7e-4 off where S was formed from it plainly.
SUBNORMAL_STEFAN_RATIO_DRAW = dict(
    l=1.64150286888797e-14, k=7.940466328879303e+110, rho=1.8783791320007578e+45, c=1.1661160135180394e-165,
    gamma=1.9409557904534767e-197, q0=1.496734200598179e+107, d_inf=2.8413589816388474e-194,
    epsilon=0.37192921831943543)


@pytest.mark.parametrize("case", [UnknownCase.L, UnknownCase.GAMMA])
def test_a_subnormal_stefan_ratio_is_right_or_refused(case):
    data = SUBNORMAL_STEFAN_RATIO_DRAW
    given = {name: None if name == case.value else value for name, value in data.items()}
    thermal = ThermalCoefficients(**{name: given[name] for name in ("l", "k", "rho", "c")})
    mushy = MushyCoefficients(epsilon=given["epsilon"], gamma=given["gamma"])
    try:
        result = diri.solve_dirichlet_case(case, thermal, mushy, BoundaryData(q0=data["q0"], d_inf=data["d_inf"]))
    except NumericalError:
        return
    exact = oracle.face_cell(case.value, {name: value for name, value in data.items() if name != case.value},
                             result.xi)
    assert abs(float((result.value - exact) / exact)) <= 1e-10, (result.value, exact)


def _range_probe():
    """scripts/range_probe.py as a module: the wide-range recipe's cases."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "range_probe.py"
    spec = importlib.util.spec_from_file_location("range_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("ignore::mushy.errors.IllConditionedWarning")
def test_wide_range_face_cells_are_right_or_refused(face):
    # 300 draws of the wide-range recipe (oracle.wide_range_draws: every
    # datum exp(U(ln 1e-200, ln 1e200))), the l, gamma and epsilon cells,
    # through the range probe's own loop.  Where the exact restrictions
    # hold, no solve raises RestrictionError or NoRootError; where the exact
    # answer is also a positive normal double, an answer is within 2 kappa u
    # of it at 60 digits, or the solve raises a NumericalError.  An error
    # within u is the rounding of the exact answer itself, and its kappa is
    # not computed.
    probe = _range_probe()
    u = 2.0**-53
    outcomes = {"answered": 0, "refused": 0}
    for _, case, data, result, theta, holds, kept in probe.outcomes(300, 1, faces=(face,)):
        if isinstance(result, (RestrictionError, NoRootError)):
            assert not holds, (case, data, result)
            continue
        if isinstance(result, NumericalError):
            outcomes["refused"] += kept
            continue
        assert kept, (case, data, result.value)
        outcomes["answered"] += 1
        error = abs(float((result.value - theta) / theta))
        if error > u:
            kappa = probe.condition(face, case, data, result.xi)
            assert error <= 2.0 * kappa * u, (case, data, error, kappa)
    assert min(outcomes.values()) > 0, outcomes


@pytest.mark.filterwarnings("ignore::mushy.errors.IllConditionedWarning")
def test_wide_range_root_cells_are_right_or_refused(face):
    # 200 draws of the wide-range recipe, the k, rho and c cells, through
    # the range probe's own loop.  A solve raises RestrictionError only
    # where the exact restrictions fail.  Where they hold, a NoRootError is
    # the known refusal of a xi-equation target that is 0 or inf as a double
    # (ROADMAP item 22): the target is a dimensionless group, which no change
    # of units brings into range.  No solve exhausts its root solve's
    # budget.  An answer is kept, and within u or 2 kappa u of the 60-digit
    # one, as in the l, gamma and epsilon test above.
    probe = _range_probe()
    u = 2.0**-53
    outcomes = {"answered": 0, "refused": 0}
    for _, case, data, result, theta, holds, kept in probe.outcomes(200, 1, faces=(face,), cases=probe.ROOT_CASES):
        assert not isinstance(result, ConvergenceError), (case, data)
        if isinstance(result, RestrictionError):
            assert not holds, (case, data, result)
        if isinstance(result, NoRootError) and holds:
            assert result.target in (0.0, math.inf), (case, data, result)
        if isinstance(result, SolverError):
            outcomes["refused"] += kept
            continue
        assert kept, (case, data, result.value)
        outcomes["answered"] += 1
        error = abs(float((result.value - theta) / theta))
        if error > u:
            kappa = probe.condition(face, case, data, result.xi)
            assert error <= 2.0 * kappa * u, (case, data, error, kappa)
    assert min(outcomes.values()) > 0, outcomes
