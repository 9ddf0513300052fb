"""The restriction passes of both faces, as a whole: their outcomes on
stressed data, and their errors on data whose products leave the range of
a double."""

import hashlib
import random
import warnings

import pytest

from mushy import inverse_convective as conv
from mushy import inverse_dirichlet as diri
from mushy.errors import IllConditionedWarning, NumericalError, RestrictionError, SolverError
from mushy.manufacture import random_problem
from mushy.specfun import erf_inv
from mushy.model import BoundaryData, Face, MushyCoefficients, ThermalCoefficients, UnknownCase, with_coefficient

UNIT_THERMAL = ThermalCoefficients(l=1.0, k=1.0, rho=1.0, c=1.0)
UNIT_MUSHY = MushyCoefficients(epsilon=0.5, gamma=0.1)
UNIT_BOUNDARY = BoundaryData(q0=1.0, d_inf=1.0, h0=2.0)

# Unit data but for one product that underflows to 0: rho k, h0 d_inf or q0^2.
TINY_RHO_K = ThermalCoefficients(l=1.0, k=1e-200, rho=1e-200, c=1.0)
TINY_H0_D_INF = BoundaryData(q0=1.0, d_inf=1e-200, h0=1e-200)
TINY_Q0 = BoundaryData(q0=1e-200, d_inf=1.0, h0=2.0)
# And unit data but for a face group (d_inf / q0) sqrt(k rho c / pi) = 5.6e599
# that no double holds, in any units.
HUGE_FACE_GROUP = BoundaryData(q0=1e-300, d_inf=1e300, h0=2.0)
UNDERFLOWING = [(TINY_RHO_K, UNIT_BOUNDARY), (UNIT_THERMAL, TINY_H0_D_INF), (UNIT_THERMAL, TINY_Q0),
                (UNIT_THERMAL, HUGE_FACE_GROUP)]
# The products of the xi equations: rho l k, and 2 d_inf beta at beta ~ 0.19.
TINY_L_K = ThermalCoefficients(l=1e-200, k=1e-200, rho=1.0, c=1.0)
TINY_D_INF_BETA = BoundaryData(q0=1e-300, d_inf=5e-324, h0=2.5e23)

# Data on which a group is 0 times inf: d_inf/q0 underflows where k rho c
# overflows (the face argument), and q0/l where c/(rho k) does (the Stefan
# target).  At 50 digits both groups are positive doubles.
ZERO_INF_FACE = (ThermalCoefficients(k=1e150, rho=1e150, c=1e150), BoundaryData(q0=1e200, d_inf=1e-200))
ZERO_INF_STEFAN = (ThermalCoefficients(l=1e200, k=1e-100, rho=1e-100, c=1e200), BoundaryData(q0=1e-200, d_inf=1.0))


def _stressed(face, n, seed):
    """``n`` random_problem data sets of ``face`` with q0, gamma, l, d_inf
    and h0 scaled off consistency, so that every restriction of the face
    fails on some of them."""
    rng = random.Random(seed)
    for _ in range(n):
        prob = random_problem(rng, face=face, xi_range=(0.01, 5.0))
        t = prob.thermal
        thermal = ThermalCoefficients(l=t.l * rng.choice((0.5, 1.0, 2.0)), k=t.k, rho=t.rho, c=t.c)
        mushy = MushyCoefficients(epsilon=prob.mushy.epsilon, gamma=prob.mushy.gamma * rng.choice((0.1, 1.0, 10.0)))
        h0 = prob.boundary.h0 * rng.choice((0.1, 1.0, 10.0)) if face is Face.CONVECTIVE else None
        boundary = BoundaryData(q0=prob.boundary.q0 * rng.choice((0.3, 0.7, 1.0, 1.5, 3.0)),
                                d_inf=prob.boundary.d_inf * rng.choice((0.9, 1.0, 1.5)), h0=h0)
        yield thermal, mushy, boundary


def _rows():
    for face in Face:
        for thermal, mushy, boundary in _stressed(face, 250, 11):
            yield face, thermal, mushy, boundary
        for thermal, boundary in UNDERFLOWING:  # validate drops h0 on the Dirichlet face
            yield face, thermal, UNIT_MUSHY, boundary


def _outcome(check_all, case, thermal, mushy, boundary):
    try:
        reports = check_all(case, *with_coefficient(thermal, mushy, case, None), boundary)
    except SolverError as err:
        return type(err).__name__
    return tuple((r.restriction_id, r.satisfied, r.lhs.hex(), r.rhs.hex(), r.note) for r in reports)


# sha256 over the outcome of every check_all call below, one repr a line.
CHECK_ALL_DIGEST = "791f91c92527781363ad8f3de555a60411c6bdc45969f7c5a3447ac26ae3b432"


def test_check_all_outcomes_are_pinned():
    # Every face x case cell on stressed draws and on underflowing data:
    # the ids, verdicts, bits and notes of the reports, or the error raised.
    lines, seen = [], set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for face, thermal, mushy, boundary in _rows():
            check_all = conv.check_all if face is Face.CONVECTIVE else diri.check_all
            for case in UnknownCase:
                outcome = _outcome(check_all, case, thermal, mushy, boundary)
                lines.append(repr((face.value, case.value, outcome)))
                if isinstance(outcome, str):
                    seen.add(outcome)
                else:
                    seen.update(rid for rid, ok, *_ in outcome if not ok)
                    if any(rid == "R8" and note for rid, *_, note in outcome):
                        seen.add("vacuous R8")
    assert {f"R{i}" for i in range(1, 10)} | {"vacuous R8", "NumericalError"} <= seen, seen
    assert len(lines) == 3048
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CHECK_ALL_DIGEST


XI = 0.5  # a face-determined front position, for R3 and R4

# Each public check, auxiliary root or xi equation on data whose named
# product underflows, or whose named group is 0 times inf.
UNDERFLOW_CALLS = {
    "check_r2 k rho c": lambda: conv.check_r2(TINY_RHO_K, UNIT_BOUNDARY),
    "check_r2 h0 d_inf": lambda: conv.check_r2(UNIT_THERMAL, TINY_H0_D_INF),
    "check_r3 rho k": lambda: conv.check_r3(TINY_RHO_K, UNIT_BOUNDARY, XI),
    "check_r4 rho k": lambda: conv.check_r4(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY, XI),
    "check_r5 rho l k": lambda: conv.check_r5(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY),
    "check_r5 h0 d_inf": lambda: conv.check_r5(UNIT_THERMAL, UNIT_MUSHY, TINY_H0_D_INF),
    "check_r5 2 q0^2": lambda: conv.check_r5(UNIT_THERMAL, UNIT_MUSHY, TINY_Q0),
    "check_r6 k rho c": lambda: diri.check_r6(TINY_RHO_K, UNIT_BOUNDARY),
    "check_r7 rho k": lambda: diri.check_r7(TINY_RHO_K, UNIT_BOUNDARY),
    "check_r8 rho k": lambda: diri.check_r8(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY),
    "check_r9 2 q0^2": lambda: diri.check_r9(UNIT_THERMAL, UNIT_MUSHY, TINY_Q0),
    "check_r9 rho l k": lambda: diri.check_r9(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY),
    "check_r6 face argument": lambda: diri.check_r6(*ZERO_INF_FACE),
    "check_r3 Stefan target": lambda: conv.check_r3(*ZERO_INF_STEFAN, XI),
    "check_r7 Stefan target": lambda: diri.check_r7(*ZERO_INF_STEFAN),
    "solve_eta_r7 rho k": lambda: diri.solve_eta_r7(TINY_RHO_K, UNIT_BOUNDARY),
    "solve_eta_r8 rho k": lambda: diri.solve_eta_r8(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY),
    "conv.xi_equation_kr 2 d_inf beta": lambda: conv.xi_equation_kr(UNIT_THERMAL, UNIT_MUSHY, TINY_D_INF_BETA),
    "conv.xi_equation_c 2 d_inf beta": lambda: conv.xi_equation_c(UNIT_THERMAL, UNIT_MUSHY, TINY_D_INF_BETA),
    "conv.xi_equation_c rho l k d_inf beta": lambda: conv.xi_equation_c(TINY_L_K, UNIT_MUSHY, UNIT_BOUNDARY),
    "diri.xi_equation_c rho l k d_inf beta": lambda: diri.xi_equation_c(TINY_L_K, UNIT_MUSHY, UNIT_BOUNDARY),
}


#: The quantity the range rule names where the call's name says it otherwise:
#: the face argument of R6 is the face group A.
NAMED = {"check_r6 face argument": "face group A"}


@pytest.mark.parametrize("name", UNDERFLOW_CALLS)
def test_public_checks_raise_numerical_error_naming_the_product(name):
    # Valid data whose product leaves the double range are a NumericalError
    # at every public entry, not a ZeroDivisionError only check_all converts.
    product = NAMED.get(name, name.split(" ", 1)[1])
    with pytest.raises(NumericalError, match="range of a double") as err:
        UNDERFLOW_CALLS[name]()
    assert product in str(err.value)



def _report_bits(reports):
    return [(r.restriction_id, r.satisfied, r.lhs.hex(), r.rhs.hex(), r.note) for r in reports]


def _public_checks(face, case, thermal, mushy, boundary):
    """The reports of one cell from the public check_r* functions, in the
    order and with the early stop that check_all documents."""
    if face is Face.DIRICHLET:
        if case is UnknownCase.L:
            return (diri.check_r6(thermal, boundary),)
        if case is UnknownCase.C:
            return (diri.check_r9(thermal, mushy, boundary),)
        if case in (UnknownCase.K, UnknownCase.RHO):
            return ()
        r7 = diri.check_r7(thermal, boundary)
        if not r7.satisfied or case is UnknownCase.GAMMA:
            return (r7,)
        return (r7, diri.check_r8(thermal, mushy, boundary))
    r1 = conv.check_r1(boundary)
    if not r1.satisfied or case in (UnknownCase.K, UnknownCase.RHO):
        return (r1,)
    if case is UnknownCase.C:
        return (r1, conv.check_r5(thermal, mushy, boundary))
    r2 = conv.check_r2(thermal, boundary)
    if not r2.satisfied or case is UnknownCase.L:
        return (r1, r2)
    xi = erf_inv(r2.lhs)
    r3 = conv.check_r3(thermal, boundary, xi)
    if not r3.satisfied or case is UnknownCase.GAMMA:
        return (r1, r2, r3)
    return (r1, r2, r3, conv.check_r4(thermal, mushy, boundary, xi))


def test_a_solve_reports_what_the_public_checks_report():
    # A restriction pass computes each figure once and shares it between its
    # restrictions and the recovery.  The reports of a case solve, passing or
    # failing, and of check_all are still those of the public check_r*
    # functions, field for field and bit for bit.  Each face runs every cell
    # on 200 random_problem draws and on 200 stressed ones.
    rng = random.Random(41)
    failed = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for face in Face:
            inverse, solve = (conv, conv.solve_case) if face is Face.CONVECTIVE else (diri, diri.solve_dirichlet_case)
            draws = [(p.thermal, p.mushy, p.boundary) for p in (random_problem(rng, face=face) for _ in range(200))]
            for thermal, mushy, boundary in draws + list(_stressed(face, 200, 43)):
                for case in UnknownCase:
                    given = (*with_coefficient(thermal, mushy, case, None), boundary)
                    try:
                        reports = solve(case, *given).reports
                    except RestrictionError as err:
                        reports = err.reports
                        failed.add((face, case))
                    expected = _report_bits(_public_checks(face, case, *given))
                    assert _report_bits(reports) == expected, (face, case, given)
                    assert _report_bits(inverse.check_all(case, *given)) == expected, (face, case, given)
    assert len(failed) == 10, failed  # every cell that has a restriction fails somewhere
