"""The restriction passes of both faces, as a whole: their outcomes on
stressed data, and their errors on data whose products leave the range of
a double."""

import hashlib
import math
import random
import warnings

import mpmath
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
TINY_D_INF = BoundaryData(q0=1e-300, d_inf=5e-324)  # the Dirichlet face's 2 d_inf beta = 1e-323

# Data on which a group is 0 times inf: d_inf/q0 underflows where k rho c
# overflows (the face argument), and q0/l where c/(rho k) does (the Stefan
# target).  At 50 digits both groups are positive doubles.
ZERO_INF_FACE = (ThermalCoefficients(k=1e150, rho=1e150, c=1e150), BoundaryData(q0=1e200, d_inf=1e-200))
ZERO_INF_STEFAN = (ThermalCoefficients(l=1e200, k=1e-100, rho=1e-100, c=1e200), BoundaryData(q0=1e-200, d_inf=1.0))

# Data whose product leaves the range and takes the group it feeds along:
# k rho c = 1e-900 and A = 5.6e-451; rho k = 1e-600 and S = 1e310; rho l k =
# 1e-600, and 1e-720 with q0^2 = 1e-400, where 2 q0^2 / (rho l k) and both
# terms of R5's bound overflow; and the 0-times-inf groups again, A =
# 5.6e-376 and S = 1e-400.
TINY_K_RHO_C = ThermalCoefficients(l=1.0, k=1e-300, rho=1e-300, c=1e-300)
HUGE_STEFAN = ThermalCoefficients(l=1e-10, k=1e-300, rho=1e-300, c=1.0)
TINY_L_K_RHO, HUGE_GAMMA = ThermalCoefficients(l=1e-200, k=1e-200, rho=1e-200, c=1.0), MushyCoefficients(0.5, 1e300)
R5_INF_MINUS_INF = BoundaryData(q0=1.0, d_inf=1e-100, h0=1e200)
TINIER_L_K_RHO = ThermalCoefficients(l=1e-240, k=1e-240, rho=1e-240, c=1.0)
R5_INF_MINUS_INF_TINY_Q0 = BoundaryData(q0=1e-200, d_inf=1e-10, h0=1e200)
ZERO_INF_FACE_PAST = (ThermalCoefficients(k=1e150, rho=1e150, c=1e150), BoundaryData(q0=1e300, d_inf=1e-300))
ZERO_INF_STEFAN_PAST = (ThermalCoefficients(l=1e300, k=1e-100, rho=1e-100, c=1e200),
                        BoundaryData(q0=1e-300, d_inf=1.0))


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
CHECK_ALL_DIGEST = "cb780ff8e76b7786390fa921676041c304510752c4eedb6b76906b91cf66b135"


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
# product leaves the range and takes the group it feeds along, or whose
# named group is 0 times inf and past the range.  A product alone no longer
# refuses: each group is split where a product it forms leaves the range.
UNDERFLOW_CALLS = {
    "check_r2 k rho c": lambda: conv.check_r2(TINY_K_RHO_C, UNIT_BOUNDARY),
    "check_r2 h0 d_inf": lambda: conv.check_r2(UNIT_THERMAL, TINY_H0_D_INF),
    "check_r3 rho k": lambda: conv.check_r3(HUGE_STEFAN, UNIT_BOUNDARY, XI),
    "check_r4 rho k": lambda: conv.check_r4(HUGE_STEFAN, UNIT_MUSHY, UNIT_BOUNDARY, XI),
    "check_r5 rho l k": lambda: conv.check_r5(TINY_L_K_RHO, HUGE_GAMMA, R5_INF_MINUS_INF),
    "check_r5 h0 d_inf": lambda: conv.check_r5(UNIT_THERMAL, UNIT_MUSHY, TINY_H0_D_INF),
    "check_r5 2 q0^2": lambda: conv.check_r5(TINIER_L_K_RHO, HUGE_GAMMA, R5_INF_MINUS_INF_TINY_Q0),
    "check_r6 k rho c": lambda: diri.check_r6(TINY_K_RHO_C, UNIT_BOUNDARY),
    "check_r7 rho k": lambda: diri.check_r7(HUGE_STEFAN, UNIT_BOUNDARY),
    "check_r8 rho k": lambda: diri.check_r8(HUGE_STEFAN, UNIT_MUSHY, UNIT_BOUNDARY),
    "check_r6 face argument": lambda: diri.check_r6(*ZERO_INF_FACE_PAST),
    "check_r3 Stefan target": lambda: conv.check_r3(*ZERO_INF_STEFAN_PAST, XI),
    "check_r7 Stefan target": lambda: diri.check_r7(*ZERO_INF_STEFAN_PAST),
    "solve_eta_r7 rho k": lambda: diri.solve_eta_r7(HUGE_STEFAN, UNIT_BOUNDARY),
    "solve_eta_r8 rho k": lambda: diri.solve_eta_r8(HUGE_STEFAN, UNIT_MUSHY, UNIT_BOUNDARY),
    "conv.xi_equation_kr 2 d_inf beta": lambda: conv.xi_equation_kr(UNIT_THERMAL, UNIT_MUSHY, TINY_D_INF_BETA),
    "conv.xi_equation_c 2 d_inf beta": lambda: conv.xi_equation_c(UNIT_THERMAL, UNIT_MUSHY, TINY_D_INF_BETA),
    "diri.xi_equation_c 2 d_inf beta": lambda: diri.xi_equation_c(UNIT_THERMAL, UNIT_MUSHY, TINY_D_INF),
}


#: The group the range rule names, which the product of the call's name
#: took out of the range; q0 / (h0 d_inf) and R5's bound name the product.
NAMED = {"check_r2 k rho c": "face group A", "check_r6 k rho c": "face group A",
         "check_r6 face argument": "face group A", **dict.fromkeys(
             ("check_r3 rho k", "check_r4 rho k", "check_r7 rho k", "check_r8 rho k", "check_r3 Stefan target",
              "check_r7 Stefan target", "solve_eta_r7 rho k", "solve_eta_r8 rho k"), "Stefan target S")}


@pytest.mark.parametrize("name", UNDERFLOW_CALLS)
def test_public_checks_raise_numerical_error_naming_the_product(name):
    # Valid data whose product leaves the double range, with the group it
    # feeds, are a NumericalError at every public entry, not a
    # ZeroDivisionError only check_all converts.
    product = NAMED.get(name, name.split(" ", 1)[1])
    with pytest.raises(NumericalError, match="range of a double") as err:
        UNDERFLOW_CALLS[name]()
    assert product in str(err.value)


def _mp(record) -> dict:
    return {name: mpmath.mpf(value) for name, value in vars(record).items() if value is not None}


def _exact_groups(thermal, mushy, boundary) -> dict:
    """The groups of the public checks at 50 digits: A (times beta on the
    convective face, h0 given), S, the zone strength g, R5's bound, R9's
    lhs and the c equation's target at beta."""
    with mpmath.workdps(50):
        d = {**_mp(thermal), **_mp(mushy), **_mp(boundary)}
        beta = 1 - d["q0"] / (d["h0"] * d["d_inf"]) if "h0" in d else mpmath.mpf(1)
        krc = mpmath.sqrt(d["k"] * d["rho"] * d["c"])
        groups = {"A": d["d_inf"] / d["q0"] * krc / mpmath.sqrt(mpmath.pi) * beta, "beta": beta}
        if "l" in d:
            rho_l_k = d["rho"] * d["l"] * d["k"]
            groups["S"] = d["q0"] / d["l"] * mpmath.sqrt(d["c"] / (d["rho"] * d["k"]))
            groups["target_c"] = d["q0"] ** 2 * mpmath.sqrt(mpmath.pi) / (rho_l_k * d["d_inf"] * beta)
            if "gamma" in d:
                weight = d["gamma"] * (1 - d["epsilon"])
                groups["g"] = d["gamma"] * krc / (2 * d["q0"])
                groups["R5"] = (2 * d["q0"] ** 2 / rho_l_k - weight) / d["d_inf"]
                groups["R9"] = rho_l_k * (d["d_inf"] + weight) / (2 * d["q0"] ** 2)
        return groups


def _root(lhs, target):
    with mpmath.workdps(50):
        start = mpmath.sqrt(mpmath.log(target)) if target > 1 else target
        return mpmath.findroot(lambda x: mpmath.log(lhs(x) / target), start)


def _eta_r7(thermal, boundary):
    return _root(lambda x: x * mpmath.exp(x * x), _exact_groups(thermal, UNIT_MUSHY, boundary)["S"])


def _eta_r8(thermal, mushy, boundary):
    groups = _exact_groups(thermal, mushy, boundary)
    return _root(lambda x: (x + groups["g"] * mpmath.exp(x * x)) * mpmath.exp(x * x), groups["S"])


# Each public check, auxiliary root or xi equation on data whose named
# product underflows or overflows, or whose named group is 0 times inf, while
# the group itself is a double: the call's figure, and the 50-digit one it
# must round to (inf or 0 where the exact one is past the range).
ANSWERED_CALLS = {
    "check_r2 k rho c": (lambda: conv.check_r2(TINY_RHO_K, UNIT_BOUNDARY).lhs,
                         lambda: _exact_groups(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY)["A"]),
    "check_r3 rho k": (lambda: conv.check_r3(TINY_RHO_K, UNIT_BOUNDARY, XI).rhs,
                       lambda: _exact_groups(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY)["S"]),
    "check_r4 rho k": (lambda: conv.check_r4(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY, XI).lhs,
                       lambda: _exact_groups(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY)["S"]),
    "check_r4 zone strength": (
        lambda: conv.check_r4(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY, XI).rhs,
        lambda: (XI + _exact_groups(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY)["g"] * mpmath.exp(XI**2))
        * mpmath.exp(XI**2)),
    "check_r5 rho l k": (lambda: conv.check_r5(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY).rhs,
                         lambda: _exact_groups(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY)["R5"]),
    "check_r5 2 q0^2": (lambda: conv.check_r5(UNIT_THERMAL, UNIT_MUSHY, TINY_Q0).rhs,
                        lambda: _exact_groups(UNIT_THERMAL, UNIT_MUSHY, TINY_Q0)["R5"]),
    "check_r6 k rho c": (lambda: diri.check_r6(TINY_RHO_K, UNIT_BOUNDARY).lhs,
                         lambda: _exact_groups(TINY_RHO_K, UNIT_MUSHY, DIRICHLET_UNIT)["A"]),
    "check_r7 rho k": (lambda: diri.check_r7(TINY_RHO_K, UNIT_BOUNDARY).rhs,
                       lambda: mpmath.erf(_eta_r7(TINY_RHO_K, UNIT_BOUNDARY))),
    "check_r8 rho k": (lambda: diri.check_r8(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY).lhs,
                       lambda: mpmath.erf(_eta_r8(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY))),
    "check_r9 2 q0^2": (lambda: diri.check_r9(UNIT_THERMAL, UNIT_MUSHY, TINY_Q0).lhs,
                        lambda: _exact_groups(UNIT_THERMAL, UNIT_MUSHY, TINY_Q0)["R9"]),
    "check_r9 rho l k": (lambda: diri.check_r9(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY).lhs,
                         lambda: _exact_groups(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY)["R9"]),
    "check_r6 face argument": (lambda: diri.check_r6(*ZERO_INF_FACE).lhs,
                               lambda: _exact_groups(ZERO_INF_FACE[0], UNIT_MUSHY, ZERO_INF_FACE[1])["A"]),
    "check_r3 Stefan target": (lambda: conv.check_r3(*ZERO_INF_STEFAN, XI).rhs,
                               lambda: _exact_groups(*ZERO_INF_STEFAN[:1], UNIT_MUSHY, ZERO_INF_STEFAN[1])["S"]),
    "check_r7 Stefan target": (lambda: diri.check_r7(*ZERO_INF_STEFAN).rhs,
                               lambda: mpmath.erf(_eta_r7(*ZERO_INF_STEFAN))),
    "solve_eta_r7 rho k": (lambda: diri.solve_eta_r7(TINY_RHO_K, UNIT_BOUNDARY),
                           lambda: _eta_r7(TINY_RHO_K, UNIT_BOUNDARY)),
    "solve_eta_r8 rho k": (lambda: diri.solve_eta_r8(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY),
                           lambda: _eta_r8(TINY_RHO_K, UNIT_MUSHY, UNIT_BOUNDARY)),
    "conv.xi_equation_c rho l k d_inf beta": (
        lambda: conv.xi_equation_c(TINY_L_K, UNIT_MUSHY, UNIT_BOUNDARY).target,
        lambda: _exact_groups(TINY_L_K, UNIT_MUSHY, UNIT_BOUNDARY)["target_c"]),
    "diri.xi_equation_c rho l k d_inf beta": (
        lambda: diri.xi_equation_c(TINY_L_K, UNIT_MUSHY, UNIT_BOUNDARY).target,
        lambda: _exact_groups(TINY_L_K, UNIT_MUSHY, DIRICHLET_UNIT)["target_c"]),
}
DIRICHLET_UNIT = BoundaryData(q0=1.0, d_inf=1.0)


@pytest.mark.parametrize("name", ANSWERED_CALLS)
def test_public_checks_answer_where_only_a_product_leaves_the_range(name):
    # Where only a product leaves the double range, and not the group it
    # feeds, each group is formed from the data's mantissas and exponents:
    # the call answers within a few ulps of the 50-digit figure.
    call, exact = ANSWERED_CALLS[name]
    got, want = call(), float(exact())
    assert got == want or math.isclose(got, want, rel_tol=8 * 2.0**-53), (got, want)



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
