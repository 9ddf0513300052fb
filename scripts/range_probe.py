#!/usr/bin/env python3
"""Solve wide-range data and sort each answer against a 60-digit oracle.

The recipe (``tests/oracle.wide_range_draws``): ``random.Random(seed)``
draws l, k, rho, c, gamma, q0, d_inf and h0, in that order, each
exp(U(ln 1e-200, ln 1e200)), then epsilon from U(0.01, 0.99).  Each draw
runs the l, gamma and epsilon cells on both faces, then the k, rho and c
cells.  A case is kept when its exact restrictions hold and its exact
answer, for the double data as given, is a positive normal double (for
epsilon, one in (0, 1)).  The exact answer is ``tests/oracle.face_cell``
at 60 digits for l, gamma and epsilon (``oracle.recipe_face_cell``;
restrictions R1 and R2, or R6, and the signs of the answer), and
``oracle.root_cell`` for k, rho and c (``oracle.recipe_root_cell``: R1 for
k and rho, R1 and R5, or R9, for c), from a start of its own.

One table per family sorts the kept cases by outcome: an answer within
1e-10 of the exact one, an answer further off (returned but wrong, with how
many of those 2 kappa u explains, kappa the 60-digit condition number), a
false restriction failure (exit 2, by restriction), a NoRootError, a
ConvergenceError, and each other NumericalError message with its numbers
blanked.  Answers the library returns for cases that are not kept are
counted below each table.  The last line is a sha256 over every outcome of
both tables in order: the value and xi of an answer (each as ``float.hex``),
or the type and message of the error raised; two checkouts that print the
same digest for the same arguments returned the same bits and the same
errors.  The exit status is 1 when an answer is returned but wrong or a
solve raises ConvergenceError, else 0.  Needs mpmath.

    python3 scripts/range_probe.py --n 20000
"""

import argparse
import collections
import hashlib
import re
import sys
import time
import warnings
from pathlib import Path

# The package of this checkout, ahead of any installed copy, and its oracle.
_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "tests"))

import oracle  # noqa: E402
from mushy import inverse_convective, inverse_dirichlet  # noqa: E402
from mushy.errors import ConvergenceError, NoRootError, RestrictionError, SolverError  # noqa: E402
from mushy.model import BoundaryData, Face, MushyCoefficients, ThermalCoefficients, UnknownCase  # noqa: E402

CASES = (UnknownCase.L, UnknownCase.GAMMA, UnknownCase.EPSILON)
ROOT_CASES = (UnknownCase.K, UnknownCase.RHO, UnknownCase.C)
SOLVERS = {Face.CONVECTIVE: inverse_convective.solve_case, Face.DIRICHLET: inverse_dirichlet.solve_dirichlet_case}
TOLERANCE = 1e-10
U = 2.0**-53
_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def outcome_label(err: SolverError) -> str:
    if isinstance(err, RestrictionError):
        return "false exit 2: " + " ".join(err.failed_ids())
    if isinstance(err, (NoRootError, ConvergenceError)):
        return type(err).__name__
    return "NumericalError: " + _NUMBER.sub("#", str(err))[:90]


def solve(face: Face, case: UnknownCase, data: dict):
    """The library's result for one case of a draw, or the error it raised."""
    given = {name: (None if name == case.value else value) for name, value in data.items()}
    thermal = ThermalCoefficients(**{name: given[name] for name in ("l", "k", "rho", "c")})
    mushy = MushyCoefficients(epsilon=given["epsilon"], gamma=given["gamma"])
    boundary = BoundaryData(q0=data["q0"], d_inf=data["d_inf"], h0=data["h0"] if face is Face.CONVECTIVE else None)
    try:
        return SOLVERS[face](case, thermal, mushy, boundary)
    except SolverError as err:
        return err


def outcomes(n: int, seed: int, faces=tuple(Face), cases=CASES):
    """Each case of ``cases`` (the l, gamma and epsilon cells, or
    ROOT_CASES) of ``n`` recipe draws on ``faces``: (face, case, data, the
    library's result or the SolverError it raised, the exact answer, whether
    the exact restrictions hold, whether the case is kept)."""
    for data in oracle.wide_range_draws(n, seed):
        for face in faces:
            for case in cases:
                cell = oracle.recipe_root_cell if case in ROOT_CASES else oracle.recipe_face_cell
                theta = cell(case.value, data, face is Face.CONVECTIVE)
                yield (face, case, data, solve(face, case, data), theta, *oracle.recipe_verdicts(case.value, theta))


def condition(face: Face, case: UnknownCase, data: dict, xi: float) -> float:
    """The 60-digit condition number kappa of the case's answer at ``xi``."""
    known = {name: value for name, value in data.items()
             if name != case.value and (face is Face.CONVECTIVE or name != "h0")}
    cell_condition = oracle.root_cell_condition if case in ROOT_CASES else oracle.face_cell_condition
    return float(cell_condition(case.value, known, xi)[1])


def probe(n: int, seed: int, cases, digest) -> collections.Counter:
    """The outcome counts of the kept cases, and of two outcomes of the rest;
    every outcome also updates the sha256 ``digest``."""
    counts = collections.Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for face, case, data, outcome, theta, holds, kept in outcomes(n, seed, cases=cases):
            if isinstance(outcome, SolverError):
                digest.update(f"{type(outcome).__name__}: {outcome}\n".encode())
            else:
                digest.update(f"{outcome.value.hex()} {outcome.xi.hex()}\n".encode())
            if not kept:
                if not isinstance(outcome, SolverError):
                    counts["returned, not kept"] += 1
                elif holds and isinstance(outcome, (RestrictionError, NoRootError)):
                    counts["RestrictionError or NoRootError, not kept"] += 1
                continue
            counts["kept"] += 1
            if isinstance(outcome, SolverError):
                counts[outcome_label(outcome)] += 1
                continue
            error = abs(float((outcome.value - theta) / theta))
            if error <= TOLERANCE:
                counts["within 1e-10"] += 1
                continue
            counts["returned but wrong"] += 1
            if error <= 2.0 * condition(face, case, data, outcome.xi) * U:
                counts["returned but wrong, within 2 kappa u"] += 1
            else:
                print(f"wrong: {face.value} {case.value} error {error:.3g} {data}", file=sys.stderr)
    return counts


def table(counts: collections.Counter, n: int, cases, elapsed: float) -> None:
    """Print the outcome table of ``counts`` for ``cases`` on ``n`` draws."""
    kept = counts.pop("kept", 0)
    not_kept = counts.pop("returned, not kept", 0)
    false_failures = counts.pop("RestrictionError or NoRootError, not kept", 0)
    exit_2 = sorted(label for label in counts if label.startswith("false exit 2:"))
    counts["false exit 2"] = sum(counts[label] for label in exit_2)
    rows = ["within 1e-10", "returned but wrong", "returned but wrong, within 2 kappa u", "false exit 2", *exit_2,
            "NoRootError"]
    if cases is ROOT_CASES:  # only a root solve can exhaust its budget
        rows.append("ConvergenceError")
    rows += sorted((label for label in counts if label.startswith("NumericalError")), key=lambda label: -counts[label])
    print(f"{'outcome':<96}{'cases':>8}")
    for label in rows:
        print(f"{label:<96}{counts[label]:>8}")
    print(f"\n{kept} kept cases of {2 * len(cases) * n} in {elapsed:.1f} s.  Not kept: {not_kept} answers returned, "
          f"{false_failures} RestrictionError or NoRootError where the exact restrictions hold.")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20000, help="draws (default 20000)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    failed = False
    digest = hashlib.sha256()
    for cases in (CASES, ROOT_CASES):
        if cases is ROOT_CASES:
            print(f"\nThe {', '.join(case.value for case in cases)} cells:\n")
        start = time.perf_counter()
        counts = probe(args.n, args.seed, cases, digest)
        table(counts, args.n, cases, time.perf_counter() - start)
        failed = failed or counts["returned but wrong"] or counts["ConvergenceError"]
    print(f"sha256 {digest.hexdigest()}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
