#!/usr/bin/env python3
"""Stress the coefficient-recovery machinery on random consistent problems.

Draws manufactured problems (known ground truth) for both face conditions,
hides each coefficient in turn, recovers it, and reports the worst relative
error seen per case together with throughput.  Useful after touching the
root-finder or either inverse module; the numbers should sit far below the
1e-10 the test suite enforces.  Near erf saturation erf_inv warns that its
result is ill conditioned; the sweep counts those warnings and prints the
count with the throughput instead of printing each one.

The last line is a sha256 over every recovery in order: its value, xi, the
fields of its solution (each as ``float.hex``) and its restriction reports,
or the type and message of the error it raised.  Two checkouts that print
the same digest for the same arguments computed bit-identical results.

    python3 scripts/recovery_sweep.py --n 2000 --seed 1
"""

import argparse
import hashlib
import random
import sys
import time
import warnings
from pathlib import Path

# The package of this checkout, ahead of any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mushy import inverse_convective, inverse_dirichlet
from mushy.errors import IllConditionedWarning, SolverError
from mushy.manufacture import random_problem
from mushy.model import CaseResult, Face, UnknownCase


def _fingerprint(result: CaseResult) -> str:
    """Every number of one recovery, exactly, and its restriction reports."""
    sol = result.solution
    numbers = (result.value, result.xi, sol.a_coef, sol.b_coef, sol.xi, sol.mu, sol.alpha)
    reports = (
        f"{r.restriction_id} {r.satisfied} {float(r.lhs).hex()} {float(r.rhs).hex()} {r.note}"
        for r in result.reports
    )
    return " ".join(float(x).hex() for x in numbers) + " | " + " | ".join(reports)


def sweep(n: int, seed: int, xi_max: float) -> None:
    rng = random.Random(seed)
    worst: dict[tuple[str, str], float] = {}
    digest = hashlib.sha256()
    solves = raised = 0
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IllConditionedWarning)
        for face, solver in (
            (Face.CONVECTIVE, inverse_convective.solve_case),
            (Face.DIRICHLET, inverse_dirichlet.solve_dirichlet_case),
        ):
            for _ in range(n):
                prob = random_problem(rng, face=face, xi_range=(0.05, xi_max))
                for case in UnknownCase:
                    thermal, mushy, truth = prob.hide(case)
                    solves += 1
                    try:
                        result = solver(case, thermal, mushy, prob.boundary)
                    except SolverError as err:
                        digest.update(f"{type(err).__name__}: {err}\n".encode())
                        raised += 1
                        continue
                    digest.update((_fingerprint(result) + "\n").encode())
                    rel = abs(result.value - truth) / abs(truth)
                    key = (face.value, case.value)
                    worst[key] = max(worst.get(key, 0.0), rel)
    elapsed = time.perf_counter() - start
    ill = sum(issubclass(w.category, IllConditionedWarning) for w in caught)

    print(f"{'face':<12}{'case':<10}{'worst rel error':>18}")
    for (face, case), rel in sorted(worst.items()):
        print(f"{face:<12}{case:<10}{rel:>18.3e}")
    print(f"\n{solves} recoveries in {elapsed:.2f} s ({solves / elapsed:,.0f}/s; {ill} ill-conditioned warnings)")
    print(f"sha256 {digest.hexdigest()} ({raised} raised)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1000, help="problems per face (default 1000)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--xi-max", type=float, default=2.0, help="upper end of the front-position range")
    args = ap.parse_args()
    sweep(args.n, args.seed, args.xi_max)


if __name__ == "__main__":
    main()
