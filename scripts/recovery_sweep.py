#!/usr/bin/env python3
"""Stress the coefficient-recovery machinery on random consistent problems.

Draws manufactured problems (known ground truth) for both face conditions,
hides each coefficient in turn, recovers it, and reports the worst relative
error seen per case together with throughput.  Useful after touching the
root-finder or either inverse module; the numbers should sit far below the
1e-10 the test suite enforces.

    python3 scripts/recovery_sweep.py --n 2000 --seed 1
"""

import argparse
import random
import sys
import time
from pathlib import Path

# The package of this checkout, ahead of any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mushy import inverse_convective, inverse_dirichlet
from mushy.manufacture import random_problem
from mushy.model import Face, UnknownCase


def sweep(n: int, seed: int, xi_max: float) -> None:
    rng = random.Random(seed)
    worst: dict[tuple[str, str], float] = {}
    solves = 0
    start = time.perf_counter()
    for face, solver in (
        (Face.CONVECTIVE, inverse_convective.solve_case),
        (Face.DIRICHLET, inverse_dirichlet.solve_dirichlet_case),
    ):
        for _ in range(n):
            prob = random_problem(rng, face=face, xi_range=(0.05, xi_max))
            for case in UnknownCase:
                thermal, mushy, truth = prob.hide(case)
                result = solver(case, thermal, mushy, prob.boundary)
                rel = abs(result.value - truth) / abs(truth)
                key = (face.value, case.value)
                worst[key] = max(worst.get(key, 0.0), rel)
                solves += 1
    elapsed = time.perf_counter() - start

    print(f"{'face':<12}{'case':<10}{'worst rel error':>18}")
    for (face, case), rel in sorted(worst.items()):
        print(f"{face:<12}{case:<10}{rel:>18.3e}")
    print(f"\n{solves} recoveries in {elapsed:.2f} s ({solves / elapsed:,.0f}/s)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1000, help="problems per face (default 1000)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--xi-max", type=float, default=2.0, help="upper end of the front-position range")
    args = ap.parse_args()
    sweep(args.n, args.seed, args.xi_max)


if __name__ == "__main__":
    main()
