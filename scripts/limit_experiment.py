#!/usr/bin/env python3
"""How fast does the convective face become a prescribed-temperature face?

For one balanced instance, sweeps the exchange coefficient h0 over several
decades, recovers each unknown both ways, and tabulates the front-position
gap |xi_conv - xi_diri| and the relative coefficient gap per decade.  The
gaps shrink like 1/h0, so each column should lose one digit per decade.

    python3 scripts/limit_experiment.py --decades 6 --case gamma
    python3 scripts/limit_experiment.py --out gaps.csv        # all cases, CSV
"""

import argparse
import csv
import math
import sys
from pathlib import Path

# The package of this checkout, ahead of any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mushy.inverse_dirichlet import limit_study
from mushy.manufacture import manufacture
from mushy.model import Face, UnknownCase


def balanced_instance(xi: float, epsilon: float):
    # gamma such that the mushy term in the front balance carries the same
    # weight as the bare-front term: neither route dominates the recovery
    gamma = 2.0 * xi * math.exp(-xi * xi) / (1.0 - epsilon)
    return manufacture(
        xi=xi, k=1.0, rho=1.0, c=1.0, epsilon=epsilon, gamma=gamma, q0=1.0,
        face=Face.DIRICHLET,
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--xi", type=float, default=0.7)
    ap.add_argument("--epsilon", type=float, default=0.5)
    ap.add_argument("--decades", type=int, default=6, help="h0 from 10^1 up to 10^decades")
    ap.add_argument("--case", choices=[c.value for c in UnknownCase], default=None,
                    help="restrict to one unknown (default: all six)")
    ap.add_argument("--out", default=None, help="write CSV here instead of a table to stdout")
    args = ap.parse_args()

    prob = balanced_instance(args.xi, args.epsilon)
    grid = tuple(10.0 ** e for e in range(1, args.decades + 1))
    cases = [UnknownCase(args.case)] if args.case else list(UnknownCase)

    rows = []
    for case in cases:
        thermal, mushy, _ = prob.hide(case)
        study = limit_study(case, thermal, mushy, prob.boundary, grid)
        for h0, xi_c, coeff in zip(study.h0_grid, study.xi_conv, study.coeff_conv):
            rows.append({
                "case": case.value,
                "h0": h0,
                "xi_gap": abs(xi_c - study.xi_dirichlet),
                "coeff_rel_gap": abs(coeff - study.coeff_dirichlet) / abs(study.coeff_dirichlet),
            })
        print(f"# {case.value}: fitted slope of log|xi gap| vs log h0 = {study.fitted_slope:.4f}",
              file=sys.stderr)

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["case", "h0", "xi_gap", "coeff_rel_gap"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        print(f"{'case':<10}{'h0':>12}{'xi gap':>14}{'coeff rel gap':>16}")
        for row in rows:
            print(f"{row['case']:<10}{row['h0']:>12.0e}{row['xi_gap']:>14.3e}{row['coeff_rel_gap']:>16.3e}")


if __name__ == "__main__":
    main()
