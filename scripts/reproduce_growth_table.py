#!/usr/bin/env python3
"""Recompute growth rates and ending-letter proportions for a range of n,
check the proved bounds, and report the deviation from the reference values
published in the paper (spectral.GROWTH_TABLE).

Usage: python scripts/reproduce_growth_table.py [--to N] [--tol T]
"""

import argparse
import sys
import time

from braidlex import automaton as am
from braidlex import spectral as sp
from braidlex.spectral import GROWTH_TABLE


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--to", type=int, default=9)
    parser.add_argument("--tol", type=float, default=sp.DEFAULT_TOL)
    args = parser.parse_args()

    rows = []
    print(f"{'n':>2} {'lambda':>20} {'P_a1':>21} {'P_1':>13} {'iters':>6} {'vs reference':>13}")
    for n in range(2, args.to + 1):
        t0 = time.monotonic()
        an = sp.analyze(am.build(n), tol=args.tol)
        dt = time.monotonic() - t0
        rows.append(an.row)
        ref = GROWTH_TABLE.get(n)
        dev = (
            max(
                abs(an.row.lam - ref[0]),
                abs(an.row.p_a1 - ref[1]),
                abs(an.row.p_1 - ref[2]),
            )
            if ref
            else float("nan")
        )
        print(
            f"{n:>2} {an.row.lam:>20.17f} {an.row.p_a1:>21.18f} "
            f"{an.row.p_1:>13.10f} {an.result.iterations:>6} {dev:>13.2e}  ({dt:.1f}s)"
        )
    sp.bound_report(rows)  # raises BoundViolationError naming the bound
    print("all bounds hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
