#!/usr/bin/env python3
"""Cross-validate the two routes to the recurrent incidence matrix: the
direct recursive generator against the BFS-built automaton, entrywise under
the canonical ordering, plus dominant-eigenvalue agreement.

Usage: python scripts/crosscheck_generators.py [--to N]
"""

import argparse
import sys
import time

from braidlex import automaton as am
from braidlex import matrixgen as mg
from braidlex import spectral as sp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--to", type=int, default=9)
    args = parser.parse_args()

    failures = 0
    for n in range(1, args.to + 1):
        t0 = time.monotonic()
        a = am.build(n)
        direct = mg.build_R_direct(n)
        bfs = am.recurrent_matrix(a, mg.canonical_ordering(a))
        diffs = mg.diff_matrices(direct, bfs)
        lam_bfs = sp.perron(bfs).lam
        lam_gen = sp.perron(direct).lam
        dt = time.monotonic() - t0
        status = "ok" if not diffs and abs(lam_bfs - lam_gen) < 1e-10 else "MISMATCH"
        print(
            f"n={n}: dim={direct.dim} nnz={len(direct.entries)} "
            f"entry diffs={len(diffs)} |dlambda|={abs(lam_bfs - lam_gen):.1e} "
            f"{status} ({dt:.1f}s)"
        )
        if status != "ok":
            failures += 1
            for p, q, side in diffs[:10]:
                print(f"    ({p}, {q}) {side}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
