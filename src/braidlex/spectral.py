"""Perron-Frobenius analysis of the recurrent incidence matrix.

The dominant eigenvalue of the recurrent matrix is the growth rate of the
monoid; the sum-normalized left eigenvector is the stationary distribution
over recurrent states, and summing it by final letter gives the limiting
proportion of long representatives ending with each generator.  Power
iteration suffices: the matrix is primitive, so the Perron root is simple
and strictly dominant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .automaton import Automaton, SparseBooleanMatrix, recurrent_matrix, recurrent_states
from .configs import key_fields
from .errors import BoundViolationError, ConvergenceError

#: Every growth rate stays strictly below the limit of the sequence.
GROWTH_RATE_CEILING = 3.233637
#: Uniform lower bound for the proportion of representatives ending with a_1.
P1_FLOOR = 1 / 8
#: Uniform lower bound for the proportion ending at the state (1,1,1,{}).
P_STATE_FLOOR = 1 / 32
#: The proved bounds that bound_report checks, by name, in its order.
BOUNDS = (
    "P_1 > 1/8",
    "P_a1 > 1/32",
    f"lambda < {GROWTH_RATE_CEILING}",
    "P_1 = lambda * P_a1",
    "lambda strictly increasing",
    "P_1 strictly decreasing",
)
#: Largest |P_1 - lambda * P_a1| that bound_report accepts.
PRODUCT_TOL = 1e-10

DEFAULT_TOL = 1e-13
DEFAULT_MAX_ITER = 100_000
#: perron gives up once the residual has set no new minimum for this many
#: steps: tol is then below what double precision reaches on the matrix.
STALL_STEPS = 1000


@dataclass
class SpectralResult:
    lam: float                 # Perron-Frobenius eigenvalue (growth rate)
    v: np.ndarray              # left eigenvector, entries > 0, sum 1
    iterations: int
    residual: float            # sup norm of v R - lam v


@dataclass
class ProportionReport:
    n: int
    per_letter: tuple[float, ...]   # index r-1 <-> letter r; sums to 1
    p_state_t11: float              # mass of the state (1,1,1,{})


def perron(
    R: SparseBooleanMatrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    """Left power iteration from the uniform vector, L1-normalized each step.

    Stops when consecutive eigenvalue estimates differ by less than tol and
    the residual sup norm drops below tol.  Raises ConvergenceError after
    max_iter steps, or sooner once the residual has set no new minimum for
    STALL_STEPS steps.  Raises ValueError unless tol > 0, which also
    refuses NaN, for an infinite tol, which would stop after one step,
    unless max_iter >= 1, and for a 0x0 matrix, which has no Perron root.

    Each step computes v R as R^T v on the CSR form of R^T, built once
    before the loop: ``v @ R`` would have scipy transpose R into a new CSC
    object on every step, half the cost of a step.  Entry q of R^T v still
    sums v_p over the rows p of R with an arrow to q, in ascending order
    from 0.0, so every iterate is bitwise what ``v @ R`` gives.  Row q of
    R^T lists those p in that order because R's pairs are row-major and
    one stable sort by column keeps it.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if R.dim == 0:
        raise ValueError("perron needs a matrix of positive dimension, got 0x0")
    rows, cols = R.entries.T
    by_col = np.argsort(cols, kind="stable")
    starts = np.zeros(R.dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=R.dim), out=starts[1:])
    mat_t = csr_matrix((np.ones(len(by_col)), rows[by_col], starts), shape=(R.dim, R.dim))
    v = np.full(R.dim, 1.0 / R.dim)
    gap = np.empty(R.dim)  # |w - lam v|, one buffer for every step
    lam_prev = 0.0
    best, best_it = float("inf"), 0
    for it in range(1, max_iter + 1):
        w = mat_t @ v
        lam = float(np.add.reduce(w))  # = ||w||_1 since w >= 0 and ||v||_1 = 1
        if lam <= 0.0:
            raise ConvergenceError(f"iterate vanished at step {it}", residual=None)
        np.multiply(v, lam, out=gap)
        np.subtract(w, gap, out=gap)
        residual = float(np.maximum.reduce(np.abs(gap, out=gap)))
        v = w / lam
        if abs(lam - lam_prev) < tol and residual < tol:
            return SpectralResult(lam, v, it, residual)
        lam_prev = lam
        if residual < best:
            best, best_it = residual, it
        elif it - best_it >= STALL_STEPS:
            raise ConvergenceError(
                f"residual {best:.3e} from step {best_it} not improved in "
                f"{STALL_STEPS} iterations (tol {tol:.3e})",
                residual=residual,
            )
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (residual {residual:.3e})",
        residual=residual,
    )


def proportions(a: Automaton, r: SpectralResult) -> ProportionReport:
    """Ending-letter proportions from a spectral result for recurrent_matrix(a)
    in its default (sorted-index) row order."""
    rec = recurrent_states(a)
    if len(rec) != len(r.v):
        raise ValueError("spectral result does not match the recurrent block")
    keys = a.keys[rec]
    # bincount adds each bin's weights in row order, as a loop would
    per = np.bincount(key_fields(keys)[1] - 1, weights=r.v, minlength=a.n)
    row = np.flatnonzero(keys == np.uint64(0x111))  # the key of t11
    if not len(row):
        raise ValueError("state (1,1,1,{}) not found among recurrent states")
    return ProportionReport(a.n, tuple(per.tolist()), float(r.v[row[0]]))


# ---------------------------------------------------------------------------
# per-n summaries and the bound report
# ---------------------------------------------------------------------------

@dataclass
class GrowthRow:
    n: int
    lam: float
    p_a1: float    # proportion ending at state (1,1,1,{})
    p_1: float     # proportion ending with letter a_1


@dataclass
class SpectralAnalysis:
    n: int
    result: SpectralResult
    report: ProportionReport

    @property
    def row(self) -> GrowthRow:
        return GrowthRow(
            self.n, self.result.lam, self.report.p_state_t11, self.report.per_letter[0]
        )


def analyze(a: Automaton, tol: float = DEFAULT_TOL) -> SpectralAnalysis:
    res = perron(recurrent_matrix(a), tol=tol)
    return SpectralAnalysis(a.n, res, proportions(a, res))


def bound_report(rows: list[GrowthRow]) -> None:
    """Verify the proved bounds on consecutive growth rows; raise
    BoundViolationError naming the first failing bound."""
    p1_floor, pa1_floor, ceiling, product, increasing, decreasing = BOUNDS
    rows = sorted(rows, key=lambda r: r.n)
    for row in rows:
        if not row.p_1 > P1_FLOOR:
            raise BoundViolationError(p1_floor, row.n, row.p_1)
        if not row.p_a1 > P_STATE_FLOOR:
            raise BoundViolationError(pa1_floor, row.n, row.p_a1)
        if not row.lam < GROWTH_RATE_CEILING:
            raise BoundViolationError(ceiling, row.n, row.lam)
        if abs(row.p_1 - row.lam * row.p_a1) > PRODUCT_TOL:
            raise BoundViolationError(product, row.n, row.p_1 - row.lam * row.p_a1)
    for prev, cur in zip(rows, rows[1:]):
        if cur.n == prev.n + 1:
            if not cur.lam > prev.lam:
                raise BoundViolationError(increasing, cur.n, cur.lam)
            if not cur.p_1 < prev.p_1:
                raise BoundViolationError(decreasing, cur.n, cur.p_1)
