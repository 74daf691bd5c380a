"""Perron-Frobenius analysis of the recurrent incidence matrix.

The dominant eigenvalue of the recurrent matrix is the growth rate of the
monoid; the sum-normalized left eigenvector is the stationary distribution
over recurrent states, and summing it by final letter gives the limiting
proportion of long representatives ending with each generator.  Power
iteration suffices: the matrix is primitive, so the Perron root is simple
and strictly dominant; restarts from a reduced rank extrapolation cancel
the slow modes that make it take many steps.
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
#: perron tries a reduced rank extrapolation every RRE_EVERY steps, from the
#: last RRE_K + 2 iterates, and after a restart takes at least RRE_POLISH
#: plain steps before its stop test may fire.
RRE_EVERY = 20
RRE_K = 4
RRE_POLISH = 10


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
    """Left power iteration from the uniform vector, L1-normalized each step,
    restarted now and then from a reduced rank extrapolation (RRE).

    Stops when consecutive eigenvalue estimates differ by less than tol and
    the residual sup norm drops below tol.  Raises ConvergenceError after
    max_iter steps, or sooner once the residual has set no new minimum for
    STALL_STEPS steps; its ``history`` holds (iteration, lambda, residual)
    at each restart and at the failing step.  Raises ValueError unless
    tol > 0, which also refuses NaN, for an infinite tol, which would stop
    after one step, unless max_iter >= 1, and for a 0x0 matrix, which has
    no Perron root.

    The error of an iterate lives mostly in a few slow modes (|lambda_2| /
    lambda_1 is 0.86-0.94 at n = 6..8), so every RRE_EVERY = 20 steps RRE
    (Sidi, *Vector Extrapolation Methods with Applications*, 2017) takes
    the last K + 2 = 6 iterates x_0..x_5 (K = RRE_K = 4) and their
    differences u_i = x_{i+1} - x_i, solves G y = 1 for the 5x5 Gram matrix
    G_ij = u_i . u_j, and forms sum_i gamma_i x_{i+1} with gamma = y / sum(y):
    RRE's weights on the iterates one step later than its sum_i gamma_i x_i,
    which took 852 steps against 881 over n = 2..10.
    perron restarts from that combination, L1-normalized, only when it is
    finite and strictly positive; otherwise (a singular G, a combination
    with a sign change) it goes on with plain power steps.  After a restart
    the stop test waits for at least RRE_POLISH = 10 plain steps, so the
    returned vector and residual come from a power step, and the stop
    contract is that of plain power iteration.  The Gram matrix, the solve
    and the combination use numpy ufuncs and plain Python, no BLAS or
    LAPACK, so the printed digits do not depend on OpenBLAS's thread count
    or CPU kernel; and the differences overwrite the iterates in their
    buffer, so the loop holds RRE_K + 2 vectors more than plain power
    iteration and no copy of them.

    Each step computes v R as R^T v on the CSR form of R^T, built once
    before the loop: ``v @ R`` would have scipy transpose R into a new CSC
    object on every step, half the cost of a step.  Entry q of R^T v still
    sums v_p over the rows p of R with an arrow to q, in ascending order
    from 0.0, so between restarts every iterate is bitwise what ``v @ R``
    gives.  Row q of R^T lists those p in that order because R's pairs are
    row-major and scipy's COO to CSR conversion, the one count_words uses
    for M^T, places them by a stable counting sort on the column.
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
    mat_t = csr_matrix((np.ones(len(rows)), (cols, rows)), shape=(R.dim, R.dim))
    last = np.empty((RRE_K + 2, R.dim))  # the iterate of step s in row s % (RRE_K + 2)
    v = np.full(R.dim, 1.0 / R.dim)
    gap = np.empty(R.dim)  # |w - lam v|, one buffer for every step
    lam_prev = 0.0
    best, best_it = float("inf"), 0
    restart = 0  # the step of the last restart
    history = []
    for it in range(1, max_iter + 1):
        w = mat_t @ v
        lam = float(np.add.reduce(w))  # = ||w||_1 since w >= 0 and ||v||_1 = 1
        if lam <= 0.0:
            history.append((it, lam, None))
            raise ConvergenceError(
                f"iterate vanished at step {it}", residual=None, history=history
            )
        np.multiply(v, lam, out=gap)
        np.subtract(w, gap, out=gap)
        residual = float(np.maximum.reduce(np.abs(gap, out=gap)))
        v = np.divide(w, lam, out=last[it % len(last)])
        polished = not restart or it - restart >= RRE_POLISH
        if abs(lam - lam_prev) < tol and residual < tol and polished:
            return SpectralResult(lam, v.copy(), it, residual)  # v is a row of last
        lam_prev = lam
        if residual < best:
            best, best_it = residual, it
        elif it - best_it >= STALL_STEPS:
            history.append((it, lam, residual))
            raise ConvergenceError(
                f"residual {best:.3e} from step {best_it} not improved in "
                f"{STALL_STEPS} iterations (tol {tol:.3e})",
                residual=residual,
                history=history,
            )
        if (it - restart) % RRE_EVERY == 0 and _extrapolate(last, it, gap):
            restart = it  # v, the row of step it, holds the combination
            history.append((it, lam, residual))
    history.append((max_iter, lam, residual))
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (residual {residual:.3e})",
        residual=residual,
        history=history,
    )


def _extrapolate(last: np.ndarray, it: int, out: np.ndarray) -> bool:
    """RRE from the iterates of steps it - RRE_K - 1 .. it in ``last``.

    On success the L1-normalized combination replaces the iterate of step
    it in ``last`` and the result is True.  The other rows end up holding
    scaled differences either way; ``out`` is scratch.
    """
    k = len(last)
    x = [last[(it - k + 1 + i) % k] for i in range(k)]  # oldest first
    for i in range(k - 1):
        np.subtract(x[i + 1], x[i], out=x[i])  # u_i, in place of x_i
    u = x[:-1]
    gram = [[0.0] * len(u) for _ in u]
    for i in range(len(u)):
        for j in range(i, len(u)):
            gram[i][j] = gram[j][i] = float(np.add.reduce(np.multiply(u[i], u[j], out=out)))
    y = _solve_for_ones(gram)
    if y is None or not math.isfinite(total := sum(y)) or total == 0.0:
        return False
    # sum_i gamma_i x_{i+1} = x_last - sum_m (gamma_0 + ... + gamma_{m-1}) u_m
    np.copyto(out, x[-1])
    acc = 0.0
    for um, ym in zip(u[1:], y):
        acc += ym / total
        np.subtract(out, np.multiply(um, acc, out=um), out=out)
    mass = float(np.add.reduce(out))
    if not (math.isfinite(mass) and np.minimum.reduce(out) > 0.0):
        return False
    np.divide(out, mass, out=x[-1])
    return True


def _solve_for_ones(a: list[list[float]]) -> list[float] | None:
    """y with a y = (1, ..., 1), by Gaussian elimination with partial
    pivoting, or None when a pivot is zero or not finite."""
    m = [row + [1.0] for row in a]
    n = len(m)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(m[r][c]))
        if not (m[p][c] != 0.0 and math.isfinite(m[p][c])):
            return None
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for j in range(c, n + 1):
                m[r][j] -= f * m[c][j]
    y = [0.0] * n
    for r in range(n - 1, -1, -1):
        y[r] = (m[r][n] - sum(m[r][j] * y[j] for j in range(r + 1, n))) / m[r][r]
    return y


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
