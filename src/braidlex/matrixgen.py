"""Direct recursive generator for the recurrent and whole incidence matrices.

The recurrent subautomaton on states (1, j, k, S) has a self-similar block
structure, and its incidence matrix can be written down without building the
automaton at all: a recursive ``submatrix`` routine fills the arrows of each
block, helped by a precomputed vector H of horizontal-arrow source positions.
A block's arrows move with its offset and nothing else, so each nested block
is made once per size and kind and added to every offset it occupies,
straight into the enclosing block's output.
This module transcribes that recipe line by line (see FIDELITY.md for the
two places where the printed pseudocode needed repair), except that each
printed ``for`` loop of arrows is one range of pairs: an ``np.arange`` of
sources, or a slice of H, put at once.  It also produces the
canonical state ordering that the recipe presupposes, so the result can be
diffed entrywise against the BFS-derived matrix of the automaton relabelled
to it by ``automaton.relabel``.

Canonical ordering of the recurrent block of size m, recursively:

  1. (1,1,1,{}), ..., (1,1,m,{})                       (m states)
  2. the black-shifted copy of the block of size m-1    (s*_{m-1} states)
  3. for i = 1 .. m-1: the size-i block embedded under an outer segment
     [1, i+1], followed by (1, i+1, k, {[1, i+1]}) for k = i+2 .. m.

The full automaton ordering stacks the white-shifted full ordering of size
n-1 (the transient states) before the recurrent block.  ``canonical_keys``
builds it as one array of packed keys (configs.pack), shifting by
configs.shift_keys; the recurrent order is its tail.  canonical_full_ordering
pairs it with the automaton's keys by one sort of each key array.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .automaton import (
    Automaton,
    SparseBooleanMatrix,
    StateCounts,
    check_build_limit,
    row_major_keys,
    state_counts,
    write_rows,
)
from .configs import shift_keys, unpack
from .errors import InternalConsistencyError


def compute_H(j: int) -> tuple[int, ...]:
    """Positions (0-based offsets from a block's anchor state) of the source
    states of the horizontal arrows between consecutive embedded blocks.

    H(1) = [0]; H(m) = H(m-1) concatenated with H(m-1) + x_m, where
    x_m = s*_m - s*_{m-1} - m.  Length 2^(j-1)."""
    if j < 1:
        raise ValueError("j must be positive")
    ss = state_counts(j).s_star
    h = [0]
    for m in range(2, j + 1):
        x = ss[m] - ss[m - 1] - m
        h += [e + x for e in h]
    return tuple(h)


def submatrix(j: int, H: Sequence[int], closed: bool, counts: StateCounts) -> np.ndarray:
    """The 1-entries of the size-j block with its upper-left corner at
    offset 0, as an (nnz, 2) int32 array of 0-based (row, col) pairs.

    The block at offset s is this array plus s, so each nested block is made
    once per (size, closed) and added to each of its offsets straight into
    the enclosing block's one output array, after that block's own arrows.
    ``closed`` selects between the block's own arrows (True) and the arrows
    of a black-shifted copy, whose would-be first-letter arrows leave the
    block into the enclosing one (False).  Matrix positions are 1-based in
    the arithmetic below, converted once the block's own pairs are joined.
    """
    if j > 2 and len(H) < 1 << (j - 2):
        raise ValueError(f"H has {len(H)} positions; a size-{j} block reads {1 << (j - 2)}")
    ss = counts.s_star
    H = np.asarray(H, dtype=np.int64)

    @lru_cache(maxsize=None)
    def block(j: int, closed: bool) -> np.ndarray:
        if j < 1:
            return np.empty((0, 2), dtype=np.int32)
        rows, cols = [], []
        nested = []  # (nested block, its offset)

        def put(p: np.ndarray, q) -> None:
            """The arrows p[t] -> q[t] (or -> q, for a scalar q)."""
            rows.append(p)
            cols.append(np.broadcast_to(q, p.shape))

        def span(lo: int, hi: int) -> np.ndarray:
            return np.arange(lo, hi, dtype=np.int64)

        if closed:
            put(span(1, j + 1), 1)                  # t_{1,i} -> t_{1,1}
        else:
            put(span(1, j + 1), 1 + ss[j])          # shifted t_{1,i} -> outer first bar block
        if j > 1:
            put(span(1, 2), j + 1)                  # t_{1,1} -> its black shift
        i = span(3, j + 1)
        put(i, j + i - 1)                           # t_{1,i} -> black shift of t_{1,i-1}
        nested.append((block(j - 1, False), j))
        sp = j + ss[j - 1]                          # sp + 1 = position of the first bar block
        for i in range(1, j):
            nested.append((block(i, True), sp))
            if i == 1:
                put(sp + 1 + span(1, j - 1), sp + 1)  # chain states into the single bar-1 state
            else:
                put(sp + ss[i] + span(1, j - i), sp + comb(i + 1, 2) + 1)
            k = sp + ss[i] + span(2, j - i)
            put(k, k + ss[i + 1] + j - i - 2)
            if closed:
                put(span(sp + 1, sp + ss[i] + j - i), i + 1)  # first-letter arrows -> t_{1,i+1}
            else:
                put(span(sp + 1, sp + ss[i] + j - i), ss[j] + i + 1)
            if i < j - 1:
                put(
                    sp + comb(i + 1, 2) + H[: 2 ** (i - 1)],
                    sp + ss[i] + j - i - 1 + comb(i + 2, 2) + H[: 2**i : 2],
                )
            sp += ss[i] + j - i - 1
        k = sum(map(len, rows))
        out = np.empty((k + sum(len(b) for b, _ in nested), 2), dtype=np.int32)
        np.concatenate(rows, out=out[:k, 0])
        np.concatenate(cols, out=out[:k, 1])
        out[:k] -= 1
        for b, offset in nested:
            np.add(b, offset, out=out[k : k + len(b)])
            k += len(b)
        return out

    try:
        return block(j, closed)
    finally:
        block.cache_clear()  # block refers to itself: free the blocks now, not at a GC pass


def build_R_direct(n: int) -> SparseBooleanMatrix:
    """Recurrent incidence matrix generated without the automaton, under
    the one size guard, check_build_limit."""
    check_build_limit(n)
    counts = state_counts(n)
    H = compute_H(max(1, n - 1))
    return SparseBooleanMatrix(counts.s_star[n], submatrix(n, H, True, counts))


def build_M_direct(n: int) -> SparseBooleanMatrix:
    """The whole matrix in canonical full order, M_n = [[M_{n-1}, 1 e_0^T], [0, R_n]]:
    level m is R_m at offset s_{m-1}, and each earlier state has one arrow to its t_11."""
    check_build_limit(n)
    s = state_counts(n).s
    parts = []
    for m in range(1, n + 1):
        t = s[m - 1]
        parts += [np.c_[np.arange(t), np.full(t, t)], build_R_direct(m).entries + t]
    parts = np.concatenate(parts, dtype=np.int32)  # frees the blocks before the sort
    return SparseBooleanMatrix(s[n], parts)


# ---------------------------------------------------------------------------
# canonical state orderings
# ---------------------------------------------------------------------------

def _prepend_black(keys: np.ndarray, bar: int = 0) -> np.ndarray:
    """Shift every key and make the new first cell black (i = 1); a
    positive ``bar`` also adds the outer segment [1, bar] (nibble 3)."""
    return shift_keys(keys) & ~np.uint64(15) | np.uint64(1 | bar << 12)


def canonical_keys(n: int) -> np.ndarray:
    """Every state of the size-n automaton as a key, in canonical order.

    The levels are built bottom-up: star(m), the recurrent block of size
    m, follows the recursion of the module docstring, and the full order is
    full(m) = shift(full(m-1)) ++ star(m).  So the recurrent order is the
    last s*_n keys.
    """
    stars = [np.empty(0, dtype=np.uint64)]
    full = stars[0]
    for m in range(1, n + 1):
        ks = np.arange(1, m + 1, dtype=np.uint64) << np.uint64(8)  # k = 1 .. m
        parts = [ks | np.uint64(0x11), _prepend_black(stars[m - 1])]
        for i in range(1, m):
            parts.append(_prepend_black(stars[i], i + 1))
            # (1, i+1, k, {[1, i+1]}) for k = i+2 .. m
            parts.append(ks[i + 1 :] | np.uint64(1 | (i + 1) << 4 | (i + 1) << 12))
        stars.append(np.concatenate(parts))
        full = np.concatenate((shift_keys(full), stars[m]))
    return full


def canonical_full_ordering(a: Automaton) -> np.ndarray:
    """The state index of each canonical full position (transients first),
    as an int64 array: the k-th smallest state key and the k-th smallest
    canonical key are one configuration.  Raises InternalConsistencyError
    naming a canonical configuration that the automaton lacks."""
    want = canonical_keys(a.n)
    by_key, by_rank = np.argsort(a.keys), np.argsort(want)
    if not np.array_equal(a.keys[by_key], want[by_rank]):
        c = unpack(want[~np.isin(want, a.keys)][0])
        raise InternalConsistencyError(f"canonical config {c} missing from automaton")
    order = np.empty(len(want), dtype=np.int64)
    order[by_rank] = by_key
    return order


# ---------------------------------------------------------------------------
# comparisons and export
# ---------------------------------------------------------------------------

def diff_matrices(
    first: SparseBooleanMatrix, second: SparseBooleanMatrix
) -> list[tuple[int, int, str]]:
    """Coordinates present in exactly one matrix, sorted; empty means equal."""
    if first.dim != second.dim:
        raise ValueError(f"dimension mismatch: {first.dim} vs {second.dim}")
    # each matrix holds its pairs once in row-major order, so its row-major
    # keys are sorted and unique
    a, b = (row_major_keys(m.entries, m.dim) for m in (first, second))
    only = [(k, s) for mine, other, s in ((a, b, "only-in-first"), (b, a, "only-in-second"))
            for k in _absent(mine, other).tolist()]
    return [(*divmod(k, first.dim), s) for k, s in sorted(only)]


def _absent(keys: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The entries of ``keys`` missing from the sorted array ``other``:
    one binary search of each key, with no sort."""
    if not len(other):
        return keys
    at = np.searchsorted(other, keys)
    np.minimum(at, len(other) - 1, out=at)
    return keys[other[at] != keys]


def to_matrix_market(m: SparseBooleanMatrix, fh) -> None:
    """The matrix as Matrix Market coordinate text, one "p q 1" line per
    entry, 1-based, in row-major order, written into ``fh`` as the header
    and then by write_rows, so the whole text is never held."""
    fh.write(f"%%MatrixMarket matrix coordinate integer general\n{m.dim} {m.dim} {len(m.entries)}\n")
    write_rows(fh, "{} {} 1\n", m.entries.T, m.dim, base=1)


def to_csv(m: SparseBooleanMatrix, fh) -> None:
    """The matrix as dense CSV, one line of 0/1 cells per row, into ``fh``."""
    # each row is dim cells "0,"; an entry writes its "1" over the "0", and
    # the comma closing the row becomes the newline
    buf = np.tile(np.frombuffer(b"0,", dtype=np.uint8), (m.dim, m.dim))
    buf[m.entries[:, 0], 2 * m.entries[:, 1]] = ord("1")
    buf[:, -1:] = ord("\n")
    text = str(buf, "ascii") or "\n"  # a 0 x 0 matrix is one empty line
    del buf  # the write encodes the text: two copies of it at a time, not three
    fh.write(text)
