"""BFS construction of the representative automaton, counting, matrices.

States are segment configurations discovered by breadth-first closure from
the initial configuration (n, n, n, {}); state 0 is the initial state and
indices follow the order a queue would give.  The BFS walks one level at a
time on packed uint64 keys (configs.pack) with the array rule
configs.successors, sorts each level's targets once, and finds them by one
search of the canonical keys (configs.canonical_keys), sorted once, whose
count the closed form s_n must give.  An Automaton holds a
key array and a flat int32 (state, letter) table, each allocated once, and
nothing else: recurrent_states proves the recurrent split from the table
on every call.  Readers of i or j take them from the keys, and a reader that
needs a SegmentConfig (export, the psi check of ``verify``) unpacks each
key where it reads it.  A key holds n <= 14.  A reader that needs another
state order, such as the canonical order, ``relabel``s the automaton once
and reads it in index order.  Counting is exact: count_words keeps each
state's count as a row of int64 limbs holding base-2^b digits, in one
C-order array, and advances all of them by int64 products with the sparse
M^T, or, on small automata, by float64 BLAS products with a dense power of
M^T whose every sum stays below 2^53.  One carry pass along the flat array
leaves every digit below 2^b + ((2^63 - 1) >> b), and the int64 steps carry
once every S, S the most steps whose paths into one state, times such a
digit, stay below 2^63, so it returns arbitrary precision integers.  The
width b is the widest of 56, 48, 40 and 32 bits whose S is at least 2, and
32 bits on the dense block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np
from scipy.sparse import csr_matrix

from .configs import MAX_KEY_N, canonical_keys, initial_config, key_fields, pack, successors, unpack
from .errors import BraidWordError, BuildLimitError, InternalConsistencyError


# ---------------------------------------------------------------------------
# state counts
# ---------------------------------------------------------------------------

def _state_count_terms(n: int):
    """s_0, s_1, ..., s_n by the recurrence, on two running values."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev, cur = 0, 0  # s_{-1}, s_0: the recurrence then gives s_1 = 1
    yield cur
    for m in range(1, n + 1):
        prev, cur = cur, 3 * cur - prev + comb(m, 2) + 1
        yield cur


def state_count_recurrence(n: int) -> int:
    """s_0 = 0, s_1 = 1, s_n = 3 s_{n-1} - s_{n-2} + C(n, 2) + 1."""
    for s in _state_count_terms(n):
        pass
    return s


def state_count_formula(n: int) -> int:
    """Closed form through even-index Fibonacci numbers:
    s_n = sum_{i=1..n} (C(n+1-i, 2) + 1) * F_{2i}."""
    if n < 1:
        raise ValueError("n must be positive")
    total, odd, even = 0, 1, 1  # F_{2i-1}, F_{2i} at i = 1
    for i in range(1, n + 1):
        total += (comb(n + 1 - i, 2) + 1) * even
        odd += even
        even += odd
    return total


@dataclass(frozen=True)
class StateCounts:
    """Precomputed s_i and s_i* = s_i - s_{i-1}."""

    n: int
    s: tuple[int, ...]        # s[0..n]
    s_star: tuple[int, ...]   # s_star[0] = 0, s_star[i] = s[i] - s[i-1]


def state_counts(n: int) -> StateCounts:
    s = tuple(_state_count_terms(n))
    return StateCounts(n, s, (0,) + tuple(b - a for a, b in zip(s, s[1:])))


# ---------------------------------------------------------------------------
# the automaton
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Automaton:
    """States are packed configuration keys (configs.pack), numbered by
    build in BFS order or as relabel permutes them, the initial state 0
    first; ``transitions`` is the flat (state, letter) table: entry
    s * n + r - 1 is the state that letter r sends state s to, -1 if r is
    forbidden there.  build makes it int32, which holds every state index
    up to n = 14 (s_14 < 2^20); readers widen what they compute with.
    Nothing derived from the arrays is cached on it."""

    n: int
    keys: np.ndarray = field(repr=False)         # uint64, one key per state
    transitions: np.ndarray = field(repr=False)  # int32 (state, letter) -> state, -1 if forbidden

    def __len__(self) -> int:
        return len(self.keys)


def check_build_limit(n: int) -> None:
    """The one size guard: ValueError for n < 1, and BuildLimitError past
    MAX_KEY_N.  The BFS, the canonical ordering and ``matrix --check``
    pack each configuration into one 64-bit key, which holds no more, so
    past it no second route exists to check the direct generator against."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_KEY_N:
        raise BuildLimitError(
            f"n={n} exceeds the build limit {MAX_KEY_N}, "
            "the largest n a 64-bit configuration key holds"
        )


def build(n: int) -> Automaton:
    """Breadth-first closure from the initial configuration, one level at
    a time on packed keys, within the s_n canonical keys
    (configs.canonical_keys) sorted once.

    ``keys`` and ``transitions`` are allocated once, for the closed-form
    count s_n, and filled in place: each level reads its frontier as a
    slice of ``keys`` and writes its rows of ``transitions`` and its new
    keys after it.  Each level's targets are sorted once, and its distinct
    targets are found by one search of the canonical keys, beside which an
    int32 array holds each key's state, -1 until the BFS reaches it.  New
    keys are numbered in order of first occurrence over (source, letter):
    the numbering a queue would give.  The arrows come from
    configs.successors alone, and a closure inside the canonical keys that
    counts s_n states is all of them, so each build proves canonical_keys.
    Raises past the guard of check_build_limit, and
    InternalConsistencyError when the canonical keys are not s_n, when the
    BFS reaches a configuration they lack, or when it ends short of them.
    """
    check_build_limit(n)
    expected = state_count_formula(n)
    every = np.sort(canonical_keys(n))
    if len(every) != expected:
        raise InternalConsistencyError(
            f"{len(every)} canonical configurations for n={n}, formula gives {expected}"
        )
    ids = np.full(expected, -1, dtype=np.int32)  # the state of every[t], -1 if unreached
    keys = np.empty(expected, dtype=np.uint64)
    transitions = np.empty(expected * n, dtype=np.int32)
    keys[0] = pack(initial_config(n))
    # letter n leads the initial state to itself, so the first level's
    # search also finds its key among the canonical ones, or raises
    ids[every == keys[0]] = 0
    done, count = 0, 1  # states done..count-1 are the frontier
    while done < count:
        targets = successors(keys[done:count], n).ravel()
        live = np.flatnonzero(targets)
        # every lookup in key order; the default argsort is not stable, so
        # a key's first (source, letter) is the least position of its run
        live = live[np.argsort(targets[live])]
        cand = targets[live]
        # the bounds of the runs of equal keys: each run's start, then len(cand)
        bound = np.ones(len(cand) + 1, dtype=bool)
        np.not_equal(cand[1:], cand[:-1], out=bound[1:-1])
        bounds = np.flatnonzero(bound)
        start = bounds[:-1]
        uniq = cand[start]  # one per run of equal keys
        at = np.minimum(np.searchsorted(every, uniq), expected - 1)
        lacking = uniq[every[at] != uniq]
        if len(lacking):
            raise InternalConsistencyError(
                f"BFS reached {unpack(lacking[0])}, missing from the canonical keys for n={n}"
            )
        state = ids[at]
        new = np.flatnonzero(state < 0)
        # the new runs in order of their first (source, letter)
        new = new[np.argsort(np.minimum.reduceat(live, start)[new])]
        state[new] = np.arange(count, count + len(new))
        ids[at[new]] = state[new]
        row = transitions[done * n : count * n]
        row.fill(-1)
        # int32 ids straight from the runs, with no int64 index per target
        row[live] = np.repeat(state, np.diff(bounds))
        keys[count : count + len(new)] = uniq[new]
        done, count = count, count + len(new)
    if count != expected:
        raise InternalConsistencyError(
            f"BFS found {count} states for n={n}, formula gives {expected}"
        )
    return Automaton(n, keys, transitions)


def state_after(a: Automaton, w) -> int | None:
    """Index of the state reached reading w from the start, None if rejected."""
    s = 0
    for r in w:
        if not 1 <= r <= a.n:
            raise BraidWordError(f"letter {r} outside alphabet 1..{a.n}")
        s = int(a.transitions[s * a.n + r - 1])
        if s < 0:
            return None
    return s


def _targets(a: Automaton, order) -> np.ndarray:
    """The (state, letter) rows of the states in ``order``, each target
    renumbered to its position there, -1 if forbidden or not listed."""
    m = len(a)
    # pos[m] = -1 also catches the forbidden targets, which are -1
    pos = np.full(m + 1, -1, dtype=np.int32)
    pos[order] = np.arange(len(order))
    return pos[a.transitions.reshape(m, a.n)[order]]


def relabel(a: Automaton, order) -> Automaton:
    """The automaton with state order[p] renumbered p.  Raises ValueError
    unless ``order`` is a permutation of all states that keeps state 0,
    where count_words and state_after start, first.  The result holds new
    arrays, and ``a`` is left as it was."""
    order = np.asarray(order)
    if not (np.array_equal(np.sort(order), np.arange(len(a))) and order[0] == 0):
        raise ValueError("order must be a permutation of all state indices with 0 first")
    return Automaton(a.n, a.keys[order], _targets(a, order).ravel())


# ---------------------------------------------------------------------------
# incidence matrices
# ---------------------------------------------------------------------------

def row_major_keys(pq: np.ndarray, dim: int) -> np.ndarray:
    """int64 keys row * dim + col of the (row, col) pairs ``pq``, whatever their dtype."""
    keys = pq[:, 0].astype(np.int64)
    keys *= dim
    keys += pq[:, 1].astype(np.int64, copy=False)
    return keys


@dataclass(frozen=True, eq=False)
class SparseBooleanMatrix:
    """Square 0/1 matrix kept as its nonzero coordinates.

    ``entries`` is an (nnz, 2) int32 array of (row, col) pairs, sorted
    row-major, each pair once; int32 holds every index of a matrix of
    dim < 2^31.  The constructor accepts any sequence of pairs, sorts it
    by int64 row-major keys, and raises InternalConsistencyError for a
    pair outside the matrix or a repeated pair.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        pq = np.asarray(self.entries).reshape(-1, 2)
        if len(pq) and (pq.min() < 0 or pq.max() >= self.dim):
            outside = ((pq < 0) | (pq >= self.dim)).any(axis=1)
            p, q = pq[outside][0].tolist()
            raise InternalConsistencyError(
                f"entry ({p}, {q}) outside a {self.dim}x{self.dim} matrix"
            )
        keys = row_major_keys(pq, self.dim)
        keys.sort()
        repeated = keys[1:][keys[1:] == keys[:-1]]
        if len(repeated):
            p, q = divmod(int(repeated[0]), self.dim)
            raise InternalConsistencyError(f"entry ({p}, {q}) given twice")
        entries = np.empty((len(keys), 2), dtype=np.int32)
        np.divmod(keys, self.dim, out=(entries[:, 0], entries[:, 1]))
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


_EDGE_BLOCK = 1 << 18


def _edges(a: Automaton, order=None) -> np.ndarray:
    """The transitions between the states in ``order`` (default: all, in
    index order) as an (nnz, 2) int32 array of (source, target) positions
    there, sources ascending, then letters; written _EDGE_BLOCK sources
    at a time, so that no index of every edge is made."""
    flat = a.transitions if order is None else _targets(a, order).ravel()
    live = flat >= 0
    edges = np.empty((np.count_nonzero(live), 2), dtype=np.int32)
    k, step = 0, _EDGE_BLOCK * a.n
    for s in range(0, len(flat), step):
        f = np.flatnonzero(live[s : s + step])
        f += s  # (source, letter) positions in flat
        np.floor_divide(f, a.n, out=edges[k : k + len(f), 0], casting="unsafe")
        np.take(flat, f, out=edges[k : k + len(f), 1])
        k += len(f)
    return edges


def incidence_matrix(a: Automaton) -> SparseBooleanMatrix:
    """0/1 matrix with entry (p, q) = 1 iff some letter sends state p to q,
    rows and columns in state index order."""
    return SparseBooleanMatrix(len(a), _edges(a))


# ---------------------------------------------------------------------------
# recurrent / transient split
# ---------------------------------------------------------------------------

def _forward_reach(a: Automaton, start: int) -> np.ndarray:
    """Boolean mask of the states reachable from ``start``, read level by
    level off the rows of the transition table."""
    table = a.transitions.reshape(len(a), a.n)
    # reached[-1] is set, so a forbidden letter (-1) reads reached
    reached = np.zeros(len(a) + 1, dtype=bool)
    reached[[start, -1]] = True
    frontier = np.array([start])
    while len(frontier):
        heads = table[frontier].ravel()
        fresh = np.zeros(len(a), dtype=bool)
        fresh[heads[~reached[heads]]] = True
        reached[:-1] |= fresh
        frontier = np.flatnonzero(fresh)
    return reached[:-1]


def _backward_reach(a: Automaton, goal: int) -> np.ndarray:
    """Boolean mask of the states from which ``goal`` is reachable, by a
    pull fixpoint on the rows of the transition table: each round, the
    unreached states with a letter into a reached one become reached,
    until a round adds none (n + 1 rounds reach every state, n = 2..13)."""
    table = a.transitions.reshape(len(a), a.n)
    # reached[-1] stays False, so a forbidden letter (-1) reads unreached
    reached = np.zeros(len(a) + 1, dtype=bool)
    reached[goal] = True
    left = np.flatnonzero(~reached[:-1])
    while len(left):
        pulled = reached[table[left]].any(axis=1)
        if not pulled.any():
            break
        reached[left[pulled]] = True
        left = left[~pulled]
    return reached[:-1]


def recurrent_states(a: Automaton) -> list[int]:
    """Indices of states with i = 1, verified to be the unique closed SCC.

    Let S = {i = 1} and s0 its first state.  The check is that the forward
    search from s0 reaches exactly S and that every state reaches s0.
    That is equivalent to S being the unique closed SCC:
    if it holds, S is closed (a reached state's arrows end at reached
    states) and strongly connected (each state of S reaches s0 and is
    reached from it), and every closed SCC holds s0 since its states reach
    s0; conversely, a closed strongly connected S is what s0 reaches, and
    every state reaches a closed SCC, which is then S.

    Both searches read the transition table alone, and every call proves
    the split again and returns a new list.
    """
    predicate = key_fields(a.keys)[0] == 1
    rec = np.flatnonzero(predicate)
    if not (
        len(rec)
        and np.array_equal(_forward_reach(a, rec[0]), predicate)
        and _backward_reach(a, rec[0]).all()
    ):
        raise InternalConsistencyError(
            f"i=1 predicate and closed SCC disagree for n={a.n}"
        )
    return rec.tolist()


def boolean_primitive(m: SparseBooleanMatrix) -> bool:
    """True iff some boolean power m^k, k <= (dim - 1)^2 + 1, is entrywise
    positive.

    The cap is Wielandt's bound, the largest exponent a primitive matrix can
    need.  Bitset squaring costs dim^2 bits per power, so this is a
    reference for tests; recurrent_matrix reads primitivity off a loop.
    """
    dim = m.dim
    if dim == 0:
        return False
    full = (1 << dim) - 1
    base = [0] * dim
    for p, q in m.entries.tolist():
        base[p] |= 1 << q
    rows = list(base)
    for _ in range((dim - 1) ** 2 + 1):
        if all(r == full for r in rows):
            return True
        nxt = [0] * dim
        for p in range(dim):
            acc = 0
            b = base[p]
            while b:
                low = b & -b
                acc |= rows[low.bit_length() - 1]
                b ^= low
            nxt[p] = acc
        if nxt == rows:
            break
        rows = nxt
    return all(r == full for r in rows)


def recurrent_matrix(a: Automaton) -> SparseBooleanMatrix:
    """Incidence matrix restricted to the recurrent states in index order,
    the canonical order on a relabelled automaton.

    The result is checked to be primitive, and the check is one loop:
    recurrent_states has proved the block strongly connected, so the
    matrix is irreducible, and its period divides the length of every
    cycle, 1 for a loop.  t11 = (1, 1, 1, {}) loops on a_1 at every n.
    Raises InternalConsistencyError if no state loops.
    """
    rec = recurrent_states(a)
    m = SparseBooleanMatrix(len(rec), _edges(a, rec))
    # strongly connected (recurrent_states) with a loop: aperiodic, so primitive
    if not (m.entries[:, 0] == m.entries[:, 1]).any():
        raise InternalConsistencyError(f"recurrent matrix for n={a.n} is not primitive")
    return m


# ---------------------------------------------------------------------------
# exact counting
# ---------------------------------------------------------------------------

_INT64_MAX = (1 << 63) - 1
#: the digit widths of the sparse int64 steps, widest first: each a whole
#: number of bytes, so that the digits become integers by one bytes view
_WIDTHS = (56, 48, 40, 32)
#: the fewest steps between carry passes that a width wider than the last
#: must allow, or a narrower one is taken
_MIN_PERIOD = 2
#: float64 holds every integer below this exactly
_FLOAT_EXACT = 1 << 53


def _digit_bound(bits: int) -> int:
    """Every base-2^bits digit is below this after one carry pass: 2^bits - 1
    of its own at most, plus the carry (2^63 - 1) >> bits of the digit below."""
    return (1 << bits) + (_INT64_MAX >> bits)


#: the bound of the 32-bit digits, which the dense float64 block keeps
_DIGIT_BOUND = _digit_bound(32)


def _carry_pass(x: np.ndarray, bits: int) -> np.ndarray:
    """One carry pass over a C-order (m, L) int64 array of nonnegative
    base-2^bits digits, least significant first: every digit keeps its low
    ``bits`` bits and takes the carry of the digit below it, by one shifted
    add along the flat array, and the top column's carry, if any, becomes a
    new column.  Every digit is then below _digit_bound(bits).  The array
    returned may be x itself, changed in place.  A negative digit has
    wrapped past 2^63 - 1, and no carry can repair it: it raises
    InternalConsistencyError."""
    if x.min() < 0:
        raise InternalConsistencyError(
            f"a base-2^{bits} digit wrapped below zero before its carry")
    x = np.ascontiguousarray(x)
    c = x >> bits
    top = c[:, -1].copy()
    c[:, -1] = 0  # a row's top carry goes to its new column, not the next row
    x &= (1 << bits) - 1
    x.ravel()[1:] += c.ravel()[:-1]
    if top.any():
        x = np.concatenate((x, top[:, None]), axis=1)
    return x


def _carry(x: np.ndarray, bits: int) -> np.ndarray:
    """Normalise an (m, L) int64 array of nonnegative base-2^bits digits by
    carry passes (_carry_pass) until every digit is below 2^bits."""
    x = _carry_pass(x, bits)
    while x.max() >> bits:
        x = _carry_pass(x, bits)
    return x


def _path_counts(mt: csr_matrix, k: int) -> list[int]:
    """r[0..t], r[s] the largest row sum of (M^T)^s: the most length-s paths
    into one state.  It is computed from the ones vector by int64 products
    and ends at s = k, at the first s with _DIGIT_BOUND * r[s] past
    2^63 - 1, the farthest any carry period looks, or early when M^T maps
    the row sums to themselves (n = 1), after which r would stay at its
    last value.  r never decreases, because every state has a successor."""
    v = np.ones(mt.shape[0], dtype=np.int64)
    r = [1]
    for _ in range(k):
        w = mt @ v
        if np.array_equal(w, v):
            break
        r.append(int(w.max()))
        if _DIGIT_BOUND * r[-1] > _INT64_MAX:
            break
        v = w
    return r


def _carry_period(r: list[int], k: int, bound: int, limit: int = _INT64_MAX) -> int:
    """The largest s <= k with bound * r[s] <= limit, r from _path_counts:
    s steps of M^T after a carry pass that leaves every digit below
    ``bound`` leave every digit below ``limit``.  That is the int64 carry
    period at 2^63 - 1 and the float64 block's period at 2^53, below which
    float64 sums of integers are exact in any order.  When no r[s] passes
    the bound, r ended at k or where it stays constant (n = 1), and the
    period is k."""
    over = next((s for s, rs in enumerate(r) if bound * rs > limit), None)
    return k if over is None else over - 1


def _digits(m: int, nnz: int, r: list[int], k: int) -> tuple[int, int, int]:
    """(bits, S, S_f): the digit width and carry period count_words steps
    on, and the period of its dense float64 block, 0 for none, for an
    m-state automaton whose M^T has nnz entries and path counts r.  When a
    dense m x m power costs no more than S_32 single steps (m^2 <=
    S_32 * nnz), the block runs, on 32-bit digits, with S_f the period at
    2^53.  Otherwise the width is the widest of _WIDTHS whose period is at
    least _MIN_PERIOD, or the last, and there is no block."""
    period = _carry_period(r, k, _DIGIT_BOUND)
    if m * m <= period * nnz:
        return 32, period, _carry_period(r, k, _DIGIT_BOUND, _FLOAT_EXACT)
    for bits in _WIDTHS:
        period = _carry_period(r, k, _digit_bound(bits))
        if period >= _MIN_PERIOD:
            break
    return bits, period, 0


def count_words(a: Automaton, k: int) -> tuple[list[int], int]:
    """First row of M^k as exact integers: per-state counts of length-k
    representatives ending at each state, plus their total.

    The counts are a C-order (m, L) int64 array of base-2^b digits, least
    significant first, starting at L = 1, and each single step is one int64
    product with the transpose of M, built once from the same edge arrays as
    incidence_matrix.  Just before a step that would take the steps since
    the last carry past the carry period S, one carry pass (_carry_pass)
    leaves every digit below B(b) = 2^b + ((2^63 - 1) >> b) again; the
    start counts as a carry.  S is the most steps whose paths into one
    state, times B(b), stay within 2^63 - 1 (_carry_period, on the path
    counts r of _path_counts, computed once per call).  The width b is
    whole bytes, and _digits chooses it from m, nnz and r alone: the widest
    of 56, 48, 40 and 32 bits whose S is at least _MIN_PERIOD, since every
    digit column costs the sparse product the same time per entry.  When a
    dense m x m power costs no more than S single steps at 32 bits (m^2 <=
    S * nnz, n <= 4), the digits stay 32-bit and the counts first advance
    by k // S_f float64 products with (M^T)^S_f, S_f the period at 2^53:
    the power is formed in int64 by np.linalg.matrix_power, which forms no
    power of exponent above S_f, and cast, so the product runs on BLAS and
    every product and partial sum is an integer below 2^53, exact in any
    order.  Each block product follows a carry pass, and one that reaches
    2^53 raises InternalConsistencyError.  The k % S_f steps left are
    single steps, the first after a carry.  The digits are normalised below
    2^b (_carry) once, at the end, and each row's b / 8 low bytes per digit
    are read as one integer.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    m = len(a)
    src, dst = _edges(a).T
    mt = csr_matrix((np.ones(len(src), dtype=np.int64), (dst, src)), shape=(m, m))
    bits, period, block = _digits(m, mt.nnz, _path_counts(mt, k), k)
    x = np.zeros((m, 1), dtype=np.int64)
    x[0, 0] = 1
    since = 0
    if block:
        power = np.linalg.matrix_power(mt.toarray(), block).astype(np.float64)
        for q in range(k // block):
            if q:
                x = _carry_pass(x, bits)
            y = power @ x.astype(np.float64)
            if y.max() >= _FLOAT_EXACT:
                raise InternalConsistencyError("a float64 block product reached 2^53")
            x = y.astype(np.int64)
        if k >= block:
            since = period  # the digits after a block product need a carry first
        k %= block
    for _ in range(k):
        since += 1
        if since > period:
            x = _carry_pass(x, bits)
            since = 1
        x = mt @ x
    x = _carry(x, bits)
    # the digits are nonnegative and below 2^bits: the low bits // 8 bytes
    # of each little-endian int64 digit, row by row, are each row's integer
    digit_bytes = x.astype("<i8", copy=False).view(np.uint8).reshape(m, -1, 8)
    raw = digit_bytes[:, :, : bits // 8].tobytes()
    width = bits // 8 * x.shape[1]
    counts = [
        int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)
    ]
    return counts, sum(counts)


def ending_letter_counts(a: Automaton, k: int, counts: list[int]) -> dict[int, int]:
    """Exact count of length-k representatives ending with each letter, from
    the per-state counts that count_words(a, k) returns."""
    out = {r: 0 for r in range(1, a.n + 1)}
    if k == 0:
        return out
    for j, c in zip(key_fields(a.keys)[1].tolist(), counts):
        out[j] += c
    return out


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

_WRITE_BLOCK = 1 << 13


def _digit_table(top: int) -> np.ndarray:
    """The decimal digits of 0 .. top as a (top + 1, width) uint8 table of
    ASCII codes: row v spells v right-aligned, its leading zeros NUL."""
    width = len(str(top))
    v = np.arange(top + 1, dtype=np.int64)
    table = np.empty((top + 1, width), dtype=np.uint8)
    for col in range(width - 1, -1, -1):
        table[:, col] = v % 10 + ord("0")
        v //= 10
    for col in range(width - 1):  # its leading zeros are the rows below a power of 10
        table[: 10 ** (width - 1 - col), col] = 0
    return table


def write_rows(fh, template: str, columns, top: int, base: int = 0, sep: str = "") -> None:
    """``template`` once per row t, its i-th ``{}`` spelling
    columns[i][t] + base (at most ``top``), the rows joined by ``sep``.
    Each row is one fixed-width row of a reused byte buffer: the digit rows
    of its values, NUL-padded, between the template's pieces, ``sep`` last;
    one mask per block of _WRITE_BLOCK rows drops the NULs before the block
    is written into ``fh``, so the whole text is never held."""
    digits = _digit_table(top)
    w = digits.shape[1]
    spell = digits.view(f"V{w}").ravel()[base:]  # one table row as a single item
    pieces = template.split("{}")
    blank = np.frombuffer((("\0" * w).join(pieces) + sep).encode("ascii"), dtype=np.uint8)
    offsets = [sum(map(len, pieces[: i + 1])) + i * w for i in range(len(pieces) - 1)]
    row = np.dtype({"names": [f"f{i}" for i in range(len(offsets))], "offsets": offsets,
                    "formats": [spell.dtype] * len(offsets), "itemsize": len(blank)})
    total = len(columns[0])
    buf = np.tile(blank, (min(total, _WRITE_BLOCK), 1))
    fields = buf.view(row).ravel()
    for s in range(0, total, _WRITE_BLOCK):
        f = fields[: min(total - s, _WRITE_BLOCK)]
        for name, col in zip(row.names, columns):
            f[name] = spell[col[s : s + _WRITE_BLOCK]]
        b = buf[: len(f)].ravel()
        text = b[b != 0].tobytes().decode("ascii")
        fh.write(text if s + _WRITE_BLOCK < total else text[: len(text) - len(sep)])


def write_json(a: Automaton, fh) -> None:
    """The automaton as the text json.dump writes at indent=2 for
    {"n", "initial": 0, "states": [{"i", "j", "k", "S", "final_letter"}],
    "transitions": [[source, letter, target]]}, written into ``fh`` one
    state (one f-string) and one block of arrows (write_rows) at a time, so
    neither the document nor the text is held."""
    fh.write(f'{{\n  "n": {a.n},\n  "initial": 0,\n  "states": [')
    sep = "\n"
    for c in map(unpack, a.keys.tolist()):
        segs = ",".join(f"\n        [\n          {p},\n          {q}\n        ]"
                        for p, q in c.segments)
        segs = f"[{segs}\n      ]" if segs else "[]"
        fh.write(f'{sep}    {{\n      "i": {c.i},\n      "j": {c.j},\n      "k": {c.k},\n'
                 f'      "S": {segs},\n      "final_letter": {c.j}\n    }}')
        sep = ",\n"
    fh.write('\n  ],\n  "transitions": [\n')
    src, dst = _edges(a).T
    letter = key_fields(a.keys)[1].astype(np.uint8)[dst]
    write_rows(fh, "    [\n      {},\n      {},\n      {}\n    ]", (src, letter, dst),
               len(a), sep=",\n")
    fh.write("\n  ]\n}")


def write_dot(a: Automaton, fh) -> None:
    """The automaton as a DOT digraph, written into ``fh`` a state line or
    a block of arrow lines (write_rows) at a time; the last, ``}``, has no newline."""
    fh.write("digraph automaton {\n  rankdir=LR;\n")
    for s, c in enumerate(map(unpack, a.keys.tolist())):
        shape = "doublecircle" if s == 0 else "circle"
        fh.write(f'  q{s} [label="{c}" shape={shape}];\n')
    src, dst = _edges(a).T
    letter = key_fields(a.keys)[1].astype(np.uint8)[dst]
    write_rows(fh, '  q{} -> q{} [label="a{}"];\n', (src, dst, letter), len(a))
    fh.write("}")
