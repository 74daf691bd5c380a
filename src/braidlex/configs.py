"""Segment configurations: finite descriptors of forbidden-prefix sets.

A configuration (i, j, k, S) names one state of the automaton for the
positive braid monoid on n generators.  It encodes the set of minimal
forbidden prefixes after a braid as a marked diagram on n cells:

  * a square at position j (the final letter of any word reaching the state),
  * a black circle at r for every forbidden single letter a_r,
  * a segment [p, q] for every forbidden increasing run a_p a_{p+1} ... a_q,
  * white circles everywhere else.

S holds the segments whose left endpoint lies left of the square; k records
what sits immediately right of the square (black circle, segment end, or
nothing).  The two-letter element a_{j+1} a_j is implicit in (j, k) and is
never drawn.

A configuration of size n <= 14 packs into one uint64 key (``pack``,
``unpack``): nibble 0 holds i, nibble 1 j, nibble 2 k, and nibble 2 + p the
right end of the segment starting at p, or 0 if none does.

Each fact about a state has one routine: ``successors(keys, n)`` is the
letter-transition rule that the BFS of ``automaton.build`` reads, computed
for every letter of a whole array of keys at once, letter-major: one
(n, rows) array pass per outcome, whose inner loop runs along the rows;
``shift_keys`` prepends a white circle to every key, the step from which
matrixgen builds the canonical orderings; ``_marks(c, n)`` reads the
diagram off (i, j, k, S), and ``psi`` and ``render_diagram`` draw from
it; ``c.j`` is the final letter.  The
package meets configurations only as the states that BFS reaches; the
exhaustive enumeration of every valid configuration is a test reference.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError

Segment = tuple[int, int]
Word = tuple[int, ...]


class SegmentConfig(NamedTuple):
    """Hashed, compared and ordered as the plain tuple (i, j, k, segments),
    so a dict keyed by configurations also finds a plain tuple."""

    i: int
    j: int
    k: int
    segments: tuple[Segment, ...] = ()

    def __str__(self) -> str:
        body = ";".join(f"[{p}-{q}]" for p, q in self.segments)
        return f"({self.i},{self.j},{self.k},{{{body}}})"


def initial_config(n: int) -> SegmentConfig:
    return SegmentConfig(n, n, n, ())


def validate(c: SegmentConfig, n: int) -> bool:
    """True iff (i, j, k, S) satisfies the nesting constraints for size n."""
    if not 1 <= c.i <= c.j <= c.k <= n:
        return False
    t = len(c.segments)
    if t == 0:
        return True
    lefts = [p for p, _ in c.segments]
    rights = [q for _, q in c.segments]
    if lefts[0] < c.i or lefts[-1] >= c.j:
        return False
    if any(lefts[r] >= lefts[r + 1] for r in range(t - 1)):
        return False
    if rights[0] > n:
        return False
    if any(rights[r + 1] > rights[r] for r in range(t - 1)):
        return False
    # all but the innermost right endpoint must reach at least k
    if t >= 2 and rights[t - 2] < c.k:
        return False
    # innermost segment ends at the square or reaches at least k
    if rights[-1] != c.j and rights[-1] < c.k:
        return False
    return True


def psi(c: SegmentConfig, n: int) -> frozenset[Word]:
    """The set of braids (as canonical words) named by the configuration.

    Read off the diagram: the letter a_r for each black circle r, the run
    a_p ... a_q for each drawn segment [p, q], and the implicit a_{j+1} a_j
    unless the square is at n or has a black circle right of it.
    """
    if not validate(c, n):
        raise ConfigError(f"invalid segment configuration {c} for n={n}")
    blacks, segs = _marks(c, n)
    out: set[Word] = {(r,) for r in blacks}
    out.update(tuple(range(p, q + 1)) for p, q in segs)
    if c.j < n and c.k != c.j + 1:
        out.add((c.j + 1, c.j))
    return frozenset(out)


# ---------------------------------------------------------------------------
# diagram marks
# ---------------------------------------------------------------------------

def _marks(c: SegmentConfig, n: int) -> tuple[set[int], list[Segment]]:
    """Black-circle positions and drawn segments of the diagram of ``c``."""
    seg_starts = {p for p, _ in c.segments}
    j, k = c.j, c.k
    blacks = {
        r
        for r in range(c.i, n + 1)
        if r not in seg_starts and r != j and r != j + 1
    }
    segs = list(c.segments)
    if k == j + 1:
        blacks.add(j + 1)
    elif k > j + 1:
        segs.append((j + 1, k))
    return blacks, segs


# ---------------------------------------------------------------------------
# packed keys and the letter-transition rule on them
# ---------------------------------------------------------------------------

#: The largest n whose configurations fit a key: n + 2 nibbles of 64 bits.
MAX_KEY_N = 14

_U = np.uint64
_NIBBLE = _U(15)
_SEGMENT_BITS = _U(((1 << 64) - 1) ^ 0xFFF)
# bit 0 of every segment nibble, p = 1..13
_SEGMENT_ONES = _U(sum(1 << 4 * (p + 2) for p in range(1, MAX_KEY_N)))


def pack(c: SegmentConfig) -> int:
    """The key of ``c``: nibble 0 holds i, nibble 1 j, nibble 2 k, and
    nibble 2 + p the right end of the segment starting at p (0 if none).
    Distinct configurations of size n <= MAX_KEY_N get distinct keys, and
    no key is 0."""
    key = c.i | c.j << 4 | c.k << 8
    for p, q in c.segments:
        key |= q << 4 * (p + 2)
    return key


def unpack(key: int) -> SegmentConfig:
    """The configuration whose key is ``key``; inverse of pack."""
    key = int(key)
    segs = []
    rest, p = key >> 12, 1
    while rest:
        if rest & 15:
            segs.append((p, rest & 15))
        rest >>= 4
        p += 1
    return SegmentConfig(key & 15, key >> 4 & 15, key >> 8 & 15, tuple(segs))


def key_fields(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, k) of every key in a uint64 array, as int64 arrays."""
    return tuple((keys >> _U(4 * f) & _NIBBLE).astype(np.int64) for f in range(3))


#: successors works through its keys at most this many rows at a time, so
#: that its (rows, n) temporaries stay small whatever the size of a BFS level.
_ROW_BLOCK = 1 << 11


def successors(keys: np.ndarray, n: int) -> np.ndarray:
    """(F, n) uint64 array: row f, column r - 1 holds the key that letter r
    leads to from ``keys[f]``, or 0 when r is forbidden there.

    The permitted letters are 1..i-1, the segment starts, j, and j+1 unless
    it is black (k = j+1) or past n.  Reading r moves the square to r:

      * r < i goes to (r, r, r, {}), whatever the configuration is;
      * otherwise i stays, the segments starting left of r stay, and a black
        circle at r-1 (the degenerate run [r-1, r-1]) becomes the run
        [r-1, r];
      * r at a segment start [r, q] drops that segment and the later ones,
        and [r, q] becomes what sits right of the new square: k = q;
      * r = j keeps every segment, with nothing right of the square: k = j;
      * r = j+1 extends the segments ending at the square to j+1, and
        k becomes max(k, j+1).

    Every letter is computed at once, letter-major: each block of at most
    _ROW_BLOCK keys is worked on as (n, rows) arrays, so that every inner
    loop runs along the rows, each outcome once, in the letters where it
    applies, and the block's rows of the output are written by one
    transpose.  The segment starts and the square share one rule (they
    differ only in where q comes from), and r = j+1 falls on one letter
    per key, so it is computed once per key and written into letter j.
    Keys, nibbles and constants are uint64 arrays or scalars throughout:
    no Python int meets a key, so numpy's old and new promotion rules
    (NEP 50) give the same types.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    out = np.empty((len(keys), n), dtype=np.uint64)
    r = np.arange(1, n + 1, dtype=np.uint64)[:, None]
    # letter r: the shift to the nibble of the segment starting at r (r < n
    # only: at n = 14 the one of r = n would be 64 bits), the mask of the
    # segments starting left of r, the run [r-1, r] in nibble r + 1, and
    # the key (r, r, r, {}) of r < i
    shift = _U(4) * (r[:-1] + _U(2))
    left_mask = np.array([((1 << 4 * (c + 2)) - 1) ^ 0xFFF for c in range(1, n + 1)],
                         dtype=np.uint64)[:, None]
    run = np.array([c << 4 * (c + 1) for c in range(2, n + 1)], dtype=np.uint64)[:, None]
    below_i = r * _U(0x111)
    # blocks of equal size, to a row: every block of a level then allocates
    # temporaries of one size, each in the memory the last one freed; a
    # short last block would leave holes in the heap that raise the peak RSS
    # of the commands that run after the BFS
    parts = -(-len(keys) // _ROW_BLOCK) or 1
    for block, to in zip(np.array_split(keys, parts), np.array_split(out, parts)):
        i, j, k = (block >> _U(4 * f) & _NIBBLE for f in range(3))
        # q: the right end of the segment starting at r, or r at the square,
        # 0 elsewhere; r = n starts no segment
        q = np.empty((n, len(block)), dtype=np.uint64)
        np.right_shift(block, shift, out=q[:-1])
        q[:-1] &= _NIBBLE
        q[-1] = _U(0)
        # cell r-1 is black: at or right of i and no segment starts there
        black = (q[:-1] == _U(0)) & (i < r[1:])
        q[j - _U(1), np.arange(len(block))] = j
        t = block & left_mask
        t[1:] |= black * run
        t |= q << _U(8)
        t |= r << _U(4)
        t |= i
        np.copyto(t, _U(0), where=q == _U(0))
        np.copyto(t, below_i, where=i > r)
        # r = j+1, if j < n and cell j+1 is not black: the segments ending
        # at j grow to j+1, nibble by nibble; bit 0 of differ is set where
        # the nibble is not j
        nxt = np.flatnonzero((j < _U(n)) & (k != j + _U(1)))
        i, j, k = i[nxt], j[nxt], k[nxt]
        segs = block[nxt] & _SEGMENT_BITS
        differ = segs ^ _SEGMENT_ONES * j
        differ |= differ >> _U(1)
        differ |= differ >> _U(2)
        grown = segs + (_SEGMENT_ONES & ~differ)
        t[j, nxt] = i | (j + _U(1)) << _U(4) | np.maximum(k, j + _U(1)) << _U(8) | grown
        to[...] = t.T
    return out


def shift_keys(keys: np.ndarray) -> np.ndarray:
    """Prepend a white circle to every key's diagram: i, j and k go up by
    one, and each segment [p, q] becomes [p+1, q+1], so the segment nibbles
    move up one nibble and each non-zero one grows by one.  A key of size n
    becomes one of size n + 1, which must be at most MAX_KEY_N."""
    keys = np.asarray(keys, dtype=np.uint64)
    segs = (keys & _SEGMENT_BITS) << _U(4)
    nonzero = segs | segs >> _U(1)
    nonzero |= nonzero >> _U(2)  # bit 0 of each nibble: the nibble is not 0
    return (keys & _U(0xFFF)) + _U(0x111) | segs + (nonzero & _SEGMENT_ONES)


# ---------------------------------------------------------------------------
# diagrams as text
# ---------------------------------------------------------------------------

def render_diagram(c: SegmentConfig, n: int) -> str:
    """Fixed-width text art of the diagram of ``c``: segment lines (outermost
    first) above the cell row of 'o' white circles, '*' black circles and
    the '#' square.

    Position p occupies column 2(p-1); '-' marks segment body.
    """
    if not validate(c, n):
        raise ConfigError(f"invalid segment configuration {c} for n={n}")
    blacks, segs = _marks(c, n)
    lines = []
    for p, q in sorted(segs, key=lambda s: (s[0], -s[1])):
        row = [" "] * (2 * n - 1)
        for col in range(2 * (p - 1), 2 * (q - 1) + 1):
            row[col] = "-"
        lines.append("".join(row))
    lines.append(" ".join(
        "#" if p == c.j else "*" if p in blacks else "o" for p in range(1, n + 1)
    ))
    return "\n".join(lines)
