"""Brute-force ground truth for the positive braid monoid.

Everything here works straight from the defining relations

    a_x a_y = a_y a_x        when |x - y| > 1,
    a_x a_y a_x = a_y a_x a_y  when |x - y| = 1,

with no automaton knowledge: equivalence classes by closure under single
rewrites, the maximal lexicographic representative as the plain maximum of
the class, prefix order and the max-lex test by right subword reversing
(Dehornoy, "Complete positive group presentations", J. Algebra 268, 2003;
Garside 1969), and minimal forbidden prefixes by candidate enumeration.
Deliberately desk-scale; it exists to validate the rest of the package.

Words are tuples of generator indices at the API; the hot loops run on
``bytes`` (letters fit in one byte and bytes compare lexicographically).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable

from .errors import BraidWordError, InternalConsistencyError

Word = tuple[int, ...]


def check_word(w: Iterable[int], n: int) -> Word:
    w = tuple(w)
    for x in w:
        if not 1 <= x <= n:
            raise BraidWordError(f"letter {x} outside generator range 1..{n}")
    return w


def _rewrites(u: bytes):
    """Single relation applications to u (both relation families, both ways)."""
    m = len(u)
    for p in range(m - 1):
        x = u[p]
        y = u[p + 1]
        d = x - y
        if d > 1 or d < -1:
            yield u[:p] + bytes((y, x)) + u[p + 2:]
        elif d and p + 2 < m and u[p + 2] == x:
            yield u[:p] + bytes((y, x, y)) + u[p + 3:]


def _closure(w: bytes) -> frozenset[bytes]:
    seen = {w}
    stack = [w]
    while stack:
        u = stack.pop()
        for v in _rewrites(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return frozenset(seen)


def _quotient(x: int, w: bytes) -> bytes | None:
    """A word for a_x^-1 w, or None when a_x does not left-divide w.  Right
    reversing: x^-1 x -> e, x^-1 y -> y x^-1 if |x - y| > 1, else y x y^-1 x^-1."""
    for p, y in enumerate(w):
        if y == x:
            return w[:p] + w[p + 1:]
        if y == x - 1 or y == x + 1:
            q = _quotient(x, w[p + 1:])
            if q is not None:
                q = _quotient(y, q)
            return None if q is None else w[:p] + bytes((y, x)) + q
    return None


def _divides(u: bytes, w: bytes) -> bool:
    """True iff the braid of u left-divides the braid of w."""
    for x in u:
        w = _quotient(x, w)
        if w is None:
            return False
    return True


def _exceeds(w: bytes) -> bool:
    """True iff some word equivalent to w is lexicographically greater, that
    is (the monoid is cancellative) some letter r > w[i] left-divides w[i:]."""
    return any(
        _quotient(r, w[i:]) is not None
        for i in range(len(w) - 1) for r in set(w[i + 1:]) if r > w[i]
    )


def equivalence_class(w: Iterable[int], n: int) -> frozenset[Word]:
    """All words representing the same braid as w."""
    w = check_word(w, n)
    return frozenset(tuple(u) for u in _closure(bytes(w)))


def max_lex(w: Iterable[int], n: int) -> Word:
    """The lexicographically greatest representative of the braid of w."""
    w = check_word(w, n)
    return tuple(max(_closure(bytes(w))))


def is_representative(w: Iterable[int], n: int) -> bool:
    """True iff w is the maximal lexicographic representative of its braid."""
    w = check_word(w, n)
    return not _exceeds(bytes(w))


@lru_cache(maxsize=None)
def _language_bytes(n: int, k: int) -> frozenset[bytes]:
    out: set[bytes] = set()
    seen: set[bytes] = set()
    for w in product(range(1, n + 1), repeat=k):
        b = bytes(w)
        if b in seen:
            continue
        cls = _closure(b)
        out.add(max(cls))
        seen |= cls
    return frozenset(out)


def enumerate_language(n: int, k: int) -> set[Word]:
    """All length-k maximal lexicographic representatives, by brute force."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return {tuple(b) for b in _language_bytes(n, k)}


def is_prefix(w1: Iterable[int], w2: Iterable[int], n: int) -> bool:
    """True iff the braid of w1 left-divides the braid of w2."""
    w1 = check_word(w1, n)
    w2 = check_word(w2, n)
    return _divides(bytes(w1), bytes(w2))


def _is_run_or_pair(v: bytes) -> bool:
    """Shape guarantee for minimal forbidden prefixes: an increasing run
    a_p a_{p+1} ... a_q, or the two-letter braid a_{p+1} a_p."""
    if len(v) == 2 and v[0] == v[1] + 1:
        return True
    return all(v[p + 1] == v[p] + 1 for p in range(len(v) - 1))


def minimal_forbidden_prefixes(w: Iterable[int], n: int) -> frozenset[Word]:
    """Minimal (for prefix order) braids v with max_lex(w v) != max_lex(w) max_lex(v).

    Candidates are enumerated through length n + 1, one maximal representative
    per braid; candidates with a forbidden proper prefix are discarded.  The
    length bound is checked a posteriori: every returned element must be an
    increasing run or a descending adjacent pair, both of length at most n.
    """
    w = check_word(w, n)
    big = bytes(max_lex(w, n))
    found: list[bytes] = []
    for ell in range(1, n + 2):
        for v in sorted(_language_bytes(n, ell)):
            if any(_divides(f, v) for f in found):
                continue
            if _exceeds(big + v):
                found.append(v)
    for v in found:
        if not _is_run_or_pair(v):
            raise InternalConsistencyError(
                f"forbidden prefix {tuple(v)} after {w} is neither a run nor a pair"
            )
    return frozenset(tuple(v) for v in found)
