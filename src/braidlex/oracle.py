"""Brute-force ground truth for the positive braid monoid.

Everything here works straight from the defining relations

    a_x a_y = a_y a_x        when |x - y| > 1,
    a_x a_y a_x = a_y a_x a_y  when |x - y| = 1,

with no automaton knowledge, through one right-reversing routine,
``_complements(u, v) = (u\\v, v\\u)``: the monoid is a Garside monoid, so
u (u\\v) = v (v\\u) is the least common right multiple of u and v (Garside
1969; Dehornoy, "Complete positive group presentations", J. Algebra 268,
2003).  Hence u left-divides v (u <= v) iff v\\u is empty, and as the monoid
is cancellative, a_r <= b v iff b\\a_r <= v.  So the max-lex representative
of w starts with the largest r with a_r <= w and goes on as that of a_r\\w;
w is maximal iff no w[i:]\\a_r with r > w[i] is empty; the minimal forbidden
prefixes are the minimal complements, with no search.  The language is
prefix-closed, so it grows one letter at a time, and the same lemma gives
every letter a maximal word bans in one pass over its suffixes.  Apart from
the language's own size, nothing here is exponential in the word length.
Deliberately desk-scale; it exists to validate the rest of the package.

Words are tuples of generator indices at the API; the hot loops run on
``bytes`` (letters fit in one byte and bytes compare lexicographically).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .errors import BraidWordError, InternalConsistencyError

Word = tuple[int, ...]


def check_word(w: Iterable[int], n: int) -> Word:
    if n < 1:
        raise ValueError("need n >= 1")
    w = tuple(w)
    for x in w:
        if not 1 <= x <= n:
            raise BraidWordError(f"letter {x} outside generator range 1..{n}")
    return w


@lru_cache(maxsize=1 << 12)
def _complements(u: bytes, v: bytes) -> tuple[bytes, bytes]:
    """(u\\v, v\\u), with u (u\\v) = v (v\\u) the least common right multiple.
    Letters: x\\x = e, x\\y = y if |x - y| > 1, else y x.  Words:
    (u1 u2)\\v = u2\\(u1\\v) and v\\(u1 u2) = (v\\u1) ((u1\\v)\\u2)."""
    if not u or not v:
        return v, u
    if len(u) > 1:
        a, b = _complements(u[:1], v)
        c, d = _complements(u[1:], a)
        return c, b + d
    if len(v) > 1:
        a, b = _complements(u, v[:1])
        c, d = _complements(b, v[1:])
        return a + c, d
    d = u[0] - v[0]
    if not d:
        return b"", b""
    if d > 1 or d < -1:
        return v, u
    return v + u, u + v


def _banned(w: bytes, n: int) -> set[int]:
    """The letters x for which w x exceeds, for a maximal w.

    w x exceeds iff a_r <= w[i:] x for some i < |w| and r > w[i] (the
    suffix x alone has no such divisor).  That holds iff w[i:]\\a_r <= x,
    and as w is maximal the complement is not empty, so it must be the
    single letter x: one pass over w's suffixes finds every banned x.
    """
    out = set()
    for i in range(len(w)):
        for r in range(w[i] + 1, n + 1):
            c = _complements(w[i:], bytes((r,)))[0]
            if len(c) == 1:
                out.add(c[0])
    return out


def _max_lex(w: bytes) -> bytes:
    """The greatest representative: the largest r with a_r <= w, then that
    of a_r\\w.  The relations keep a word's set of letters, so only letters
    of w can divide it, and w[0] always does."""
    out = bytearray()
    while w:
        for r in sorted(set(w), reverse=True):
            c, rest = _complements(w, bytes((r,)))
            if not c:
                break
        else:
            raise InternalConsistencyError(f"no letter of {tuple(w)} left-divides it")
        out.append(r)
        w = rest
    return bytes(out)


def max_lex(w: Iterable[int], n: int) -> Word:
    """The lexicographically greatest representative of the braid of w."""
    return tuple(_max_lex(bytes(check_word(w, n))))


@lru_cache(maxsize=None)
def _language_bytes(n: int, k: int) -> frozenset[bytes]:
    """Length-k maximal words: the language is prefix-closed, so each is a
    length-(k - 1) one plus a letter that it does not ban."""
    if not k:
        return frozenset((b"",))
    return frozenset(
        w + bytes((x,))
        for w in _language_bytes(n, k - 1)
        for x in set(range(1, n + 1)) - _banned(w, n)
    )


def enumerate_language(n: int, k: int) -> set[Word]:
    """All length-k maximal lexicographic representatives, by brute force."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return {tuple(b) for b in _language_bytes(n, k)}


def _is_run_or_pair(v: bytes) -> bool:
    """Shape guarantee for minimal forbidden prefixes: an increasing run
    a_p a_{p+1} ... a_q, or the two-letter braid a_{p+1} a_p."""
    if len(v) == 2 and v[0] == v[1] + 1:
        return True
    return all(v[p + 1] == v[p] + 1 for p in range(len(v) - 1))


def minimal_forbidden_prefixes(w: Iterable[int], n: int) -> frozenset[Word]:
    """Minimal (for prefix order) braids v with max_lex(w v) != max_lex(w) max_lex(v).

    With big = max_lex(w), v is forbidden iff a_r <= big[i:] v for some
    i < |big| and r > big[i] (starts inside v never exceed: the language is
    factor-closed).  By cancellativity that holds iff big[i:]\\a_r <= v, so
    the answer is the set of minimal complements big[i:]\\a_r, each as its
    maximal representative.  Every returned element must be an increasing
    run or a descending adjacent pair, both of length at most n; this is
    checked a posteriori.
    """
    w = check_word(w, n)
    big = _max_lex(bytes(w))
    raw = {
        _complements(big[i:], bytes((r,)))[0]
        for i in range(len(big)) for r in range(big[i] + 1, n + 1)
    }
    complements = {_max_lex(c) for c in raw}
    found = [
        f for f in complements
        if not any(g != f and not _complements(f, g)[0] for g in complements)
    ]
    for v in found:
        if not _is_run_or_pair(v):
            raise InternalConsistencyError(
                f"forbidden prefix {tuple(v)} after {w} is neither a run nor a pair"
            )
    return frozenset(tuple(v) for v in found)
