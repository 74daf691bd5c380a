"""Growth series of the positive braid monoid, by Moebius inversion.

Max-lex representatives biject with positive braids, so the number of
length-k representatives on n generators is the k-th coefficient of

    1 / D_n(t),   D_n(t) = sum over T in {1..n} of (-1)^|T| t^l(Delta_T)

(Deligne 1972, "Les immeubles des groupes de tresses generalises"; Charney
1995, Math. Ann.; K. Saito 2009, "Growth functions for Artin monoids").
Here l(Delta_T) sums m(m+1)/2 over the maximal runs of length m in T.  The
smallest positive root of D_n is 1/lambda_n.

This module shares no code with braidlex: the benchmark uses it as an
independent oracle for the exact counts and growth rates the CLI prints.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice

#: smallest_root brackets the root on a grid of 1/GRID, then bisects it to
#: within 2^-BITS.
GRID = 1024
BITS = 64


def denominator(n: int) -> list[int]:
    """Integer coefficients of D_n, lowest degree first (degree n(n+1)/2).

    f(m) = f(m-1) + sum_{r=1..m} (-1)^r t^(r(r+1)/2) f(m-r-1), with
    f(0) = f(-1) = 1: either m is not in T, or T ends with a maximal run of
    length r at m and the rest of T lies in {1..m-r-1}.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    f = {-1: [1], 0: [1]}
    for m in range(1, n + 1):
        acc = list(f[m - 1]) + [0] * (m * (m + 1) // 2 + 1 - len(f[m - 1]))
        for r in range(1, m + 1):
            shift = r * (r + 1) // 2
            sign = -1 if r % 2 else 1
            for i, c in enumerate(f[m - r - 1]):
                acc[i + shift] += sign * c
        while len(acc) > 1 and acc[-1] == 0:
            acc.pop()
        f[m] = acc
    return f[n]


def series(n: int) -> Iterator[int]:
    """Exact number of length-k representatives for k = 0, 1, 2, ...

    c_k = -sum_{i >= 1} d_i c_{k-i}, kept in a window of the last deg D_n
    values, so the memory held is O(n^2) coefficients whatever k reaches.
    """
    d = denominator(n)
    window = deque([1], maxlen=len(d) - 1)     # c_{k-1}, c_{k-2}, ...
    yield 1
    while True:
        c = -sum(di * ci for di, ci in zip(d[1:], window))
        window.appendleft(c)
        yield c


def coefficients(n: int, k_max: int) -> list[int]:
    """Exact number of length-k representatives for k = 0..k_max."""
    return list(islice(series(n), k_max + 1))


def coefficient(n: int, k: int) -> int:
    """Exact number of length-k representatives, without the shorter ones."""
    return next(islice(series(n), k, None))


def _sign_at(d: list[int], p: int, q: int) -> int:
    """Sign of D(p/q) for q > 0, by exact integer Horner on q^deg D(p/q)."""
    deg = len(d) - 1
    acc = 0
    qpow = 1
    for i in range(deg, -1, -1):
        acc = acc * p + d[i] * qpow
        qpow *= q
    return (acc > 0) - (acc < 0)


def smallest_root(n: int) -> Fraction:
    """Smallest positive root of D_n to within 2^-BITS, by exact bisection.

    D_n > 0 on [0, 1/lambda_n) because 1/D_n has positive coefficients
    there, and D_n(1) = 0 for n >= 1; so the first grid point in (0, 1]
    where D_n <= 0 brackets the root from above.
    """
    if n < 1:
        raise ValueError("n must be positive")
    d = denominator(n)
    a = next(a for a in range(1, GRID + 1) if _sign_at(d, a, GRID) <= 0)
    scale = GRID << BITS
    lo, hi = (a - 1) << BITS, a << BITS
    while hi - lo > GRID:
        mid = (lo + hi) // 2
        if _sign_at(d, mid, scale) > 0:
            lo = mid
        else:
            hi = mid
    return Fraction(hi, scale)


def growth_rate(n: int) -> float:
    """lambda_n = 1 / (smallest positive root of D_n)."""
    return float(1 / smallest_root(n))
