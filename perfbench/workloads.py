"""The benchmark's workloads: fixed braidlex command lines and exact checks.

Each op is one ``braidlex`` argv plus a check of its standard output (and,
for ``matrix --out``, of the file it writes).  Expected values come from
the Moebius growth series (mobius.py), the published growth table and
fixed facts about the n = 12 matrix, never from braidlex itself.

The inputs are deterministic: the benchmark's seed does not change them.
"""

from __future__ import annotations

import hashlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import mobius

#: Growth table of arXiv:1808.02755, n -> (lambda, P_a1, P_1), as copied
#: into tests/test_acceptance.py (GROWTH_TABLE) at the initial import.
#: ROADMAP item 5 records that the P_a1 column is good to about 1e-10 only,
#: so the checks compare at 1e-9.
PUBLISHED = {
    2: (1.61803398874989535, 0.309016994387306732, 0.5),
    3: (2.08679122278138296, 0.179072361848063216, 0.3736866329),
    4: (2.39485036123379746, 0.134155252415486176, 0.3212817547),
    5: (2.59937733237127854, 0.113418385255364101, 0.2948171798),
    6: (2.73962959897194480, 0.102094618000846169, 0.2797014374),
    7: (2.83910705543066832, 0.095188754079773799, 0.2702510632),
    8: (2.91185367833772002, 0.090638078480376610, 0.2639248222),
    9: (2.96648976449784296, 0.087464812090583224, 0.2594634699),
}
TOL = 1e-9

BOUND_LINES = 6

#: The n = 12 directly generated recurrent matrix in Matrix Market form.
#: ROADMAP item 3 requires this output to stay byte-identical.
R12_HEADER = "92724 92724 568120"
R12_SHA256 = "cded9240b96860e716b3e2c72324b0f19869c95fbcee2767ed85f9fb19acd484"
R12_FILE = "R12.mtx"

WORKLOADS = ("table", "count", "scale", "verify")


class CheckFailed(Exception):
    """An op's output differs from the expected value."""


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[str], None]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def state_count(n: int) -> int:
    """s_n = 3 s_{n-1} - s_{n-2} + C(n, 2) + 1, s_0 = 0, s_1 = 1."""
    s = [0, 1]
    for m in range(2, n + 1):
        s.append(3 * s[-1] - s[-2] + comb(m, 2) + 1)
    return s[n]


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@contextmanager
def unlimited_int_digits():
    """Lift Python's int/str digit cap for the checker's own parsing only.

    The cap is restored before the next braidlex call, so the program under
    test always runs with the interpreter default.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_table(start: int, stop: int) -> Callable[[str], None]:
    lam = {n: mobius.growth_rate(n) for n in range(start, stop + 1)}

    def check(out: str) -> None:
        lines = out.splitlines()
        expect(lines[0].split() == ["n", "lambda", "P_a1", "P_1"], f"header {lines[0]!r}")
        rows = lines[1 : stop - start + 2]
        for n, line in zip(range(start, stop + 1), rows, strict=True):
            fields = line.split()
            expect(int(fields[0]) == n, f"row {line!r} is not n={n}")
            got = [float(x) for x in fields[1:]]
            expect(len(got) == 3, f"row {line!r} needs lambda, P_a1, P_1")
            g_lam, g_pa1, g_p1 = got
            expect(abs(g_lam - lam[n]) <= TOL, f"n={n}: lambda {g_lam} vs Moebius {lam[n]!r}")
            if n in PUBLISHED:
                for name, g, e in zip(("lambda", "P_a1", "P_1"), got, PUBLISHED[n]):
                    expect(abs(g - e) <= TOL, f"n={n}: {name} {g} vs published {e}")
            expect(abs(g_p1 - g_lam * g_pa1) <= TOL, f"n={n}: P_1 != lambda * P_a1")
        bounds = lines[stop - start + 2 :]
        expect(len(bounds) == BOUND_LINES, f"{len(bounds)} bound lines, want {BOUND_LINES}")
        for line in bounds:
            expect(line.startswith("bound ") and line.endswith(": ok"), f"bound line {line!r}")

    return check


def check_count(n: int, k: int, by_letter: bool) -> Callable[[str], None]:
    total = mobius.coefficient(n, k)
    states = state_count(n)

    def check(out: str) -> None:
        lines = out.splitlines()
        with unlimited_int_digits():
            expect(lines[0] == f"total {total}", f"n={n} k={k}: total differs from Moebius")
            label, *per_state = lines[1].split()
            expect(label == "per-state", f"second line is {label!r}")
            expect(len(per_state) == states, f"{len(per_state)} per-state counts, want {states}")
            expect(sum(map(int, per_state)) == total, "per-state counts do not sum to total")
        letters = lines[2:]
        if not by_letter:
            expect(not letters, "unexpected lines after per-state")
            return
        expect(len(letters) == n, f"{len(letters)} ending-with lines, want {n}")
        per_letter = 0
        for r, line in enumerate(letters, start=1):
            label, count = line.rsplit(" ", 1)
            expect(label == f"ending-with a{r}", f"line {label!r}")
            per_letter += int(count)
        expect(per_letter == total, "per-letter counts do not sum to total")

    return check


def check_states(n: int) -> Callable[[str], None]:
    s = state_count(n)
    want = f"{s} {s} {s} (formula, recurrence, bfs)\n"

    def check(out: str) -> None:
        expect(out == want, f"states {n}: {out!r}, want {want!r}")

    return check


def check_matrix_file(path: Path) -> Callable[[str], None]:
    def check(out: str) -> None:
        expect(out == "", "matrix --out printed to stdout")
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            head = fh.readline() + fh.readline()
            digest.update(head)
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        expect(head.decode().splitlines()[1] == R12_HEADER, f"header {head!r}")
        expect(digest.hexdigest() == R12_SHA256, "Matrix Market bytes changed")

    return check


def check_verify(n: int, max_len: int, max_forbidden_len: int) -> Callable[[str], None]:
    c = mobius.coefficients(n, max_len)
    lines = [f"language k={k}: pass ({c[k]} words)" for k in range(max_len + 1)]
    lines.append(f"forbidden-prefix sets: pass ({sum(c[: max_forbidden_len + 1])} words)")
    lines.append(f"psi injectivity: pass ({state_count(n)} configs)")
    want = "\n".join(lines) + "\n"

    def check(out: str) -> None:
        expect(out == want, f"verify {n}: output differs:\n{out}")

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def ops(workload: str, tmpdir: Path) -> list[Op]:
    """The workload's command lines with their checks, expected values
    computed here, before any timing starts."""
    if workload == "table":
        return [Op(("table", "--from", "2", "--to", "10"), check_table(2, 10))]
    if workload == "count":
        return [
            Op(("count", "9", "400", "--by-letter"), check_count(9, 400, True)),
            # Fails at 9f70068: total has 4,474 digits, past the interpreter's
            # int->str cap.  A fix turns it into a success; keep it either way.
            Op(("count", "3", "14000"), check_count(3, 14000, False)),
        ]
    if workload == "scale":
        out = tmpdir / R12_FILE
        return [
            Op(("states", "12"), check_states(12)),
            Op(("matrix", "12", "--which", "R-appendix", "--out", str(out)),
               check_matrix_file(out)),
        ]
    if workload == "verify":
        return [
            Op(("verify", "4", "--max-len", "8", "--max-forbidden-len", "5"),
               check_verify(4, 8, 5)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
