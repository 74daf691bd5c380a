"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from test_automaton import dense
from test_configs import ref_all_configs
from test_spectral import resolvent_nonneg_check

from braidlex import automaton as am
from braidlex import cli
from braidlex import configs as cf
from braidlex import matrixgen as mg
from braidlex import oracle
from braidlex import spectral as sp

# the growth table published in the paper: n -> (lambda, P_a1, P_1)
GROWTH_TABLE = {
    2: (1.61803398874989535, 0.309016994387306732, 0.5),
    3: (2.08679122278138296, 0.179072361848063216, 0.3736866329),
    4: (2.39485036123379746, 0.134155252415486176, 0.3212817547),
    5: (2.59937733237127854, 0.113418385255364101, 0.2948171798),
    6: (2.73962959897194480, 0.102094618000846169, 0.2797014374),
    7: (2.83910705543066832, 0.095188754079773799, 0.2702510632),
    8: (2.91185367833772002, 0.090638078480376610, 0.2639248222),
    9: (2.96648976449784296, 0.087464812090583224, 0.2594634699),
}

M2_DENSE = [
    [1, 1, 0, 0, 0],
    [0, 1, 0, 1, 0],
    [0, 1, 0, 0, 0],
    [0, 0, 0, 0, 1],
    [0, 0, 1, 0, 1],
]
R2_DENSE = [
    [1, 0, 1, 0],
    [1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 1, 0, 1],
]
M2_POW50_FIRST_ROW = [1, 16475640050, 10182505536, 10182505537, 16475640048]

PHI = (1 + math.sqrt(5)) / 2

VERIFY_DIGESTS = {
    1: "cde4e9224f27efd6b7b1cb1b323ad82703d6973c6441717a4acca9fc9d1d7b36",
    2: "00cf1f3740da8602644f5ac898dbe862414559923d592e7d94ceda4ae4211f73",
    3: "191d7ff1ed82e3f63f7c9fdfb81c4c579c698abb8ebdbe02e7923cd5abfd331f",
    4: "653cfe5f90f4d39b5e8d4305eb204270e68e99c68876fb186062f579027fbe23",
    5: "9ffe0cb126a49b73440d61ee2ad4a812a4ef634a6419db216cb299a59704ae89",
}


@pytest.fixture(scope="module")
def spectral_store():
    return {}


def _analysis(store, build_cached, n):
    if n not in store:
        store[n] = sp.analyze(build_cached(n))
    return store[n]


def _passed(num, elapsed, cap, message):
    assert elapsed < cap, f"criterion {num} took {elapsed:.1f}s (cap {cap}s)"
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.1f}s < {cap}s): {message}")


def test_criterion_01_state_counts(build_cached):
    t0 = time.monotonic()
    assert [len(build_cached(n)) for n in range(1, 6)] == [1, 5, 18, 56, 161]
    assert [am.state_count_formula(n) for n in range(1, 6)] == [1, 5, 18, 56, 161]
    assert [am.state_count_recurrence(n) for n in range(1, 6)] == [1, 5, 18, 56, 161]
    for n in range(1, 20):
        assert am.state_count_formula(n) == am.state_count_recurrence(n)
    assert am.state_count_recurrence(19) == 126_491_780
    for n in range(1, 13):
        a = build_cached(n) if n <= 9 else am.build(n)
        assert len(a) == am.state_count_formula(n)
    _passed(1, time.monotonic() - t0, 30, "s_1..s_5 worked list, s_19, BFS=formula=recurrence n=1..12")


def test_criterion_02_printed_matrices(build_cached):
    t0 = time.monotonic()
    a = build_cached(2)
    m2 = am.incidence_matrix(a)
    assert dense(m2) == M2_DENSE
    r2 = am.recurrent_matrix(a)
    assert dense(r2) == R2_DENSE
    _passed(2, time.monotonic() - t0, 5, "M_2 and R_2 match the printed matrices entrywise")


def test_criterion_03_matrix_power_row(build_cached):
    t0 = time.monotonic()
    a = build_cached(2)
    counts, total = am.count_words(a, 50)
    assert counts == M2_POW50_FIRST_ROW
    assert total == sum(M2_POW50_FIRST_ROW)
    _passed(3, time.monotonic() - t0, 1, "first row of M_2^50 reproduced in exact integers")


def test_criterion_04_growth_table(build_cached, spectral_store):
    t0 = time.monotonic()
    worst = 0.0
    for n, (lam_e, pa1_e, p1_e) in GROWTH_TABLE.items():
        row = _analysis(spectral_store, build_cached, n).row
        for got, expected in ((row.lam, lam_e), (row.p_a1, pa1_e), (row.p_1, p1_e)):
            worst = max(worst, abs(got - expected))
            assert abs(got - expected) < 1e-9, (n, got, expected)
    _passed(4, time.monotonic() - t0, 60, f"growth table n=2..9 matches to 1e-9 (worst {worst:.1e})")


def test_criterion_05_golden_ratio(build_cached, spectral_store):
    t0 = time.monotonic()
    lam = _analysis(spectral_store, build_cached, 2).result.lam
    assert abs(lam - PHI) < 1e-12
    res = sp.perron(am.recurrent_matrix(build_cached(2)))
    scaled = res.v / res.v[1]
    assert np.max(np.abs(scaled - np.array([PHI, 1.0, 1.0, PHI]))) < 1e-10
    _passed(5, time.monotonic() - t0, 5, "lambda_2 = golden ratio, eigenvector prop. to (phi,1,1,phi)")


def test_criterion_06_bounds(build_cached, spectral_store):
    t0 = time.monotonic()
    rows = [_analysis(spectral_store, build_cached, n).row for n in range(2, 10)]
    sp.bound_report(rows)  # raises BoundViolationError on a failing bound
    for row in rows:
        assert row.p_1 > 0.125
        assert row.p_a1 > 0.03125
        assert row.lam < 3.233637
        assert abs(row.p_1 - row.lam * row.p_a1) < 1e-10
    for prev, cur in zip(rows, rows[1:]):
        assert cur.lam > prev.lam
    _passed(6, time.monotonic() - t0, 30, "P_1 > 1/8, P_a1 > 1/32, lambda increasing and < 3.233637")


def test_criterion_07_oracle_equivalence(build_cached, capsys):
    # language equality up to k = 7; forbidden-prefix agreement on every
    # accepted word up to k = 6, through n = 5
    t0 = time.monotonic()
    words_checked = 0
    for n in range(1, 6):
        assert cli.main(["verify", str(n), "--max-len", "7", "--max-forbidden-len", "6"]) == 0
        out = capsys.readouterr().out
        # sha256 of the output of the closure-search oracle that enumerated
        # candidate prefixes; the complement oracle reproduces it
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[n]
        checked = re.search(r"^forbidden-prefix sets: pass \((\d+) words\)$", out, re.M)
        words_checked += int(checked.group(1))
        a = build_cached(n)
        for k in range(8):
            assert am.count_words(a, k)[1] == len(oracle.enumerate_language(n, k))
    assert words_checked == 3798
    _passed(7, time.monotonic() - t0, 120, f"oracle equivalence n<=5 ({words_checked} forbidden-prefix sets)")


def test_criterion_08_generator_fidelity(build_cached):
    t0 = time.monotonic()
    assert mg.compute_H(3) == (0, 1, 6, 7)
    assert mg.compute_H(4) == (0, 1, 6, 7, 21, 22, 27, 28)
    for n in range(1, 10):
        a = build_cached(n)
        bfs = am.recurrent_matrix(a)
        diffs = mg.diff_matrices(mg.build_R_direct(n), bfs)
        assert diffs == [], (n, diffs[:5])
        bfs = am.incidence_matrix(a)
        diffs = mg.diff_matrices(mg.build_M_direct(n), bfs)
        assert diffs == [], (n, diffs[:5])
    ledger = Path(__file__).resolve().parent.parent / "FIDELITY.md"
    assert ledger.is_file()
    text = ledger.read_text()
    assert "[0]" in text and "[1]" in text  # the repaired initialization is recorded
    _passed(8, time.monotonic() - t0, 60, "H vectors exact; generated R_n and M_n = BFS entrywise, n=1..9")


def test_criterion_09_psi_injectivity():
    t0 = time.monotonic()
    sizes = {}
    for n in range(1, 6):
        images = set()
        count = 0
        for c in ref_all_configs(n):
            im = cf.psi(c, n)
            assert im not in images, (n, c)
            images.add(im)
            count += 1
        sizes[n] = count
    assert sizes == {1: 1, 2: 5, 3: 18, 4: 56, 5: 161}
    _passed(9, time.monotonic() - t0, 5, "psi images pairwise distinct over all configs, n<=5")


def test_criterion_10_resolvent(build_cached, spectral_store):
    t0 = time.monotonic()
    for n in range(2, 6):
        lam = _analysis(spectral_store, build_cached, n).result.lam
        R = am.recurrent_matrix(build_cached(n))
        assert resolvent_nonneg_check(R, lam + 0.1)
    _passed(10, time.monotonic() - t0, 10, "(lambda I - R)^-1 entrywise positive for n=2..5 at lambda_n + 0.1")
