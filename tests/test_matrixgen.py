"""Direct matrix generator, canonical orderings, and cross-validation."""

import hashlib
import io
import re
import tracemalloc
from array import array
from functools import lru_cache
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_automaton import col_sums, dense, row_sums
from test_configs import (
    index_of,
    keys_of,
    ref_all_configs,
    ref_bar_embed,
    ref_full_configs,
    ref_shift_black,
    ref_star_configs,
    states_of,
)

from braidlex import automaton as am
from braidlex import configs as cf
from braidlex import matrixgen as mg
from braidlex.configs import SegmentConfig, initial_config, pack
from braidlex.errors import BuildLimitError, InternalConsistencyError

R2_ENTRIES = {(0, 0), (0, 2), (1, 0), (2, 3), (3, 1), (3, 3)}


def pairs(block) -> list[tuple[int, int]]:
    """The (row, col) pairs of an (nnz, 2) array made by submatrix, sorted."""
    return sorted(map(tuple, block.tolist()))


def ref_submatrix(j, H, closed, counts):
    """mg.submatrix as the printed recipe reads: one put per arrow."""
    ss = counts.s_star

    @lru_cache(maxsize=None)
    def block(j, closed):
        if j < 1:
            return np.empty((0, 2), dtype=np.int64)
        entries = array("q")
        nested = []

        def put(p, q):
            entries.extend((p - 1, q - 1))

        if closed:
            for i in range(1, j + 1):
                put(i, 1)
        else:
            for i in range(1, j + 1):
                put(i, 1 + ss[j])
        if j > 1:
            put(1, j + 1)
        for i in range(3, j + 1):
            put(i, j + i - 1)
        nested.append(block(j - 1, False) + j)
        sp = j + ss[j - 1]
        for i in range(1, j):
            nested.append(block(i, True) + sp)
            if i == 1:
                for k in range(1, j - 1):
                    put(sp + 1 + k, sp + 1)
            else:
                for k in range(1, j - i):
                    put(sp + ss[i] + k, sp + comb(i + 1, 2) + 1)
            for k in range(2, j - i):
                put(sp + ss[i] + k, sp + ss[i] + k + ss[i + 1] + j - i - 2)
            if closed:
                for k in range(sp + 1, sp + ss[i] + j - i):
                    put(k, i + 1)
            else:
                for k in range(sp + 1, sp + ss[i] + j - i):
                    put(k, ss[j] + i + 1)
            if i < j - 1:
                for k in range(1, 2 ** (i - 1) + 1):
                    put(
                        sp + comb(i + 1, 2) + H[k - 1],
                        sp + ss[i] + j - i - 1 + comb(i + 2, 2) + H[2 * k - 2],
                    )
            sp += ss[i] + j - i - 1
        own = np.frombuffer(entries, dtype=np.int64).reshape(-1, 2)
        return np.concatenate([own, *nested])

    try:
        return block(j, closed)
    finally:
        block.cache_clear()


def to_matrix_market(m):
    """The text mg.to_matrix_market writes."""
    fh = io.StringIO()
    mg.to_matrix_market(m, fh)
    return fh.getvalue()


def to_csv(m):
    """The text mg.to_csv writes."""
    fh = io.StringIO()
    mg.to_csv(m, fh)
    return fh.getvalue()


def ref_to_matrix_market(m):
    """mg.to_matrix_market as one "%d %d 1" format per entry."""
    lines = "".join("%d %d 1\n" % (p + 1, q + 1) for p, q in m.entries.tolist())
    return (
        f"%%MatrixMarket matrix coordinate integer general\n"
        f"{m.dim} {m.dim} {len(m.entries)}\n{lines}"
    )


def ref_to_csv(m):
    """mg.to_csv as one join per cell of the dense matrix."""
    return "\n".join(",".join(map(str, row)) for row in dense(m)) + "\n"


class TestComputeH:
    def test_j3(self):
        assert mg.compute_H(3) == (0, 1, 6, 7)

    def test_j4(self):
        assert mg.compute_H(4) == (0, 1, 6, 7, 21, 22, 27, 28)

    def test_j1_base_case(self):
        assert mg.compute_H(1) == (0,)

    def test_length_and_monotone(self):
        for j in range(1, 13):
            h = mg.compute_H(j)
            assert len(h) == 2 ** (j - 1)
            assert all(a < b for a, b in zip(h, h[1:]))

    def test_prefix_property(self):
        for j in range(2, 13):
            prev = mg.compute_H(j - 1)
            assert mg.compute_H(j)[: len(prev)] == prev


class TestSubmatrix:
    def test_j2_closed_fills_r2(self):
        counts = am.state_counts(2)
        assert pairs(mg.submatrix(2, mg.compute_H(1), True, counts)) == sorted(R2_ENTRIES)

    def test_j1_closed_is_a_self_loop(self):
        counts = am.state_counts(1)
        assert pairs(mg.submatrix(1, (0,), True, counts)) == [(0, 0)]

    def test_j1_open_points_past_the_block(self):
        # the single state of a black-shifted size-1 block exits to the cell
        # right after it: s_1* + 1 in 1-based terms
        counts = am.state_counts(2)
        assert pairs(mg.submatrix(1, (0,), False, counts)) == [(0, 1)]

    def test_guard_on_nonpositive_size(self):
        assert pairs(mg.submatrix(0, (0,), False, am.state_counts(1))) == []

    @pytest.mark.parametrize("n", range(1, 13))
    def test_ranges_equal_the_put_loop(self, n):
        counts, H = am.state_counts(n), mg.compute_H(max(1, n - 1))
        def row_major(block):
            return block[np.lexsort((block[:, 1], block[:, 0]))]

        for closed in (True, False):
            got = mg.submatrix(n, H, closed, counts)
            want = ref_submatrix(n, H, closed, counts)
            assert len(got) == len(want)
            assert np.array_equal(row_major(got), row_major(want))

    def test_short_H_is_refused(self):
        with pytest.raises(ValueError, match="H has 2 positions; a size-4 block reads 4"):
            mg.submatrix(4, mg.compute_H(2), True, am.state_counts(4))


class TestBuildRDirect:
    def test_n2(self):
        m = mg.build_R_direct(2)
        assert m.dim == 4
        assert set(map(tuple, m.entries.tolist())) == R2_ENTRIES

    def test_n1(self):
        assert dense(mg.build_R_direct(1)) == [[1]]

    def test_shares_the_build_limit(self):
        with pytest.raises(BuildLimitError):
            mg.build_R_direct(15)
        assert mg.build_R_direct(3).dim == 13
        with pytest.raises(ValueError):
            mg.build_R_direct(0)

    def test_matches_bfs_small(self, build_cached):
        for n in range(1, 7):
            a = build_cached(n)
            bfs = am.recurrent_matrix(a)
            assert mg.diff_matrices(mg.build_R_direct(n), bfs) == []

    def test_characteristic_data_matches_bfs(self, build_cached):
        for n in (3, 5, 6):
            direct = mg.build_R_direct(n)
            bfs = am.recurrent_matrix(build_cached(n))
            assert direct.dim == bfs.dim
            assert len(direct.entries) == len(bfs.entries)
            assert sorted(row_sums(direct)) == sorted(row_sums(bfs))
            assert sorted(col_sums(direct)) == sorted(col_sums(bfs))


def canonical_configs(n):
    """(full, recurrent) canonical orders of size n as configurations."""
    full = [cf.unpack(key) for key in cf.canonical_keys(n)]
    return full, full[len(full) - am.state_counts(n).s_star[n] :]


class TestCanonicalOrdering:
    def test_n2_order(self, build_cached):
        star = [
            SegmentConfig(1, 1, 1),
            SegmentConfig(1, 1, 2),
            SegmentConfig(1, 2, 2),
            SegmentConfig(1, 2, 2, ((1, 2),)),
        ]
        assert canonical_configs(2)[1] == star
        a = build_cached(2)
        index = index_of(a)
        order = mg.canonical_full_ordering(a)
        assert order[-4:].tolist() == [index[key] for key in keys_of(star).tolist()]

    def test_n1(self):
        assert canonical_configs(1) == ([SegmentConfig(1, 1, 1)], [SegmentConfig(1, 1, 1)])

    def test_initial_state_comes_first(self):
        # build refuses unless state 0, the initial state, is at position 0
        for n in range(1, 15):
            assert cf.canonical_keys(n)[0] == pack(initial_config(n))

    def test_n3_first_block(self):
        order = canonical_configs(3)[1]
        assert len(order) == 13
        assert order[:3] == [
            SegmentConfig(1, 1, 1),
            SegmentConfig(1, 1, 2),
            SegmentConfig(1, 1, 3),
        ]

    def test_star_sizes(self):
        # the recurrent states (i = 1) are exactly the last s*_n keys
        for n in range(1, 9):
            counts = am.state_counts(n)
            i = cf.key_fields(cf.canonical_keys(n))[0]
            assert len(i) == counts.s[n]
            assert (i[: counts.s[n - 1]] > 1).all() and (i[counts.s[n - 1] :] == 1).all()

    def test_full_ordering_covers_everything(self, build_cached):
        for n in (2, 3, 4):
            a = build_cached(n)
            full = canonical_configs(n)[0]
            assert len(full) == len(set(full)) == len(a)
            assert set(full) == set(states_of(a))
            # transient copy first, recurrent block last
            assert all(c.i > 1 for c in full[: len(a) - am.state_counts(n).s_star[n]])

    def test_keys_equal_the_config_reference(self):
        for n in range(1, 11):
            keys = cf.canonical_keys(n)
            assert keys.dtype == np.uint64
            assert keys.tolist() == keys_of(ref_full_configs(n)).tolist()
            star = keys_of(ref_star_configs(n))
            assert keys[len(keys) - len(star) :].tolist() == star.tolist()

    def test_black_shift_and_bar_embed_match_the_reference(self):
        for n in range(1, 9):
            configs = list(ref_all_configs(n))
            black = cf._prepend_black(keys_of(configs))
            assert black.tolist() == [cf.pack(ref_shift_black(c, n + 1)) for c in configs]
            # a bar embedding wraps a recurrent configuration of size n
            rec = [c for c in configs if c.i == 1]
            barred = cf._prepend_black(keys_of(rec), n + 1)
            assert barred.tolist() == [cf.pack(ref_bar_embed(c, n)) for c in rec]

    def test_n12_full_ordering_is_pinned(self, build_cached):
        # build numbers its states in canonical order
        order = mg.canonical_full_ordering(build_cached(12))
        assert np.array_equal(order, np.arange(am.state_count_formula(12)))

    def test_missing_config_is_reported_by_the_full_ordering(self, build_cached):
        a = build_cached(2)
        broken = am.Automaton(3, a.keys, a.transitions)
        with pytest.raises(InternalConsistencyError):
            mg.canonical_full_ordering(broken)
        # the right number of states, the last key replaced by the first
        keys = a.keys.copy()
        keys[-1] = keys[0]
        lost = re.escape(f"canonical config {cf.unpack(a.keys[-1])} missing from automaton")
        with pytest.raises(InternalConsistencyError, match=lost):
            mg.canonical_full_ordering(am.Automaton(2, keys, a.transitions))
        # every canonical key and one more, the initial state of n = 3 or a
        # repeated one: named, where the lookup of a missing key finds none
        for more in (pack(initial_config(3)), a.keys[2]):
            extra = am.Automaton(2, np.append(a.keys, np.uint64(more)), a.transitions)
            held = re.escape(f"config {cf.unpack(more)} held beyond the canonical ones")
            with pytest.raises(InternalConsistencyError, match=held):
                mg.canonical_full_ordering(extra)


class TestEmbeddingLemmas:
    """The two embedding lemmas of the successor rule that the generator's
    recursion rests on, checked on every canonical key of size n <= 11."""

    @pytest.mark.parametrize("n", range(1, 12))
    def test_white_shift(self, n):
        # letter r + 1 on a shifted state is the shift of letter r, or
        # forbidden exactly when r is; letter 1 goes to t11 = (1,1,1,{})
        keys = cf.canonical_keys(n)
        succ = cf.successors(keys, n)
        shifted = cf.successors(cf.shift_keys(keys), n + 1)
        assert (shifted[:, 0] == pack(SegmentConfig(1, 1, 1))).all()
        assert np.array_equal(shifted[:, 1:], np.where(succ == 0, 0, cf.shift_keys(succ)))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_black_prepend(self, n):
        # on a recurrent state with a black cell prepended, letters 3..n+1
        # are the prepended letters 2..n and letter 1 is forbidden; letter 2
        # is forbidden on s*_{n-1} of them and leads to one of the n states
        # (1,2,k,{[1-2]}), k = 2..n+1, on the rest
        s_star = am.state_counts(n).s_star
        star = cf.canonical_keys(n)[-s_star[n] :]
        succ = cf.successors(star, n)
        black = cf.successors(cf._prepend_black(star), n + 1)
        assert not black[:, 0].any()
        assert np.array_equal(black[:, 2:],
                              np.where(succ[:, 1:] == 0, 0, cf._prepend_black(succ[:, 1:])))
        second = black[:, 1]
        assert (second == 0).sum() == s_star[n - 1]
        bars = {pack(SegmentConfig(1, 2, k, ((1, 2),))) for k in range(2, n + 2)}
        assert set(second[second != 0].tolist()) == bars


class TestDiffAndExport:
    def test_diff_reports_both_directions(self):
        a = am.SparseBooleanMatrix(2, [(0, 0)])
        b = am.SparseBooleanMatrix(2, [(1, 1)])
        assert mg.diff_matrices(a, b) == [
            (0, 0, "only-in-first"),
            (1, 1, "only-in-second"),
        ]
        assert mg.diff_matrices(a, a) == []
        # sides that alternate in row-major order around one shared entry
        a = am.SparseBooleanMatrix(3, [(0, 1), (1, 1), (2, 0), (2, 2)])
        b = am.SparseBooleanMatrix(3, [(0, 0), (1, 1), (1, 2), (2, 1)])
        assert mg.diff_matrices(a, b) == [
            (0, 0, "only-in-second"),
            (0, 1, "only-in-first"),
            (1, 2, "only-in-second"),
            (2, 0, "only-in-first"),
            (2, 1, "only-in-second"),
            (2, 2, "only-in-first"),
        ]
        # a strict subset
        full = mg.build_R_direct(3)
        part = am.SparseBooleanMatrix(13, full.entries[::3])
        missing = [(p, q) for i, (p, q) in enumerate(full.entries.tolist()) if i % 3]
        assert mg.diff_matrices(part, full) == [(p, q, "only-in-second") for p, q in missing]
        assert mg.diff_matrices(full, part) == [(p, q, "only-in-first") for p, q in missing]
        # an empty matrix against a full one
        empty = am.SparseBooleanMatrix(3, [])
        cells = [(p, q) for p in range(3) for q in range(3)]
        full = am.SparseBooleanMatrix(3, cells)
        assert mg.diff_matrices(empty, full) == [(p, q, "only-in-second") for p, q in cells]
        assert mg.diff_matrices(full, empty) == [(p, q, "only-in-first") for p, q in cells]
        assert mg.diff_matrices(empty, empty) == []
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 13"):
            mg.diff_matrices(empty, part)

    def test_diff_memory_is_a_few_entry_arrays(self, build_cached):
        # the two key arrays and what np.isin sorts, and a label only per
        # difference: about 4.4 times the bytes of both entry arrays at any n
        a = build_cached(11)
        first = mg.build_R_direct(11)
        second = am.recurrent_matrix(a)
        tracemalloc.start()
        try:
            assert mg.diff_matrices(first, second) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * (first.entries.nbytes + second.entries.nbytes)

    def test_matrix_market_format(self):
        m = mg.build_R_direct(2)
        text = to_matrix_market(m)
        lines = text.strip().split("\n")
        assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
        assert lines[1] == "4 4 6"
        assert lines[2] == "1 1 1"
        assert len(lines) == 2 + 6

    def test_matrix_market_blocks_join_seamlessly(self, monkeypatch):
        m = mg.build_R_direct(4)  # 94 entries: 19 blocks of at most 5
        lines = [f"{p + 1} {q + 1} 1\n" for p, q in m.entries.tolist()]
        want = f"%%MatrixMarket matrix coordinate integer general\n38 38 {len(lines)}\n"
        monkeypatch.setattr(am, "_WRITE_BLOCK", 5)
        assert to_matrix_market(m) == want + "".join(lines)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), dim=st.sampled_from([1, 9, 10, 99, 100, 101, 10**5]),
           block=st.sampled_from([1, 3, am._WRITE_BLOCK]))
    def test_matrix_market_equals_the_per_entry_format(self, data, dim, block):
        # dims at and around a change of digit width, in one block or many
        index = st.integers(0, dim - 1)
        entries = data.draw(st.sets(st.tuples(index, index), max_size=40))
        m = am.SparseBooleanMatrix(dim, sorted(entries))
        with mock.patch.object(am, "_WRITE_BLOCK", block):
            assert to_matrix_market(m) == ref_to_matrix_market(m)

    def test_digit_table_spells_every_index(self):
        # 0 too: it is one "0", not an all-NUL row
        for top in (0, 1, 9, 10, 11, 99, 100, 1000, 1001):
            table = am._digit_table(top)
            assert table.shape == (top + 1, len(str(top)))
            assert [row[row != 0].tobytes().decode() for row in table] == [
                str(v) for v in range(top + 1)
            ]

    def test_n9_matrix_market_digests(self, build_cached):
        # pinned output: a change of matrix representation must keep the
        # Matrix Market files byte-identical
        def digest(m):
            return hashlib.sha256(to_matrix_market(m).encode()).hexdigest()

        a = build_cached(9)
        assert digest(mg.build_R_direct(9)) == (
            "650f3147307d871025904120ad05e519880adea242338e69c4e10e242ba6b686"
        )
        assert digest(am.incidence_matrix(a)) == (
            "9ab1a12da89982a5f0944b11520b3bdf13e80aaf4c5501a118b9c8298ef69e3e"
        )

    def test_csv(self):
        assert to_csv(mg.build_R_direct(1)) == "1\n"
        assert to_csv(am.SparseBooleanMatrix(0, [])) == "\n"
        assert to_csv(am.SparseBooleanMatrix(2, [])) == "0,0\n0,0\n"
        assert to_csv(am.SparseBooleanMatrix(2, [(1, 1), (0, 1)])) == "0,1\n0,1\n"

    def test_csv_equals_the_per_cell_join(self, build_cached):
        for n in range(1, 7):
            a = build_cached(n)
            for m in (
                am.incidence_matrix(a),
                am.recurrent_matrix(a),
                mg.build_R_direct(n),
            ):
                assert to_csv(m) == ref_to_csv(m), (n, m.dim)
