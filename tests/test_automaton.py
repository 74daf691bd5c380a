"""Automaton construction, matrices, and exact counting."""

import dataclasses
import hashlib
import io
import json
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from test_configs import index_of, keys_of, ref_shift, states_of

from braidlex import automaton as am
from braidlex import configs as cf
from braidlex import matrixgen as mg
from braidlex import oracle
from braidlex.configs import SegmentConfig, initial_config, pack
from braidlex.errors import BraidWordError, BuildLimitError, InternalConsistencyError

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


def to_csr(m):
    """The matrix as scipy CSR with float ones at the entries."""
    p, q = m.entries.T.astype(np.int64)
    return csr_matrix((np.ones(len(p)), (p, q)), shape=(m.dim, m.dim))


def dense(m):
    """A SparseBooleanMatrix as nested lists of 0/1, row by row."""
    out = np.zeros((m.dim, m.dim), dtype=np.int8)
    out[m.entries[:, 0], m.entries[:, 1]] = 1
    return out.tolist()


def out_letters(a, s):
    """The letters that state s permits, ascending."""
    row = a.transitions[s * a.n : (s + 1) * a.n]
    return (np.flatnonzero(row >= 0) + 1).tolist()


def target(a, s, r):
    """The state letter r sends state s to, -1 when r is forbidden there."""
    return int(a.transitions[s * a.n + r - 1])


def relabel(a, order):
    """The automaton with state order[p] renumbered p.  Raises ValueError
    unless ``order`` is a permutation of all states that keeps state 0,
    where count_words and state_after start, first.  The result holds new
    arrays, and ``a`` is left as it was."""
    order = np.asarray(order)
    if not (np.array_equal(np.sort(order), np.arange(len(a))) and order[0] == 0):
        raise ValueError("order must be a permutation of all state indices with 0 first")
    return am.Automaton(a.n, a.keys[order], am._targets(a, order).ravel())


def queue_order(a):
    """The states in the order a queue from state 0 meets them: each
    state's new targets in letter order, the states in the order listed."""
    order, seen = [0], {0}
    for s in order:  # the list grows while it is read
        for t in a.transitions[s * a.n : (s + 1) * a.n].tolist():
            if t >= 0 and t not in seen:
                seen.add(t)
                order.append(t)
    return order


def ref_accepts(a, w):
    """True iff w never reads a forbidden letter, i.e. w is a representative."""
    return am.state_after(a, w) is not None


def row_sums(m):
    """Entries per row of a SparseBooleanMatrix."""
    return np.bincount(m.entries[:, 0], minlength=m.dim).tolist()


def col_sums(m):
    """Entries per column of a SparseBooleanMatrix."""
    return np.bincount(m.entries[:, 1], minlength=m.dim).tolist()


def oracle_transitions(n):
    """build's flat (state, letter) table relabelled to queue_order, rebuilt
    by a queue BFS over words that never calls configs.successors: a state
    is the set of minimal forbidden prefixes of its first word, letter r is
    forbidden there iff (r,) is in that set, and states are numbered as the
    queue meets them."""
    start = oracle.minimal_forbidden_prefixes((), n)
    index, queue, table = {start: 0}, [((), start)], []
    for w, forbidden in queue:  # the queue grows while it is read
        for r in range(1, n + 1):
            if (r,) in forbidden:
                table.append(-1)
                continue
            state = oracle.minimal_forbidden_prefixes(w + (r,), n)
            if state not in index:
                index[state] = len(queue)
                queue.append((w + (r,), state))
            table.append(index[state])
    return table


class TestStateCounts:
    def test_recurrence_values(self):
        assert [am.state_count_recurrence(n) for n in range(6)] == [0, 1, 5, 18, 56, 161]
        assert am.state_count_recurrence(19) == 126_491_780

    def test_formula_values(self):
        assert am.state_count_formula(1) == 1
        assert am.state_count_formula(3) == 18  # 4*1 + 2*3 + 1*8
        assert am.state_count_formula(4) == 56

    def test_formula_equals_recurrence(self):
        for n in range(1, 20):
            assert am.state_count_formula(n) == am.state_count_recurrence(n)
        assert am.state_counts(19).s[1:] == tuple(am.state_count_formula(n) for n in range(1, 20))

    def test_state_counts_record(self):
        c = am.state_counts(5)
        assert c.s == (0, 1, 5, 18, 56, 161)
        assert c.s_star == (0, 1, 4, 13, 38, 105)
        assert am.state_counts(0) == am.StateCounts(0, (0,), (0,))

    def test_refuses_n_out_of_range(self):
        for call in (am.state_count_recurrence, am.state_counts):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                call(-1)
        with pytest.raises(ValueError, match="n must be positive"):
            am.state_count_formula(0)


class TestBuild:
    def test_single_generator(self, build_cached):
        a = build_cached(1)
        assert len(a) == 1
        assert target(a, 0, 1) == 0  # one a_1 self-loop

    def test_small_sizes(self, build_cached):
        assert len(build_cached(2)) == 5
        assert len(build_cached(5)) == 161

    def test_initial_state(self, build_cached):
        first = states_of(build_cached(3))[0]
        assert first == SegmentConfig(3, 3, 3)
        assert first.j == 3

    def test_build_limit_guard(self):
        with pytest.raises(BuildLimitError, match="n=15 exceeds the build limit 14"):
            am.build(15)
        assert len(am.build(3)) == 18

    def test_key_width_refuses_past_14_whatever_the_guard(self, monkeypatch):
        # refused before the first level is walked
        monkeypatch.setattr(am, "successors", None)
        with pytest.raises(BuildLimitError, match="n=15 exceeds the build limit 14, the "
                           "largest n a 64-bit configuration key holds"):
            am.build(15)

    def test_preallocated_arrays_and_the_count_check(self, monkeypatch):
        a = am.build(5)
        assert (a.keys.dtype, a.transitions.dtype) == (np.uint64, np.int32)
        assert a.transitions.shape == (161 * 5,)
        assert mg.build_R_direct(5).entries.dtype == np.int32
        formula = am.state_count_formula
        # a formula one off either way: refused before the first level,
        # since the 161 canonical keys are not its count
        for off in (-1, 1):
            monkeypatch.setattr(am, "state_count_formula", lambda n, off=off: formula(n) + off)
            message = f"161 canonical configurations for n=5, formula gives {161 + off}"
            with pytest.raises(InternalConsistencyError, match=message):
                am.build(5)
        # one slot too many, and a key no configuration reaches to fill the
        # canonical set up to it: refused by the count check after the last level
        keys = cf.canonical_keys(5)
        monkeypatch.setattr(am, "canonical_keys", lambda n: np.append(keys, np.uint64(1 << 63)))
        with pytest.raises(InternalConsistencyError,
                           match="BFS found 161 states for n=5, formula gives 162"):
            am.build(5)

    @pytest.mark.parametrize("n", [1, 5])
    def test_a_successor_outside_the_canonical_keys(self, monkeypatch, n):
        # the set keeps its size, but one key every build reaches, the last
        # one canonical_keys lists, gives way to a key none reaches; at
        # n = 1 that is the initial state itself, refused before the BFS
        keys = cf.canonical_keys(n)
        lost = cf.unpack(keys[-1])
        keys[-1] = 1 << 63
        monkeypatch.setattr(am, "canonical_keys", lambda n: keys)
        if n == 1:
            message = f"canonical position 0 is not the initial configuration {lost}"
        else:
            message = f"BFS reached {lost}, missing from the canonical keys for n={n}"
        with pytest.raises(InternalConsistencyError, match=re.escape(message)):
            am.build(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bfs_order_is_pinned(self, build_cached, n):
        # build numbers its states in canonical order: its keys are
        # canonical_keys(n), and its matrices are the direct generator's
        # entry for entry; export and `matrix --check` rely on this order
        a = build_cached(n)
        assert np.array_equal(a.keys, cf.canonical_keys(n))
        assert mg.diff_matrices(am.incidence_matrix(a), mg.build_M_direct(n)) == []
        assert mg.diff_matrices(am.recurrent_matrix(a), mg.build_R_direct(n)) == []

    @pytest.mark.parametrize("n", range(1, 8))
    def test_oracle_rebuilds_the_table(self, build_cached, n):
        # entry for entry, numbering included, in the order a queue gives
        a = build_cached(n)
        assert oracle_transitions(n) == relabel(a, queue_order(a)).transitions.tolist()

    def test_single_incoming_label(self, build_cached):
        for n in (2, 3, 4, 5):
            a = build_cached(n)
            configs = states_of(a)
            incoming: dict[int, set[int]] = {}
            for s in range(len(a)):
                for r in out_letters(a, s):
                    incoming.setdefault(target(a, s, r), set()).add(r)
            for q, labels in incoming.items():
                assert labels == {configs[q].j}

    def test_transient_block_is_previous_automaton(self, build_cached):
        # states with i > 1 form a shifted copy of the size-(n-1) automaton
        for n in (2, 3, 4):
            a, prev = build_cached(n), build_cached(n - 1)
            # prev state -> the index of its shifted copy in a
            shifted = keys_of([ref_shift(c, n) for c in states_of(prev)])
            index = index_of(a)
            up = {ps: index[key] for ps, key in enumerate(shifted.tolist())}
            assert set(up.values()) == {s for s, c in enumerate(states_of(a)) if c.i > 1}
            t11 = index[pack(SegmentConfig(1, 1, 1))]
            for ps, s in up.items():
                assert target(a, s, 1) == t11  # the only exit from the copy
                for r in range(2, n + 1):
                    t, pt = target(a, s, r), target(prev, ps, r - 1)
                    assert t == (-1 if pt < 0 else up[pt])


class TestAccepts:
    def test_worked_values(self, build_cached):
        a = build_cached(2)
        assert ref_accepts(a, (2, 1, 2))
        assert not ref_accepts(a, (1, 2, 1))
        assert ref_accepts(a, ())

    def test_bad_letter(self, build_cached):
        with pytest.raises(BraidWordError):
            ref_accepts(build_cached(2), (1, 3))

    @settings(deadline=None)
    @given(w=st.lists(st.integers(1, 3), max_size=8).map(tuple))
    def test_agrees_with_representative_test(self, build_cached, w):
        assert ref_accepts(build_cached(3), w) == (oracle.max_lex(w, 3) == w)


class TestSparseBooleanMatrix:
    def test_entries_are_sorted_row_major(self):
        m = am.SparseBooleanMatrix(3, [(2, 0), (0, 2), (1, 1), (0, 1)])
        assert m.entries.tolist() == [[0, 1], [0, 2], [1, 1], [2, 0]]
        assert row_sums(m) == [2, 1, 1]
        assert col_sums(m) == [1, 2, 1]

    @pytest.mark.parametrize("pair", [(0, 2), (2, 0), (-1, 0), (0, -1)])
    def test_entry_outside_the_matrix_is_rejected(self, pair):
        with pytest.raises(InternalConsistencyError, match="outside"):
            am.SparseBooleanMatrix(2, [(0, 0), pair])

    def test_first_pair_outside_is_named(self):
        # two pairs outside, the negative one first in input order but
        # last in row-major order
        with pytest.raises(InternalConsistencyError, match=r"entry \(1, -1\) outside a 2x2"):
            am.SparseBooleanMatrix(2, [(0, 0), (1, -1), (0, 1), (0, 2)])
        with pytest.raises(InternalConsistencyError, match=r"entry \(0, 2\) outside a 2x2"):
            am.SparseBooleanMatrix(2, [(0, 2), (1, -1)])

    def test_repeated_entry_is_rejected(self):
        with pytest.raises(InternalConsistencyError, match=r"\(1, 0\) given twice"):
            am.SparseBooleanMatrix(2, [(1, 0), (0, 1), (1, 0)])


class TestIncidenceMatrix:
    def test_m2_in_canonical_order(self, build_cached):
        a = build_cached(2)
        m = am.incidence_matrix(a)
        assert dense(m) == M2_DENSE
        assert row_sums(m) == [2, 2, 1, 1, 2]

    def test_n1(self, build_cached):
        assert dense(am.incidence_matrix(build_cached(1))) == [[1]]

    def test_row_sums_are_out_degrees(self, build_cached):
        a = build_cached(4)
        m = am.incidence_matrix(a)
        assert row_sums(m) == [len(out_letters(a, s)) for s in range(len(a))]

    def test_order_validation(self, build_cached):
        # the matrix is read in the order the automaton is relabelled to;
        # relabel refuses anything but a permutation of all states, 0 first
        a = build_cached(2)
        order = [0, 4, 3, 2, 1]
        m = am.incidence_matrix(relabel(a, order))
        assert m.dim == 5
        full = np.array(dense(am.incidence_matrix(a)))
        assert dense(m) == full[np.ix_(order, order)].tolist()
        bad = (
            [0, 1, 2], [0, 1, 2, 3, 3], [0, 1, 2, 3, 5], [0, 4, 3, 2, 1, 5], [0, 1, 2, 3, -1],
            [4, 3, 2, 1, 0], [1, 0, 2, 3, 4],  # a permutation that moves state 0
        )
        for order in bad:
            with pytest.raises(ValueError, match="permutation of all state indices with 0 first"):
                relabel(a, order)

    @pytest.mark.parametrize("block", [1, 7, am._EDGE_BLOCK])
    def test_edges_in_blocks_of_sources(self, build_cached, monkeypatch, block):
        # every arrow once, sources ascending, then letters, across block
        # boundaries; restricted to the recurrent states, in their positions
        monkeypatch.setattr(am, "_EDGE_BLOCK", block)
        for n in range(1, 6):
            a = build_cached(n)
            edges = am._edges(a)
            assert edges.dtype == np.int32
            assert edges.tolist() == [
                [s, target(a, s, r)] for s in range(len(a)) for r in out_letters(a, s)
            ]
            rec = am.recurrent_states(a)
            pos = {s: p for p, s in enumerate(rec)}
            assert am._edges(a, rec).tolist() == [
                [p, pos[target(a, s, r)]] for p, s in enumerate(rec) for r in out_letters(a, s)
            ]


class TestRelabel:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_renumbers_every_state_and_arrow(self, build_cached, n):
        # to the order a queue gives, and back by the canonical ordering
        a = build_cached(n)
        order = queue_order(a)
        b = relabel(a, order)
        assert b.keys.tolist() == a.keys[order].tolist()
        new = {s: p for p, s in enumerate(order)}
        for p, s in enumerate(order):
            for r in range(1, n + 1):
                t = target(a, s, r)
                assert target(b, p, r) == (new[t] if t >= 0 else -1)
        back = relabel(b, mg.canonical_full_ordering(b))
        assert np.array_equal(back.keys, a.keys)
        assert np.array_equal(back.transitions, a.transitions)


class TestRecurrentStates:
    def test_counts(self, build_cached):
        assert len(am.recurrent_states(build_cached(2))) == 4
        assert am.recurrent_states(build_cached(1)) == [0]
        assert len(am.recurrent_states(build_cached(3))) == 13  # 18 - 5

    def test_closed_under_transitions(self, build_cached):
        for n in (2, 3, 4, 5):
            a = build_cached(n)
            rec = set(am.recurrent_states(a))
            for s in rec:
                for r in out_letters(a, s):
                    assert target(a, s, r) in rec

    def test_second_closed_component_is_rejected(self, build_cached):
        a = build_cached(2)
        assert 0 not in am.recurrent_states(a)
        # turn the transient initial state into a closed component of its own
        looped = a.transitions.copy()
        looped[: a.n] = np.where(looped[: a.n] >= 0, 0, -1)
        with pytest.raises(InternalConsistencyError):
            am.recurrent_states(dataclasses.replace(a, transitions=looped))

    def test_recurrent_set_not_strongly_connected_is_rejected(self, build_cached):
        # every arrow into one i = 1 state s goes to t11 instead: the i = 1
        # set stays closed, but no other state of it reaches s any more
        a = build_cached(3)
        t11 = index_of(a)[0x111]
        s = next(x for x in am.recurrent_states(a) if x != t11)
        moved = np.where(a.transitions == s, t11, a.transitions)
        with pytest.raises(InternalConsistencyError):
            am.recurrent_states(dataclasses.replace(a, transitions=moved))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_is_the_closed_strong_component(self, build_cached, n):
        # an independent route: scipy's Tarjan on the incidence matrix, and
        # the one strong component that no arrow leaves
        a = build_cached(n)
        m = am.incidence_matrix(a)
        count, label = connected_components(to_csr(m), directed=True, connection="strong")
        leaves = np.zeros(count, dtype=bool)
        src, dst = label[m.entries].T
        leaves[src[src != dst]] = True
        (closed,) = np.flatnonzero(~leaves)
        assert am.recurrent_states(a) == np.flatnonzero(label == closed).tolist()

    def test_dead_end_is_rejected(self, build_cached):
        # a transient state with every letter forbidden reaches nothing; the
        # last state is recurrent, so a -1 read as index m - 1 would hide it
        a = build_cached(3)
        rec = am.recurrent_states(a)
        assert len(a) - 1 in rec
        s = next(x for x in range(len(a)) if x not in rec)
        dead = a.transitions.copy()
        dead[s * a.n : (s + 1) * a.n] = -1
        with pytest.raises(InternalConsistencyError, match="n=3"):
            am.recurrent_states(dataclasses.replace(a, transitions=dead))

    def test_reads_no_edge_list(self, build_cached, monkeypatch):
        def refuse(*args):
            raise AssertionError("the proof built an edge list")

        monkeypatch.setattr(am, "_edges", refuse)
        a = dataclasses.replace(build_cached(6))  # a new object: no earlier proof answers
        assert len(am.recurrent_states(a)) == 443 - 161


class TestRecurrentMatrix:
    def test_r2_in_canonical_order(self, build_cached):
        a = build_cached(2)
        m = am.recurrent_matrix(a)
        assert dense(m) == R2_DENSE

    def test_n1(self, build_cached):
        assert dense(am.recurrent_matrix(build_cached(1))) == [[1]]

    def test_n3_row_sums(self, build_cached):
        m = am.recurrent_matrix(build_cached(3))
        assert m.dim == 13
        assert set(row_sums(m)) <= {1, 2, 3}

    def test_order_validation(self, build_cached):
        # the recurrent states are read in the order the automaton is
        # relabelled to; an order that drops or repeats one is refused
        a = build_cached(2)
        rec = am.recurrent_states(a)
        m = am.recurrent_matrix(relabel(a, [0] + rec[::-1]))
        assert m.dim == len(rec)
        r = np.array(dense(am.recurrent_matrix(a)))
        assert dense(m) == r[::-1, ::-1].tolist()
        for order in (rec[:-1], rec[:-1] + rec[:1], rec[:-1] + [0]):
            with pytest.raises(ValueError, match="permutation of all state indices with 0 first"):
                relabel(a, [0] + order)

    def test_block_without_a_loop_is_refused(self):
        # the two i = 1 states form a 2-cycle: closed and strongly connected,
        # so recurrent_states accepts them, but of period 2
        keys = keys_of([SegmentConfig(2, 2, 2), SegmentConfig(1, 1, 1), SegmentConfig(1, 2, 2)])
        a = am.Automaton(2, keys, np.array([1, -1, -1, 2, 1, -1]))
        assert am.recurrent_states(a) == [1, 2]
        with pytest.raises(InternalConsistencyError, match="n=2 is not primitive"):
            am.recurrent_matrix(a)
        # one loop on either state makes the block primitive
        looped = dataclasses.replace(a, transitions=np.array([1, -1, -1, 2, 1, 2]))
        assert am.boolean_primitive(am.recurrent_matrix(looped))


class TestBooleanPrimitive:
    def test_identity_is_not_primitive(self):
        ident = am.SparseBooleanMatrix(2, [(0, 0), (1, 1)])
        assert not am.boolean_primitive(ident)

    def test_cycle_is_not_primitive(self):
        cycle = am.SparseBooleanMatrix(2, [(0, 1), (1, 0)])
        assert not am.boolean_primitive(cycle)

    def test_cycle_with_loop_is_primitive(self):
        m = am.SparseBooleanMatrix(2, [(0, 1), (1, 0), (0, 0)])
        assert am.boolean_primitive(m)

    @pytest.mark.parametrize("d", range(4, 9))
    def test_wielandt_matrix_is_primitive(self, d):
        # needs the (d - 1)^2 + 1 th power, more than 2d
        assert am.boolean_primitive(wielandt(d))


def wielandt(d: int) -> am.SparseBooleanMatrix:
    """The cycle 0 -> 1 -> ... -> d-1 -> 0 plus the edge d-1 -> 1."""
    cycle = [(p, (p + 1) % d) for p in range(d)]
    return am.SparseBooleanMatrix(d, cycle + [(d - 1, 1)])


# each matrix with whether it is primitive, worked by hand
FIXED_MATRICES = [
    (am.SparseBooleanMatrix(3, [(0, 0), (1, 1), (2, 2)]), False),  # identity
    (am.SparseBooleanMatrix(2, [(0, 1), (1, 0)]), False),  # 2-cycle
    (am.SparseBooleanMatrix(  # two disjoint primitive blocks
        4, [(0, 1), (1, 0), (0, 0), (2, 3), (3, 2), (2, 2)]
    ), False),
    (am.SparseBooleanMatrix(1, []), False),
    (am.SparseBooleanMatrix(1, [(0, 0)]), True),
    (am.SparseBooleanMatrix(2, [(0, 0), (0, 1), (1, 1)]), False),  # 0 reaches 1, 1 does not reach 0
] + [(wielandt(d), True) for d in range(4, 9)]


class TestIsPrimitive:
    """Primitivity by boolean powers of fixed matrices, and the loop that
    recurrent_matrix reads primitivity off."""

    @pytest.mark.parametrize(
        "m, primitive",
        [pytest.param(m, p, id=f"m{i}") for i, (m, p) in enumerate(FIXED_MATRICES)],
    )
    def test_agrees_with_boolean_powers(self, m, primitive):
        assert am.boolean_primitive(m) == primitive

    def test_agrees_on_recurrent_matrices(self, build_cached):
        # recurrent_matrix accepts R_n by a loop, and t11 carries one: its
        # a_1 loop is a diagonal entry of R_n, in row order of the sorted
        # recurrent states (test_spectral checks R_n by boolean powers)
        for n in range(1, 10):
            a = build_cached(n)
            t11 = index_of(a)[pack(SegmentConfig(1, 1, 1))]
            row = am.recurrent_states(a).index(t11)
            m = am.recurrent_matrix(a)
            assert ((m.entries[:, 0] == row) & (m.entries[:, 1] == row)).any()


def ref_count_words(a, k):
    """The first row of M^k by scatter-adds on object vectors of Python ints."""
    m = len(a)
    src, dst = am._edges(a, list(range(m))).T
    counts = np.zeros(m, dtype=object)
    counts[0] = 1
    for _ in range(k):
        nxt = np.zeros(m, dtype=object)
        np.add.at(nxt, dst, counts[src])
        counts = nxt
    counts = counts.tolist()
    return counts, sum(counts)


def one_state_automaton(n):
    """Every letter loops on the only state: n^k words of length k, and the
    count after each step equals the path bound of count_words."""
    key = pack(initial_config(n))
    return am.Automaton(n, np.array([key], dtype=np.uint64), np.zeros(n, dtype=np.int64))


def digit_bound(bits):
    """Every base-2^bits digit is below this after one carry pass: 2^bits - 1
    of its own and a carry of at most (2^63 - 1) >> bits from the digit below."""
    return 2**bits - 1 + ((2**63 - 1) >> bits) + 1


DIGIT_BOUND = digit_bound(32)
assert DIGIT_BOUND == 2**32 + 2**31 - 1

#: the digit widths count_words may step on
WIDTHS = [32, 40, 48, 56]


def digits_value(x, bits=32):
    """The integers an (m, L) array of base-2^bits digits stands for."""
    return [sum(int(d) << (bits * i) for i, d in enumerate(row)) for row in x]


def last_period(r, bound, limit=2**63 - 1):
    """The last s before bound * r[s] passes limit, None if it never does in r."""
    over = [s for s, rs in enumerate(r) if bound * rs > limit]
    return over[0] - 1 if over else None


def ref_path_counts(a, steps):
    """r[0..steps], r[s] the most length-s paths into one state, on Python
    ints."""
    src, dst = am._edges(a).T
    v = np.ones(len(a), dtype=object)
    r = [1]
    for _ in range(steps):
        nxt = np.zeros(len(a), dtype=object)
        np.add.at(nxt, dst, v[src])
        v = nxt
        r.append(max(v))
    return r


@pytest.fixture
def carries(monkeypatch):
    """A copy of each array count_words carries: every periodic carry pass,
    and the final normalisation once, whose own passes are not listed
    again.  Checks that no digit in them wrapped past 2^63 - 1."""
    calls = []
    carry, carry_pass = am._carry, am._carry_pass
    final = []  # set while the final normalisation runs

    def record(x):
        assert x.min() >= 0, "a digit passed 2^63 - 1 before the carry"
        calls.append(x.copy())

    def periodic(x, bits):
        if not final:
            record(x)
        return carry_pass(x, bits)

    def normalise(x, bits):
        record(x)
        final.append(True)
        try:
            return carry(x, bits)
        finally:
            final.pop()

    monkeypatch.setattr(am, "_carry_pass", periodic)
    monkeypatch.setattr(am, "_carry", normalise)
    return calls


def widths(arrays):
    return [x.shape[1] for x in arrays]


class TestCountWords:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_reference(self, build_cached, n):
        a = build_cached(n)
        for k in (0, 1, 2, 7, 50, 200):
            assert am.count_words(a, k) == ref_count_words(a, k), k

    def test_long_words_on_many_limbs(self, build_cached):
        a = build_cached(2)
        counts, total = am.count_words(a, 3000)
        assert (counts, total) == ref_count_words(a, 3000)
        assert total.bit_length() > 32 * 60

    def test_in_degree_one_never_forces_a_carry(self, build_cached, carries):
        assert am.count_words(build_cached(1), 5000) == ([1], 1)
        assert widths(carries) == [1]  # only the final one

    @pytest.mark.parametrize("n, s", [(2, 20), (3, 12), (7, 7)])
    def test_carry_period_is_exact(self, carries, n, s):
        # B n^s <= 2^53 < B n^(s+1), and the count after s steps is n^s:
        # one state always takes the float64 block, s steps are one block
        # product with no carry before the final one, and s + 1 steps are
        # one block product and one single step with a carry pass just
        # before it
        assert DIGIT_BOUND * n**s <= 2**53 < DIGIT_BOUND * n ** (s + 1)
        a = one_state_automaton(n)
        assert am.count_words(a, s) == ([n**s], n**s)
        assert [digits_value(x) for x in carries] == [[n**s]]
        carries.clear()
        assert am.count_words(a, s + 1) == ([n ** (s + 1)], n ** (s + 1))
        assert [digits_value(x) for x in carries] == [[n**s], [n ** (s + 1)]]

    @pytest.mark.parametrize("n, k", [(1, 0), (1, 5000), (2, 0), (2, 10), (2, 200), (5, 100)])
    def test_path_counts_table(self, build_cached, n, k):
        # the path counts and the carry period at k agree with the path
        # counts on Python ints
        a = build_cached(n)
        mt = to_csr(am.incidence_matrix(a)).T.tocsr().astype(np.int64)
        r = ref_path_counts(a, min(k, 64))
        assert r == sorted(r)  # every state has a successor
        over = [s for s, rs in enumerate(r) if DIGIT_BOUND * rs > 2**63 - 1]
        path = am._path_counts(mt, k)  # ends at k, at the first s past the bound, or at n = 1
        assert path == (r[: over[0] + 1] if over else [1] if n == 1 else r)
        if n == 1:  # every row sum is 1 for good
            assert r == [1] * len(r)
            assert am._carry_period(path, k, DIGIT_BOUND) == k
        else:
            assert am._carry_period(path, k, DIGIT_BOUND) == (over[0] - 1 if over else k)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_carry_period(self, build_cached, n):
        # at both limits: the int64 carry period and the float64 block's
        a = build_cached(n)
        mt = to_csr(am.incidence_matrix(a)).T.tocsr().astype(np.int64)
        r = ref_path_counts(a, 64)
        assert r == sorted(r)  # every state has a successor
        for limit in (2**63 - 1, 2**53):
            over = [s for s, rs in enumerate(r) if DIGIT_BOUND * rs > limit]
            period = over[0] - 1 if over else 5000  # n = 1: every row sum is 1 for good
            for k in (0, 1, period - 1, period, period + 1, 5000):
                expected = min(k, period) if over else k
                r_k = am._path_counts(mt, k)
                assert am._carry_period(r_k, k, DIGIT_BOUND, limit) == expected, (limit, k)
                if limit == 2**63 - 1:
                    assert am._carry_period(r_k, k, DIGIT_BOUND) == expected, k

    @pytest.mark.parametrize("n, period, blocked", [
        (2, 42, True), (3, 26, True), (4, 21, True), (5, 18, False), (7, 14, False),
    ])
    def test_exact_around_multiples_of_the_carry_period(self, build_cached, n, period, blocked):
        a = build_cached(n)
        r = ref_path_counts(a, 64)
        assert period == max(s for s, rs in enumerate(r) if DIGIT_BOUND * rs <= 2**63 - 1)
        # one dense power of M^T costs no more than S single steps only for n <= 4
        assert (len(a) ** 2 <= period * len(am._edges(a))) == blocked
        periods = [period]
        if blocked:  # and the dense block advances by its own period
            periods.append(max(s for s, rs in enumerate(r) if DIGIT_BOUND * rs <= 2**53))
        for p in periods:
            for q in (1, 2, 3):
                for k in (q * p - 1, q * p, q * p + 1):
                    assert am.count_words(a, k) == ref_count_words(a, k), (p, k)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_width_choice(self, build_cached, n):
        # (width, carry period, block period) from the path counts on Python
        # ints: 32-bit digits and the float64 block for n <= 4, then the
        # widest width whose carry period is at least 2
        a = build_cached(n)
        r = ref_path_counts(a, 44 if n <= 4 else 20)
        if n > 1:  # r ends past every bound, so every period is within it
            assert DIGIT_BOUND * r[-1] > 2**63 - 1
        expected = {
            1: (32, 1000, 1000), 2: (32, 42, 28), 3: (32, 26, 17), 4: (32, 21, 13),
            5: (48, 6, 0), 6: (48, 5, 0), 7: (48, 4, 0), 8: (48, 3, 0), 9: (48, 2, 0),
            10: (40, 5, 0), 11: (40, 4, 0),
        }[n]
        assert am._digits(len(a), len(am._edges(a)), r, 1000) == expected
        bits, period, _ = expected
        if n > 4:  # the period of the width, and a wider width has too short a one
            assert period == last_period(r, digit_bound(bits)) >= 2
            assert all(last_period(r, digit_bound(b)) < 2 for b in WIDTHS if b > bits)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_exact_at_every_width(self, build_cached, carries, monkeypatch, n):
        # count_words held to the sparse steps of each width, at that width's
        # carry period, equals the reference around multiples of the period
        # on Python ints, and carries once before every period's first step
        a = build_cached(n)
        r = ref_path_counts(a, 64)
        for bits in WIDTHS:
            period = last_period(r, digit_bound(bits))
            if period == 0:  # not one step fits below 2^63: never chosen
                continue
            monkeypatch.setattr(am, "_digits", lambda m, nnz, path, k, bits=bits: (
                bits, am._carry_period(path, k, am._digit_bound(bits)), 0))
            if period is None:  # n = 1: one path into the state, for good
                ks = [0, 1, 2, 5000]
            else:
                ks = [q * period + d for q in (1, 2, 3) for d in (-1, 0, 1)]
            for k in ks:
                carries.clear()
                assert am.count_words(a, k) == ref_count_words(a, k), (bits, k)
                periodic = 0 if period is None else max(k - 1, 0) // period
                assert len(carries) == periodic + 1, (bits, k)

    @pytest.mark.parametrize("bits", WIDTHS)
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_carry_period_at_every_width(self, build_cached, n, bits):
        a = build_cached(n)
        mt = to_csr(am.incidence_matrix(a)).T.tocsr().astype(np.int64)
        period = last_period(ref_path_counts(a, 44 if n <= 4 else 20), digit_bound(bits))
        ks = {0, 1, 2, 5000}
        if period is not None:
            ks |= {period - 1, period, period + 1} - {-1}
        for k in sorted(ks):
            expected = k if period is None else min(k, period)  # n = 1: never past
            assert am._carry_period(am._path_counts(mt, k), k, am._digit_bound(bits)) == expected, k

    def test_one_state_counts_in_one_block(self, build_cached, carries, monkeypatch):
        powers = []
        power = np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power",
                            lambda m, e: powers.append(e) or power(m, e))
        a = build_cached(1)
        assert am.count_words(a, 5000) == ref_count_words(a, 5000)
        assert powers == [5000]  # one product with (M^T)^5000
        assert widths(carries) == [1]

    def test_n9_carries_by_the_path_bound(self, build_cached, carries):
        # n = 9 steps on 48-bit digits with the carry period S = 2 of the
        # path counts on Python ints: 200 stretches of 2 products, each of
        # the first 199 carried by one pass just before the next product,
        # and the last by the final normalisation
        a = build_cached(9)
        r = ref_path_counts(a, 20)
        bits, period, block = am._digits(len(a), len(am._edges(a)), r, 400)
        assert (bits, period, block) == (48, last_period(r, digit_bound(48)), 0) == (48, 2, 0)
        am.count_words(a, 400)
        assert len(carries) == (400 - 1) // period + 1 == 200

    def test_negative_length_is_rejected(self, build_cached):
        with pytest.raises(ValueError):
            am.count_words(build_cached(2), -1)

    def test_m2_power_50_first_row(self, build_cached):
        a = build_cached(2)
        counts, total = am.count_words(a, 50)
        assert counts == [
            1,
            16_475_640_050,
            10_182_505_536,
            10_182_505_537,
            16_475_640_048,
        ]
        assert total == sum(counts)

    def test_length_one_total_is_n(self, build_cached):
        for n in (1, 2, 3, 5):
            assert am.count_words(build_cached(n), 1)[1] == n

    def test_small_totals(self, build_cached):
        assert am.count_words(build_cached(2), 2)[1] == 4
        assert am.count_words(build_cached(2), 0)[1] == 1

    def test_totals_match_oracle(self, build_cached):
        for n in (2, 3):
            a = build_cached(n)
            for k in range(7):
                assert am.count_words(a, k)[1] == len(oracle.enumerate_language(n, k))

    def test_ending_letter_counts(self, build_cached):
        a = build_cached(2)
        assert am.ending_letter_counts(a, 2, am.count_words(a, 2)[0]) == {1: 2, 2: 2}
        counts, total = am.count_words(a, 50)
        per = am.ending_letter_counts(a, 50, counts)
        assert sum(per.values()) == total


class TestCarry:
    def test_top_digit_near_2_62_gets_a_new_column(self):
        x = np.array([[2**62 + 5], [7]], dtype=np.int64)
        out = am._carry(x, 32)
        assert out.tolist() == [[5, 2**30], [7, 0]]

    def test_carry_ripples_across_digits(self):
        top = 2**32 - 1
        x = np.array([[2**32, top, top, top], [1, 2, 3, 4]], dtype=np.int64)
        out = am._carry(x, 32)
        assert out.tolist() == [[0, 0, 0, 0, 1], [1, 2, 3, 4, 0]]

    @pytest.mark.parametrize("rows", [[[-1]], [[5, -3]]])
    def test_wrapped_digit_is_refused(self, rows):
        # x >> 32 of a negative digit stays negative: without the check the
        # carry loop would never end
        with pytest.raises(InternalConsistencyError, match="wrapped below zero"):
            am._carry(np.array(rows, dtype=np.int64), 32)

    def test_all_zero_stays_one_column(self):
        assert am._carry(np.zeros((3, 1), dtype=np.int64), 32).shape == (3, 1)

    def test_one_pass_leaves_every_digit_below_the_bound(self):
        x = np.full((3, 4), 2**63 - 1, dtype=np.int64)
        before = digits_value(x)
        out = am._carry_pass(x.copy(), 32)
        assert out.shape == (3, 5)  # the top column's carry is a new column
        assert out.max() == DIGIT_BOUND - 1
        assert digits_value(out) == before

    @pytest.mark.parametrize("rows", [[[-1]], [[5, -3]]])
    def test_one_pass_refuses_a_wrapped_digit(self, rows):
        with pytest.raises(InternalConsistencyError, match="wrapped below zero"):
            am._carry_pass(np.array(rows, dtype=np.int64), 32)

    def test_block_product_past_2_53_is_refused(self, build_cached, monkeypatch):
        # a digit bound of 1 leaves the block period no room for the digits
        # a carry pass leaves, so the second block product passes 2^53
        monkeypatch.setattr(am, "_DIGIT_BOUND", 1)
        with pytest.raises(InternalConsistencyError, match="reached 2\\^53"):
            am.count_words(build_cached(2), 300)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_one_pass_bound_at_every_width(self, bits):
        x = np.full((3, 4), 2**63 - 1, dtype=np.int64)
        before = digits_value(x, bits)
        out = am._carry_pass(x.copy(), bits)
        assert out.shape == (3, 5)  # the top column's carry is a new column
        assert out.max() == am._digit_bound(bits) - 1 == digit_bound(bits) - 1
        assert digits_value(out, bits) == before

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_carry_ripples_at_every_width(self, bits):
        top = 2**bits - 1
        x = np.array([[2**bits, top, top, top], [1, 2, 3, 4]], dtype=np.int64)
        assert am._carry(x, bits).tolist() == [[0, 0, 0, 0, 1], [1, 2, 3, 4, 0]]

    @pytest.mark.parametrize("bits", WIDTHS)
    @settings(deadline=None, max_examples=25)
    @given(rows=st.lists(
        st.lists(st.integers(0, 2**63 - 1), min_size=3, max_size=3),
        min_size=1, max_size=4,
    ))
    def test_value_kept_at_every_width(self, bits, rows):
        x = np.array(rows, dtype=np.int64)
        before = digits_value(x, bits)
        out = am._carry(x.copy(), bits)
        assert digits_value(out, bits) == before
        assert out.max() < 2**bits
        # a digit below 2^63 spans at most two base-2^bits digits
        assert out.shape[1] <= x.shape[1] + 1

    @settings(deadline=None, max_examples=50)
    @given(st.lists(
        st.lists(st.integers(0, 2**63 - 1), min_size=3, max_size=3),
        min_size=1, max_size=4,
    ))
    def test_value_kept_and_digits_below_2_32(self, rows):
        x = np.array(rows, dtype=np.int64)
        before = digits_value(x)
        out = am._carry(x.copy(), 32)
        assert digits_value(out) == before
        assert out.max() < 2**32
        # a digit below 2^63 spans at most two base-2^32 digits
        assert out.shape[1] <= x.shape[1] + 1


def to_json(a):
    """The text write_json writes."""
    fh = io.StringIO()
    am.write_json(a, fh)
    return fh.getvalue()


def to_dot(a):
    """The text write_dot writes."""
    fh = io.StringIO()
    am.write_dot(a, fh)
    return fh.getvalue()


def ref_json(a):
    """The export document, encoded whole by json.dumps."""
    states = states_of(a)
    doc = {
        "n": a.n,
        "initial": 0,
        "states": [
            {"i": c.i, "j": c.j, "k": c.k, "S": [list(seg) for seg in c.segments],
             "final_letter": c.j}
            for c in states
        ],
        "transitions": [
            (s, states[t].j, t)
            for s in range(len(a))
            for t in (target(a, s, r) for r in out_letters(a, s))
        ],
    }
    return json.dumps(doc, indent=2)


def ref_dot(a):
    """The DOT text as one list of lines, joined by newlines."""
    states = states_of(a)
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for s, c in enumerate(states):
        shape = "doublecircle" if s == 0 else "circle"
        lines.append(f'  q{s} [label="{c}" shape={shape}];')
    for s in range(len(a)):
        for t in (target(a, s, r) for r in out_letters(a, s)):
            lines.append(f'  q{s} -> q{t} [label="a{states[t].j}"];')
    lines.append("}")
    return "\n".join(lines)


class TestExports:
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("write, ref", [(to_json, ref_json), (to_dot, ref_dot)])
    def test_streamed_text_equals_the_whole_text(self, build_cached, n, write, ref):
        a = build_cached(n)
        assert write(a) == ref(a)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("write, ref", [(to_json, ref_json), (to_dot, ref_dot)])
    def test_arrow_blocks_join_seamlessly(self, build_cached, monkeypatch, n, write, ref):
        # 1 to 515 arrows: one block of at most 7 up to 74 of them
        monkeypatch.setattr(am, "_WRITE_BLOCK", 7)
        a = build_cached(n)
        assert write(a) == ref(a)

    @pytest.mark.parametrize("write, ref", [(to_json, ref_json), (to_dot, ref_dot)])
    def test_arrow_blocks_of_one(self, build_cached, monkeypatch, write, ref):
        # every arrow its own block: each separator, the first one's too,
        # falls on a block boundary
        monkeypatch.setattr(am, "_WRITE_BLOCK", 1)
        a = build_cached(3)
        assert write(a) == ref(a)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), top=st.sampled_from([0, 9, 10, 99, 100, 10**5]),
           base=st.sampled_from([0, 1]), sep=st.sampled_from(["", ",\n"]),
           block=st.sampled_from([1, 3, am._WRITE_BLOCK]))
    def test_write_rows_equals_the_per_row_format(self, data, top, base, sep, block):
        # tops at and around a change of digit width, in one block or many
        assume(base <= top)
        value = st.integers(0, top - base)
        rows = data.draw(st.lists(st.tuples(value, value, value), max_size=40))
        template = data.draw(st.sampled_from(["{} {} {}\n", "[{},{}]{}", "{}{}{}"]))
        columns = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        fh = io.StringIO()
        with mock.patch.object(am, "_WRITE_BLOCK", block):
            am.write_rows(fh, template, columns, top, base=base, sep=sep)
        assert fh.getvalue() == sep.join(
            template.format(*(v + base for v in row)) for row in rows
        )

    @pytest.mark.parametrize("write", [am.write_json, am.write_dot])
    def test_writers_hold_no_copy_of_the_whole(self, build_cached, write):
        # a whole document, or a list of every arrow, held 31.7x (JSON) and
        # 20.7x (DOT) the automaton's bytes at n = 10, and a block of 2^15
        # arrows as Python tuples 3.8x; the edge array, the digit table and
        # one block of 2^13 fixed-width rows at a time hold about 2.7x
        a = build_cached(10)
        with open(os.devnull, "w") as fh:
            tracemalloc.start()
            try:
                write(a, fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * (a.keys.nbytes + a.transitions.nbytes)

    def test_json_schema(self, build_cached):
        doc = json.loads(to_json(build_cached(2)))
        assert doc["n"] == 2
        assert doc["initial"] == 0
        assert doc["states"][0] == {"i": 2, "j": 2, "k": 2, "S": [], "final_letter": 2}
        assert len(doc["states"]) == 5
        assert len(doc["transitions"]) == 8
        assert all(len(t) == 3 for t in doc["transitions"])

    def test_dot(self, build_cached):
        dot = to_dot(build_cached(2))
        assert dot.startswith("digraph")
        assert dot.count("->") == 8
        assert '[label="a1"]' in dot

    @pytest.mark.parametrize("export, digest", [
        (to_json, "e5f7abde6d9a9a04189b0d537f655a29e88be46f4d51da3be1255357730571ee"),
        (to_dot, "a5fb3b7daf309153f62c0cb91b106590e663dee6a0fcbc935a9e18552c493458"),
    ])
    def test_n7_text_is_pinned(self, build_cached, export, digest):
        # sha256 of the text the per-(state, letter) target loops write
        # (ref_json, ref_dot) with the states in canonical order
        text = export(build_cached(7))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
