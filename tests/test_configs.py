"""Segment configurations, diagrams, and the letter-transition rule."""

import hashlib
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from braidlex import configs as cf
from braidlex import matrixgen as mg
from braidlex import oracle
from braidlex.configs import SegmentConfig
from braidlex.errors import BraidLexError, ConfigError

# exhaustive scale for the checks below; 161 configs at n=5
EXHAUSTIVE_N = 5
EXPECTED_COUNTS = {1: 1, 2: 5, 3: 18, 4: 56, 5: 161}
# exhaustive scale for successors and psi against their references; 3,156 at n=8
SUCCESSORS_N = 8
# sha256 of render_diagram(c, n) + "|" over ref_all_configs(n), n = 1..6 in order
RENDER_DIGEST = "f1c2acab0cb070f82c342c7476f31fba72e679be7fb46256661f38af049f8fc8"


def ref_parse(n, square, blacks, segs):
    """Recover (i, j, k, S) from diagram content with the square at ``square``."""
    s_sorted = sorted(segs)
    s_left = tuple(s for s in s_sorted if s[0] < square)
    if square == n:
        k = n
    elif square + 1 in blacks:
        k = square + 1
    else:
        k = square
        for p, q in s_sorted:
            if p == square + 1:
                k = q
                break
    starts = [p for p in blacks if p < square]
    starts.extend(p for p, _ in s_left)
    i = min(starts, default=square)
    return SegmentConfig(i, square, k, s_left)


def ref_apply(blacks, segs, square, r, n):
    """Reference letter rule on the explicit diagram (square, blacks, segs),
    the set-based form that configs.successors fuses; r must be permitted.

    A black circle at r-1 is the degenerate run [r-1, r-1] and extends to
    [r-1, r], exactly as a segment ending at r-1 does.
    """
    nb = {p for p in blacks if p < r - 1}
    ns = []
    for p, q in segs:
        if q == r - 1:
            ns.append((p, r))
        elif p < r <= q:
            ns.append((p, q))
        elif p == r:
            if r + 1 < q:
                ns.append((r + 1, q))
            else:
                nb.add(q)
    if r - 1 in blacks:
        ns.append((r - 1, r))
    if square == r - 1:
        nb.add(r - 1)
    if r + 2 <= n:
        nb.update(range(r + 2, n + 1))
    return ref_parse(n, r, nb, ns)


def ref_psi(c, n):
    """Reference forbidden-prefix set, case by case on (j, k) instead of
    from the diagram marks that configs.psi reads."""
    out = {tuple(range(p, q + 1)) for p, q in c.segments}
    seg_starts = {p for p, _ in c.segments}
    j, k = c.j, c.k
    for r in range(c.i, n + 1):
        if r not in seg_starts and r != j and r != j + 1:
            out.add((r,))
    if k == j == n:
        pass
    elif k == j:  # j < n
        out.add((j + 1, j))
    elif k == j + 1:
        out.add((j + 1,))
    else:
        out.add((j + 1, j))
        out.add(tuple(range(j + 1, k + 1)))
    return frozenset(out)


class ShiftRangeError(BraidLexError):
    """A shift would push an index past the ambient generator count."""


def _max_index(c):
    m = c.k
    if c.segments:
        m = max(m, c.segments[0][1])
    return m


def ref_shift(c, n):
    """Reference shift on configurations: prepend a white circle, raising
    every index by one; configs.shift_keys does this on keys."""
    if _max_index(c) >= n:
        raise ShiftRangeError(f"{c} mentions {_max_index(c)}, cannot shift within n={n}")
    return SegmentConfig(
        c.i + 1, c.j + 1, c.k + 1, tuple((p + 1, q + 1) for p, q in c.segments)
    )


def ref_shift_black(c, n):
    """Raise every index by one and set i = 1: prepend a black circle."""
    s = ref_shift(c, n)
    return SegmentConfig(1, s.j, s.k, s.segments)


def ref_bar_embed(c, i):
    """Shift a size-i recurrent config up by one and wrap it in an outer
    segment [1, i+1]."""
    return SegmentConfig(
        1, c.j + 1, c.k + 1, ((1, i + 1),) + tuple((p + 1, q + 1) for p, q in c.segments)
    )


def ref_star_levels(n):
    """Canonical recurrent orderings of every size 0..n, as configurations,
    in the recursion of the matrixgen module docstring."""
    levels = [[]]
    for m in range(1, n + 1):
        out = [SegmentConfig(1, 1, k, ()) for k in range(1, m + 1)]
        out.extend(ref_shift_black(c, m) for c in levels[m - 1])
        for i in range(1, m):
            out.extend(ref_bar_embed(c, i) for c in levels[i])
            out.extend(
                SegmentConfig(1, i + 1, k, ((1, i + 1),)) for k in range(i + 2, m + 1)
            )
        levels.append(out)
    return levels


def ref_star_configs(m):
    """Recurrent states of the size-m automaton in canonical order."""
    return ref_star_levels(m)[m] if m >= 1 else []


def ref_full_configs(n):
    """All states in canonical order: white-shifted size-(n-1) ordering (the
    transient copy) followed by the recurrent block."""
    out = []
    for m, level in enumerate(ref_star_levels(n)[1:], start=1):
        out = [ref_shift(c, m) for c in out]
        out.extend(level)
    return out


def keys_of(configs):
    return np.array([cf.pack(c) for c in configs], dtype=np.uint64)


def states_of(a):
    """Every state of an automaton as a SegmentConfig, in index order."""
    return [cf.unpack(key) for key in a.keys.tolist()]


def index_of(a):
    """Each key of an automaton mapped to its state index."""
    return {key: s for s, key in enumerate(a.keys.tolist())}


def ref_all_configs(n):
    """Every valid configuration for size n, lexicographic on (i, j, k, S):
    the enumeration independent of the BFS, filtered by validate."""
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                group = [SegmentConfig(i, j, k, ())]
                for t in range(1, j - i + 1):
                    for lefts in combinations(range(i, j), t):
                        for rights_inc in combinations_with_replacement(
                            range(j, n + 1), t
                        ):
                            rights = rights_inc[::-1]
                            c = SegmentConfig(i, j, k, tuple(zip(lefts, rights)))
                            if cf.validate(c, n):
                                group.append(c)
                yield from sorted(group)


class TestSegmentConfig:
    WORKED = [
        (SegmentConfig(1, 2, 3, ((1, 2),)), "(1,2,3,{[1-2]})"),
        (SegmentConfig(2, 2, 2), "(2,2,2,{})"),
        (SegmentConfig(1, 3, 4, ((1, 4), (2, 3))), "(1,3,4,{[1-4];[2-3]})"),
    ]

    def test_hash_is_the_field_tuple_hash(self):
        for c in ref_all_configs(4):
            assert hash(c) == hash((c.i, c.j, c.k, c.segments))

    def test_str_and_repr(self):
        for c, text in self.WORKED:
            assert str(c) == text
        assert repr(self.WORKED[0][0]) == "SegmentConfig(i=1, j=2, k=3, segments=((1, 2),))"
        assert repr(self.WORKED[1][0]) == "SegmentConfig(i=2, j=2, k=2, segments=())"

    def test_sorted_by_the_field_tuple(self):
        configs = list(ref_all_configs(5))[::-1]
        assert sorted(configs) == sorted(
            configs, key=lambda c: (c.i, c.j, c.k, c.segments)
        )

    def test_immutable(self):
        c = SegmentConfig(1, 1, 1)
        with pytest.raises(AttributeError):
            c.i = 2

    def test_segments_default_to_empty(self):
        assert SegmentConfig(1, 1, 1).segments == ()

    def test_a_plain_tuple_finds_the_config_key(self):
        index = {SegmentConfig(1, 2, 2, ((1, 2),)): 7}
        assert index[(1, 2, 2, ((1, 2),))] == 7


class TestValidate:
    def test_initial_is_valid(self):
        for n in (1, 3, 7):
            assert cf.validate(cf.initial_config(n), n)

    def test_segment_ending_at_square(self):
        assert cf.validate(SegmentConfig(1, 2, 2, ((1, 2),)), 2)

    def test_segment_start_must_lie_left_of_square(self):
        assert not cf.validate(SegmentConfig(1, 2, 3, ((2, 3),)), 3)

    def test_ordering_violations(self):
        assert not cf.validate(SegmentConfig(2, 1, 1, ()), 2)
        assert not cf.validate(SegmentConfig(1, 1, 3, ()), 2)  # k > n
        # right endpoints must not increase with depth
        assert not cf.validate(SegmentConfig(1, 3, 3, ((1, 3), (2, 4))), 4)

    def test_enumeration_counts(self):
        for n, count in EXPECTED_COUNTS.items():
            assert sum(1 for _ in ref_all_configs(n)) == count

    def test_enumeration_is_sorted_per_triple(self):
        seen = list(ref_all_configs(3))
        assert len(set(seen)) == len(seen)
        assert all(cf.validate(c, 3) for c in seen)


class TestPsi:
    def test_initial_maps_to_empty(self):
        for n in (1, 2, 4):
            assert cf.psi(cf.initial_config(n), n) == frozenset()

    def test_pair_element(self):
        assert cf.psi(SegmentConfig(1, 1, 1), 2) == {(2, 1)}

    def test_single_black_circle(self):
        assert cf.psi(SegmentConfig(1, 2, 2), 2) == {(1,)}

    def test_all_four_u_cases(self):
        assert cf.psi(SegmentConfig(3, 3, 3), 3) == frozenset()          # k = j = n
        assert cf.psi(SegmentConfig(2, 2, 2), 3) == {(3, 2)}             # k = j < n
        assert cf.psi(SegmentConfig(1, 1, 2), 3) == {(2,), (3,)}         # k = j + 1
        # oracle check: F_3((1,2,2,3,1)) = {(2,1), (2,3), (3,)}
        assert cf.psi(SegmentConfig(1, 1, 3), 3) == {(2, 1), (2, 3), (3,)}  # k > j + 1

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigError):
            cf.psi(SegmentConfig(1, 2, 3, ((2, 3),)), 3)

    def test_equals_reference_on_all_configs(self):
        for n in range(1, SUCCESSORS_N + 1):
            for c in ref_all_configs(n):
                assert cf.psi(c, n) == ref_psi(c, n), c

    def test_injective_on_all_configs(self):
        for n in range(1, EXHAUSTIVE_N + 1):
            images = {}
            for c in ref_all_configs(n):
                im = cf.psi(c, n)
                assert im not in images, (c, images.get(im))
                images[im] = c


class TestDiagram:
    def test_round_trip_examples(self):
        for c, n in [
            (SegmentConfig(2, 2, 2), 2),
            (SegmentConfig(1, 2, 2, ((1, 2),)), 2),
        ]:
            assert ref_parse(n, c.j, *cf._marks(c, n)) == c

    def test_round_trip_exhaustive(self):
        # the marks determine the configuration: distinct states draw apart
        for n in range(1, EXHAUSTIVE_N + 1):
            for c in ref_all_configs(n):
                assert ref_parse(n, c.j, *cf._marks(c, n)) == c

    def test_render(self):
        assert cf.render_diagram(SegmentConfig(1, 1, 1), 2) == "# o"
        assert cf.render_diagram(SegmentConfig(1, 2, 2, ((1, 2),)), 2) == "---\no #"
        assert cf.render_diagram(SegmentConfig(1, 2, 3, ((1, 3),)), 3) == "-----\no # *"

    def test_render_digest(self):
        h = hashlib.sha256()
        for n in range(1, 7):
            for c in ref_all_configs(n):
                h.update((cf.render_diagram(c, n) + "|").encode())
        assert h.hexdigest() == RENDER_DIGEST

    def test_render_refuses_invalid_config(self):
        with pytest.raises(ConfigError):
            cf.render_diagram(SegmentConfig(1, 2, 3, ((2, 3),)), 3)


def ref_successors(keys, n):
    """configs.successors as it was computed one letter at a time: about
    25 array passes per letter over every key."""
    U = np.uint64
    keys = np.asarray(keys, dtype=U)
    nibble = U(15)
    i, j, k = (keys >> U(4 * f) & nibble for f in range(3))
    segs = keys & U(((1 << 64) - 1) ^ 0xFFF)
    ones = U(sum(1 << 4 * (p + 2) for p in range(1, cf.MAX_KEY_N)))
    out = np.zeros((len(keys), n), dtype=U)
    for r in range(1, n + 1):
        ur = U(r)
        # r at a segment start (its right end q) or at the square (k = j)
        q = keys >> U(4 * (r + 2)) & nibble if r < n else np.zeros_like(keys)
        q[j == ur] = ur
        left = keys & U(((1 << 4 * (r + 2)) - 1) ^ 0xFFF)
        if r > 1:
            # cell r-1 is black: at or right of i and no segment starts there
            black = (i < ur) & ((keys >> U(4 * (r + 1)) & nibble) == U(0))
            left |= np.where(black, U(r << 4 * (r + 1)), U(0))
        to_start = i | U(r << 4) | q << U(8) | left
        # r = j+1: the segments ending at j = r-1 grow to r
        differ = segs ^ ones * U(r - 1)
        differ |= differ >> U(1)
        differ |= differ >> U(2)
        grown = segs + (ones & ~differ)
        to_next = i | U(r << 4) | np.maximum(k, ur) << U(8) | grown
        out[:, r - 1] = np.where(
            i > ur,
            U(r * 0x111),
            np.where(q != U(0), to_start,
                     np.where((j == U(r - 1)) & (k != ur), to_next, U(0))),
        )
    return out


def successor_list(c, n):
    """(r, target) for every permitted letter r, ascending: the array rule
    read on the single key of ``c``."""
    row = cf.successors(np.array([cf.pack(c)], dtype=np.uint64), n)[0]
    return [(r, cf.unpack(t)) for r, t in enumerate(row.tolist(), start=1) if t]


def letters(c, n):
    return {r for r, _ in successor_list(c, n)}


class TestKeys:
    def test_pack_round_trips_and_is_injective(self):
        for n in range(1, SUCCESSORS_N + 1):
            configs = list(ref_all_configs(n))
            keys = [cf.pack(c) for c in configs]
            assert [cf.unpack(key) for key in keys] == configs
            assert len(set(keys)) == len(keys) and 0 not in keys

    def test_layout(self):
        c = SegmentConfig(1, 3, 4, ((1, 4), (2, 3)))
        assert cf.pack(c) == 0x34_000 + 0x431
        fields = cf.key_fields(np.array([cf.pack(c)], dtype=np.uint64))
        assert [f.tolist() for f in fields] == [[1], [3], [4]]

    def test_the_widest_key_uses_the_top_nibble(self):
        n = cf.MAX_KEY_N
        c = SegmentConfig(1, n, n, ((n - 1, n),))
        key = cf.pack(c)
        assert key >> 60 == n and key < 1 << 64
        assert cf.unpack(np.uint64(key)) == c


class TestPermittedLetters:
    def test_initial_permits_everything(self):
        assert letters(cf.initial_config(3), 3) == {1, 2, 3}

    def test_black_circle_blocks(self):
        assert letters(SegmentConfig(1, 2, 2), 2) == {2}

    def test_pair_blocks_nothing(self):
        assert letters(SegmentConfig(1, 1, 1), 2) == {1, 2}


class TestTransition:
    def test_worked_values(self):
        assert successor_list(SegmentConfig(2, 2, 2), 2) == [
            (1, (1, 1, 1, ())), (2, (2, 2, 2, ())),
        ]
        assert successor_list(SegmentConfig(1, 2, 2), 2) == [(2, (1, 2, 2, ((1, 2),)))]

    def test_successors_match_the_reference_rule(self):
        # one array call per n over every configuration of size n
        for n in range(1, SUCCESSORS_N + 1):
            configs = list(ref_all_configs(n))
            keys = np.array([cf.pack(c) for c in configs], dtype=np.uint64)
            table = cf.successors(keys, n).tolist()
            for c, row in zip(configs, table):
                blacks, segs = cf._marks(c, n)
                expected = [
                    cf.pack(ref_apply(blacks, segs, c.j, r, n)) if r not in blacks else 0
                    for r in range(1, n + 1)
                ]
                assert row == expected, c

    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_successors_equal_the_letter_by_letter_rule(self, monkeypatch, block):
        # every state of every size up to 12, at once; a small row block
        # puts block seams inside every level
        if block is not None:
            monkeypatch.setattr(cf, "_ROW_BLOCK", block)
        for n in range(1, 13):
            keys = mg.canonical_keys(n)
            if block is not None:
                keys = keys[:2000]
            assert np.array_equal(cf.successors(keys, n), ref_successors(keys, n)), n

    @pytest.mark.parametrize("n", [13, 14])
    def test_successors_at_the_top_nibbles(self, monkeypatch, n):
        # n = 14's keys use nibble 15, the segment starting at 13: every 7th
        # key, then a slice in row blocks of 7
        keys = mg.canonical_keys(n)
        assert np.array_equal(cf.successors(keys[::7], n), ref_successors(keys[::7], n))
        monkeypatch.setattr(cf, "_ROW_BLOCK", 7)
        assert np.array_equal(cf.successors(keys[:2000], n), ref_successors(keys[:2000], n))

    def test_closure_and_final_letter(self):
        for n in range(1, EXHAUSTIVE_N + 1):
            for c in ref_all_configs(n):
                for r, t in successor_list(c, n):
                    assert cf.validate(t, n)
                    assert t.j == r

    def test_matches_oracle_forbidden_sets(self):
        # walking the diagram transitions reproduces F_n(w) for short words
        for n in (2, 3):
            for k in range(4):
                for w in oracle.enumerate_language(n, k):
                    c = cf.initial_config(n)
                    for r in w:
                        c = dict(successor_list(c, n))[r]
                    assert cf.psi(c, n) == oracle.minimal_forbidden_prefixes(w, n)


class TestShifts:
    def test_shift(self):
        assert ref_shift(SegmentConfig(1, 1, 1), 2) == SegmentConfig(2, 2, 2)

    def test_shift_black(self):
        assert ref_shift_black(SegmentConfig(1, 1, 1), 2) == SegmentConfig(1, 2, 2)
        assert ref_shift_black(SegmentConfig(1, 1, 2), 3) == SegmentConfig(1, 2, 3)

    def test_segments_shift_too(self):
        c = SegmentConfig(1, 2, 2, ((1, 2),))
        assert ref_shift(c, 3) == SegmentConfig(2, 3, 3, ((2, 3),))

    def test_overflow(self):
        with pytest.raises(ShiftRangeError):
            ref_shift(SegmentConfig(1, 1, 1), 1)
        with pytest.raises(ShiftRangeError):
            ref_shift_black(SegmentConfig(1, 2, 2, ((1, 2),)), 2)

    def test_shift_produces_valid_configs(self):
        for c in ref_all_configs(3):
            assert cf.validate(ref_shift(c, 4), 4)
            assert cf.validate(ref_shift_black(c, 4), 4)

    def test_key_shift_matches_the_reference(self):
        # every configuration of size n shifts within n + 1
        for n in range(1, SUCCESSORS_N + 1):
            configs = list(ref_all_configs(n))
            shifted = cf.shift_keys(keys_of(configs))
            assert shifted.dtype == np.uint64
            assert shifted.tolist() == [cf.pack(ref_shift(c, n + 1)) for c in configs]

    def test_key_shift_reaches_the_top_nibble(self):
        n = cf.MAX_KEY_N - 1
        c = SegmentConfig(1, n, n, ((n - 1, n),))
        assert cf.shift_keys(keys_of([c])).tolist() == [cf.pack(ref_shift(c, n + 1))]

    def test_key_shift_of_no_keys(self):
        assert cf.shift_keys(np.empty(0, dtype=np.uint64)).tolist() == []
