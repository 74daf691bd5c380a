"""Brute-force monoid operations: worked values and defining properties.

The references decide the oracle's facts by slower routes that never call
its right complements: ``ref_closure`` enumerates a relation class by
single rewrites, ``ref_max_lex`` is the maximum of that class, and
``ref_language`` the maximum of each class over all n^k words.
``ref_minimal_forbidden_prefixes`` is a candidate search through length
n + 1, with prefix order and the max-lex test by reversing one letter at a
time (``_quotient``).  Only ``ref_is_representative`` and the prefix
test ``is_prefix`` read the oracle's ``_complements``, and each is checked
against the closure (``ref_is_representative`` against the greedy
``max_lex`` too).
"""

from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidlex import oracle
from braidlex.errors import BraidWordError, InternalConsistencyError


def words(n, max_len=6):
    return st.lists(st.integers(1, n), max_size=max_len).map(tuple)


def _rewrites(u):
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


def ref_closure(w):
    """Every word of the relation class of the bytes word w."""
    seen = {w}
    stack = [w]
    while stack:
        u = stack.pop()
        for v in _rewrites(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return frozenset(seen)


def ref_max_lex(w):
    """The greatest word of the class of the bytes word w."""
    return max(ref_closure(w))


def ref_equivalence_class(w, n):
    """All words representing the same braid as w."""
    w = oracle.check_word(w, n)
    return frozenset(tuple(u) for u in ref_closure(bytes(w)))


def ref_is_representative(w, n):
    """True iff w is the maximal lexicographic representative of its braid:
    no letter r > w[i] left-divides w[i:], by right complements."""
    w = bytes(oracle.check_word(w, n))
    return all(
        oracle._complements(w[i:], bytes((r,)))[0]
        for i in range(len(w) - 1) for r in set(w[i + 1:]) if r > w[i]
    )


@lru_cache(maxsize=None)
def ref_language(n, k):
    """Length-k maximal words: the maximum of each class over all n^k words."""
    out = set()
    seen = set()
    for w in product(range(1, n + 1), repeat=k):
        b = bytes(w)
        if b in seen:
            continue
        cls = ref_closure(b)
        out.add(max(cls))
        seen |= cls
    return frozenset(out)


def _quotient(x, w):
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


def _divides(u, w):
    """True iff the braid of u left-divides the braid of w."""
    for x in u:
        w = _quotient(x, w)
        if w is None:
            return False
    return True


def ref_minimal_forbidden_prefixes(w, n):
    """Candidates through length n + 1, one maximal word per braid, dropping
    those with a forbidden proper prefix; v is forbidden when big v exceeds."""
    big = ref_max_lex(bytes(oracle.check_word(w, n)))
    found = []
    for ell in range(1, n + 2):
        for v in sorted(ref_language(n, ell)):
            if any(_divides(f, v) for f in found):
                continue
            u = big + v
            if any(
                _quotient(r, u[i:]) is not None
                for i in range(len(u) - 1) for r in set(u[i + 1:]) if r > u[i]
            ):
                found.append(v)
    return frozenset(tuple(v) for v in found)


@pytest.mark.parametrize(
    "call",
    [
        lambda: oracle.check_word((), 0),
        lambda: oracle.max_lex((), 0),
        lambda: oracle.minimal_forbidden_prefixes((), 0),
        lambda: oracle.minimal_forbidden_prefixes((), -3),
        lambda: oracle.enumerate_language(0, 2),
    ],
    ids=["check_word", "max_lex", "forbidden_n0", "forbidden_n-3", "language"],
)
def test_refuses_n_below_one(call):
    with pytest.raises(ValueError, match="need n >= 1"):
        call()


class TestEquivalenceClass:
    def test_single_letter_is_alone(self):
        assert ref_equivalence_class((1,), 1) == {(1,)}

    def test_distant_letters_commute(self):
        assert ref_equivalence_class((1, 3), 3) == {(1, 3), (3, 1)}

    def test_adjacent_triple(self):
        assert ref_equivalence_class((1, 2, 1), 2) == {(1, 2, 1), (2, 1, 2)}

    def test_letter_out_of_range(self):
        with pytest.raises(BraidWordError):
            ref_equivalence_class((1, 3), 2)

    @given(w=words(3, 5))
    def test_class_members_share_length_and_support(self, w):
        # the triple relation trades a_i a_j a_i for a_j a_i a_j, so only the
        # length and the set of letters used are preserved, not their counts
        for u in ref_equivalence_class(w, 3):
            assert len(u) == len(w)
            assert set(u) == set(w)


class TestMaxLex:
    def test_worked_values(self):
        assert oracle.max_lex((1, 2, 1), 2) == (2, 1, 2)
        assert oracle.max_lex((1, 3), 3) == (3, 1)
        assert oracle.max_lex((2, 2, 2), 2) == (2, 2, 2)

    @given(w=words(3, 6))
    def test_idempotent_and_maximal(self, w):
        m = oracle.max_lex(w, 3)
        assert oracle.max_lex(m, 3) == m
        assert all(m >= u for u in ref_equivalence_class(w, 3))

    @pytest.mark.parametrize("n, max_len", [(2, 9), (3, 7), (4, 6), (5, 5)])
    def test_greedy_equals_the_closure_maximum(self, n, max_len):
        for k in range(max_len + 1):
            for w in product(range(1, n + 1), repeat=k):
                assert oracle.max_lex(w, n) == tuple(ref_max_lex(bytes(w))), w

    @settings(deadline=None)
    @given(data=st.data())
    def test_long_words_give_a_representative_of_the_same_braid(self, data):
        # past the closure's reach: the result must be maximal and divide w
        # both ways, by the one-letter reversing of _divides
        n = data.draw(st.integers(1, 12))
        w = data.draw(words(n, 30))
        m = oracle.max_lex(w, n)
        assert ref_is_representative(m, n)
        assert _divides(bytes(m), bytes(w)) and _divides(bytes(w), bytes(m))

    def test_no_dividing_letter_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "_complements", lambda u, v: (v, u))
        with pytest.raises(InternalConsistencyError, match="left-divides"):
            oracle.max_lex((1, 2), 2)


class TestEnumerateLanguage:
    def test_length_one(self):
        assert oracle.enumerate_language(3, 1) == {(1,), (2,), (3,)}
        assert len(oracle.enumerate_language(5, 1)) == 5

    def test_length_zero(self):
        assert oracle.enumerate_language(2, 0) == {()}

    def test_n2_length_two(self):
        assert oracle.enumerate_language(2, 2) == {(1, 1), (1, 2), (2, 1), (2, 2)}

    @given(w=words(3, 5))
    def test_permitted_decomposition_splits(self, w):
        # every literal split of a representative has representative parts
        m = oracle.max_lex(w, 3)
        for cut in range(len(m) + 1):
            assert oracle.max_lex(m[:cut], 3) == m[:cut]
            assert ref_is_representative(m[cut:], 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_banned_letters_are_the_exceeding_extensions(self, n):
        for k in range(6):
            for w in oracle.enumerate_language(n, k):
                banned = {x for x in range(1, n + 1) if not ref_is_representative(w + (x,), n)}
                assert oracle._banned(bytes(w), n) == banned, w

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_closure_reference(self, n):
        for k in range(8):
            assert oracle.enumerate_language(n, k) == {tuple(b) for b in ref_language(n, k)}, k


def is_prefix(u, w):
    """The braid of u left-divides the braid of w iff w\\u is empty."""
    return not oracle._complements(bytes(w), bytes(u))[0]


def closure_prefix(u, w, classes):
    """Reference prefix test from the definition: some word of the class of w
    starts with a word of the class of u."""
    return any(v[: len(u)] in classes[u] for v in classes[w])


class TestIsPrefix:
    def test_literal_prefix(self):
        assert is_prefix((1,), (1, 2, 1))

    def test_prefix_through_rewriting(self):
        # (2,1,2) represents the same braid and starts with 2
        assert is_prefix((2,), (1, 2, 1))

    def test_non_prefix(self):
        assert not is_prefix((2, 2), (1, 2, 1))

    def test_through_the_adjacent_rule(self):
        # x^-1 y reverses to y x y^-1 x^-1 when |x - y| = 1
        assert is_prefix((2, 1), (1, 2, 1))
        assert not is_prefix((1, 2), (2, 1))
        assert not is_prefix((1,), (2, 1, 1))
        assert is_prefix((2, 3), (3, 2, 1, 3, 2))

    def test_through_commuting_letters(self):
        assert is_prefix((3,), (1, 3))
        assert not is_prefix((3, 1), (1, 2, 3, 1))
        assert is_prefix((3, 1, 1), (1, 1, 3))

    def test_longer_word_is_never_a_prefix(self):
        assert not is_prefix((1, 1), (1,))
        assert not is_prefix((1,), ())

    @pytest.mark.parametrize("n, max_len", [(2, 6), (3, 5), (4, 4)])
    def test_agrees_with_the_closure_definition(self, n, max_len):
        reps = [w for k in range(max_len + 1) for w in oracle.enumerate_language(n, k)]
        classes = {w: ref_equivalence_class(w, n) for w in reps}
        for u in reps:
            for w in reps:
                if len(u) <= len(w):
                    assert is_prefix(u, w) == closure_prefix(u, w, classes), (u, w)


class TestIsRepresentative:
    def test_worked_values(self):
        assert not ref_is_representative((1, 2, 1), 2)
        assert ref_is_representative((2, 1, 2), 2)
        assert not ref_is_representative((1, 3), 3)
        assert ref_is_representative((3, 1), 3)
        # the suffix a_2 a_3 a_2 = a_3 a_2 a_3 starts with the larger a_3
        assert not ref_is_representative((1, 2, 3, 2), 3)

    @pytest.mark.parametrize("n, max_len", [(1, 8), (2, 8), (3, 7), (4, 6)])
    def test_iff_max_lex_is_itself(self, n, max_len):
        for k in range(max_len + 1):
            for w in product(range(1, n + 1), repeat=k):
                assert ref_is_representative(w, n) == (oracle.max_lex(w, n) == w), w


class TestMinimalForbiddenPrefixes:
    def test_empty_word(self):
        assert oracle.minimal_forbidden_prefixes((), 2) == frozenset()

    def test_single_generator_monoid(self):
        assert oracle.minimal_forbidden_prefixes((1,), 1) == frozenset()

    def test_after_a1_n2(self):
        assert oracle.minimal_forbidden_prefixes((1,), 2) == {(2, 1)}

    @settings(deadline=None, max_examples=30)
    @given(w=words(3, 4))
    def test_result_is_an_antichain(self, w):
        f = oracle.minimal_forbidden_prefixes(w, 3)
        for a in f:
            for b in f:
                if a != b:
                    assert not is_prefix(a, b)

    @pytest.mark.parametrize("n, max_len, reps", [(2, 7, 133), (3, 6, 370), (4, 5, 408), (5, 3, 87)])
    def test_matches_the_candidate_search(self, n, max_len, reps):
        words = [w for k in range(max_len + 1) for w in oracle.enumerate_language(n, k)]
        assert len(words) == reps
        for w in words:
            assert oracle.minimal_forbidden_prefixes(w, n) == ref_minimal_forbidden_prefixes(w, n), w


class TestComplements:
    def test_letter_rules(self):
        assert oracle._complements(b"\x02", b"\x02") == (b"", b"")
        assert oracle._complements(b"\x01", b"\x03") == (b"\x03", b"\x01")
        assert oracle._complements(b"\x01", b"\x02") == (b"\x02\x01", b"\x01\x02")

    @settings(deadline=None)
    @given(u=words(3, 4), v=words(3, 4))
    def test_both_products_are_the_common_multiple(self, u, v):
        # u (u\v) = v (v\u); that it is the least one is what the prefix
        # tests check, since u <= v iff v\u is empty
        a, b = oracle._complements(bytes(u), bytes(v))
        assert v + tuple(b) in ref_equivalence_class(u + tuple(a), 3)
