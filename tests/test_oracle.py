"""Brute-force monoid operations: worked values and defining properties."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidlex import oracle
from braidlex.errors import BraidWordError


def words(n, max_len=6):
    return st.lists(st.integers(1, n), max_size=max_len).map(tuple)


class TestEquivalenceClass:
    def test_single_letter_is_alone(self):
        assert oracle.equivalence_class((1,), 1) == {(1,)}

    def test_distant_letters_commute(self):
        assert oracle.equivalence_class((1, 3), 3) == {(1, 3), (3, 1)}

    def test_adjacent_triple(self):
        assert oracle.equivalence_class((1, 2, 1), 2) == {(1, 2, 1), (2, 1, 2)}

    def test_letter_out_of_range(self):
        with pytest.raises(BraidWordError):
            oracle.equivalence_class((1, 3), 2)

    @given(w=words(3, 5))
    def test_class_members_share_length_and_support(self, w):
        # the triple relation trades a_i a_j a_i for a_j a_i a_j, so only the
        # length and the set of letters used are preserved, not their counts
        for u in oracle.equivalence_class(w, 3):
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
        assert all(m >= u for u in oracle.equivalence_class(w, 3))


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
            assert oracle.is_representative(m[cut:], 3)


def closure_prefix(u, w, classes):
    """Reference prefix test from the definition: some word of the class of w
    starts with a word of the class of u."""
    return any(v[: len(u)] in classes[u] for v in classes[w])


class TestIsPrefix:
    def test_literal_prefix(self):
        assert oracle.is_prefix((1,), (1, 2, 1), 2)

    def test_prefix_through_rewriting(self):
        # (2,1,2) represents the same braid and starts with 2
        assert oracle.is_prefix((2,), (1, 2, 1), 2)

    def test_non_prefix(self):
        assert not oracle.is_prefix((2, 2), (1, 2, 1), 2)

    def test_through_the_adjacent_rule(self):
        # x^-1 y reverses to y x y^-1 x^-1 when |x - y| = 1
        assert oracle.is_prefix((2, 1), (1, 2, 1), 2)
        assert not oracle.is_prefix((1, 2), (2, 1), 2)
        assert not oracle.is_prefix((1,), (2, 1, 1), 2)
        assert oracle.is_prefix((2, 3), (3, 2, 1, 3, 2), 3)

    def test_through_commuting_letters(self):
        assert oracle.is_prefix((3,), (1, 3), 3)
        assert not oracle.is_prefix((3, 1), (1, 2, 3, 1), 3)
        assert oracle.is_prefix((3, 1, 1), (1, 1, 3), 3)

    def test_longer_word_is_never_a_prefix(self):
        assert not oracle.is_prefix((1, 1), (1,), 1)
        assert not oracle.is_prefix((1,), (), 1)

    @pytest.mark.parametrize("n, max_len", [(2, 6), (3, 5), (4, 4)])
    def test_agrees_with_the_closure_definition(self, n, max_len):
        reps = [w for k in range(max_len + 1) for w in oracle.enumerate_language(n, k)]
        classes = {w: oracle.equivalence_class(w, n) for w in reps}
        for u in reps:
            for w in reps:
                if len(u) <= len(w):
                    assert oracle.is_prefix(u, w, n) == closure_prefix(u, w, classes), (u, w)


class TestIsRepresentative:
    def test_worked_values(self):
        assert not oracle.is_representative((1, 2, 1), 2)
        assert oracle.is_representative((2, 1, 2), 2)
        assert not oracle.is_representative((1, 3), 3)
        assert oracle.is_representative((3, 1), 3)
        # the suffix a_2 a_3 a_2 = a_3 a_2 a_3 starts with the larger a_3
        assert not oracle.is_representative((1, 2, 3, 2), 3)

    @pytest.mark.parametrize("n, max_len", [(1, 8), (2, 8), (3, 7), (4, 6)])
    def test_iff_max_lex_is_itself(self, n, max_len):
        for k in range(max_len + 1):
            for w in product(range(1, n + 1), repeat=k):
                assert oracle.is_representative(w, n) == (oracle.max_lex(w, n) == w), w


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
                    assert not oracle.is_prefix(a, b, 3)
