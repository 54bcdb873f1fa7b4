import tracemalloc
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ewords import (
    INFINITY,
    PARITY_ROWS,
    ZERO,
    ESequence,
    ExtRational,
    FreeWord,
    child_word,
    closed_form_stop,
    e_word,
    e_word_integer,
    e_word_reciprocal,
    farey_sum,
    matches_excluded_row,
    normalize,
    parity_pattern,
    sign_rule,
)
from ewords.enumeration import count_ewords_of_length, enumerate_ewords
from ewords.verify import (
    neighbor_pairs,
    oracle_e_word,
    rational_indices,
    recursion_call_count,
)
from oracles import christoffel_letters, letters

W = FreeWord.parse

# index -> expected word, frozen from hand expansion of the recursion
KNOWN_WORDS = {
    "0": "a",
    "inf": "b",
    "1": "b a",
    "2": "b a b",
    "5": "b^3 a b^2",
    "1/2": "a b a",
    "2/3": "a b a b a",
    "5/3": "b a b^2 a b a b",
    "-1": "b a^-1",
    "-2": "b a^-1 b",
    "-1/2": "a^-1 b a^-1",
    "-2/3": "a^-1 b a^-1 b a^-1",
    "68/13": "b^3 a b^5 a b^5 a b^5 a b^6 a b^5 a b^5 a b^5 a b^5 a b^6"
    " a b^5 a b^5 a b^5 a b^3",
}

indexish = st.tuples(
    st.integers(min_value=-5000, max_value=5000), st.integers(min_value=1, max_value=5000)
)


class TestEWord:
    @pytest.mark.parametrize("text,expected", sorted(KNOWN_WORDS.items()))
    def test_known_values(self, text, expected):
        from ewords import parse_rational

        x = parse_rational(text)
        assert e_word(x) == W(expected)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            e_word(ZERO, mode="fast")

    def test_matches_oracle_exhaustive(self):
        for x in rational_indices(14):
            assert e_word(x) == oracle_e_word(x), x

    def test_modes_agree_exhaustive(self):
        for x in rational_indices(20):
            assert e_word(x, "orphan") == e_word(x, "shortcut"), x

    @pytest.mark.parametrize("mode", ["orphan", "shortcut"])
    @pytest.mark.parametrize("n", [1000, -1000, 10**5, 10**6, -(10**6)])
    def test_deep_integers(self, n, mode):
        # the walk against the closed form, past any recursion depth
        assert e_word(ExtRational(n, 1), mode) == e_word_integer(n)

    @pytest.mark.parametrize("mode", ["orphan", "shortcut"])
    @pytest.mark.parametrize("n", [5000, 10**5])
    def test_deep_near_one(self, n, mode):
        # (n+1)/n = [1; n], whose word the stopping-pair tables give directly
        want = closed_form_stop(ESequence((1, n))).right
        assert e_word(ExtRational(n + 1, n), mode) == want

    def test_near_one_memory(self):
        # 2*10^6 + 1 runs; products share run tuples instead of copying them
        tracemalloc.start()
        try:
            w = e_word(ExtRational(1000001, 1000000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert w.factor_count("b") == 10**6 + 1
        assert w.factor_count("a") == 10**6

    @given(indexish)
    def test_palindrome_parity(self, pq):
        x = normalize(*pq)
        assert e_word(x).is_palindrome() == ((x.p * x.q) % 2 == 0)

    @given(indexish)
    def test_factor_counts(self, pq):
        x = normalize(*pq)
        w = e_word(x)
        assert w.factor_count("b") == abs(x.p)
        assert w.factor_count("a") == x.q
        assert w.length == abs(x.p) + x.q

    @pytest.mark.parametrize("mode", ["orphan", "shortcut"])
    def test_walk_tests_no_palindromes(self, monkeypatch, mode):
        # the walk reads each block's order off index parity, never off its words
        expected = enumerate_ewords(30, mode)

        def refuse(self):
            raise AssertionError("e_word tested a word for palindromy")

        monkeypatch.setattr(FreeWord, "is_palindrome", refuse)
        assert {x: e_word(x, mode) for x in expected} == expected

    @given(
        st.integers(min_value=-3000, max_value=3000), st.integers(min_value=1, max_value=3000)
    )
    def test_spells_rotated_christoffel_word(self, p, q):
        assume(gcd(abs(p), q) == 1)
        assert letters(e_word(ExtRational(p, q))) == christoffel_letters(p, q)

    @given(indexish)
    def test_negative_is_letter_mirror(self, pq):
        x = normalize(*pq)
        assume(x != ZERO)  # -0 is 0 again, whose word stays a, not a^-1
        mirrored = FreeWord.from_runs(
            (g, -e if g == "a" else e) for g, e in e_word(x).runs
        )
        assert e_word(-x) == mirrored


class TestClosedForms:
    def test_sign_rule(self):
        assert sign_rule(-3) == 1
        assert sign_rule(0) == -1
        assert sign_rule(2) == -1

    def test_integer_examples(self):
        assert e_word_integer(2) == W("b a b")
        assert e_word_integer(0) == W("a")
        assert e_word_integer(-1) == W("b a^-1")
        assert e_word_integer(5) == W("b^3 a b^2")

    def test_reciprocal_examples(self):
        assert e_word_reciprocal(2) == W("a b a")
        assert e_word_reciprocal(1) == W("b a")
        assert e_word_reciprocal(-2) == W("a^-1 b a^-1")

    def test_reciprocal_rejects_zero(self):
        with pytest.raises(ValueError):
            e_word_reciprocal(0)

    def test_agree_with_recursion(self):
        for n in range(-25, 26):
            assert e_word_integer(n) == e_word(ExtRational(n, 1)), n
            if n:
                assert e_word_reciprocal(n) == e_word(normalize(1, n)), n


class TestChildWord:
    def test_examples(self):
        a, b = e_word(ZERO), e_word(INFINITY)
        one = ExtRational(1, 1)
        assert child_word(ZERO, a, INFINITY, b) == (one, W("b a"))
        assert child_word(one, W("b a"), INFINITY, b) == (ExtRational(2, 1), W("b a b"))
        assert child_word(ZERO, a, one, W("b a")) == (ExtRational(1, 2), W("a b a"))

    def test_rejects_bad_inputs(self):
        a, b = e_word(ZERO), e_word(INFINITY)
        with pytest.raises(ValueError):
            child_word(INFINITY, b, ZERO, a)  # misordered
        with pytest.raises(ValueError):
            child_word(ExtRational(1, 3), a, ExtRational(2, 3), b)  # not neighbors
        with pytest.raises(ValueError):
            child_word(ExtRational(-1, 1), a, ZERO, b)  # negative index

    def test_consistent_with_e_word(self):
        for x, y in neighbor_pairs(16, include_negative=False):
            m, w = child_word(x, e_word(x), y, e_word(y))
            assert m == farey_sum(x, y)
            assert w == e_word(m)


class TestParityTable:
    def test_all_rows_realized(self):
        seen = {}
        for x, y in neighbor_pairs(12, include_negative=False):
            seen.setdefault(parity_pattern(x, y), (x, y))
        assert set(seen) == set(PARITY_ROWS)

    def test_rows_predict_child_parity(self):
        for x, y in neighbor_pairs(16):
            pattern = parity_pattern(x, y)
            assert not matches_excluded_row(pattern)
            m = farey_sum(x, y)
            want = "odd" if (m.p * m.q) % 2 else "even"
            assert PARITY_ROWS[pattern] == want, (x, y)

    def test_excluded_row_matching(self):
        assert matches_excluded_row(("e", "e", "o", "o"))
        assert matches_excluded_row(("o", "o", "o", "o"))
        assert matches_excluded_row(("e", "o", "e", "o"))
        assert not matches_excluded_row(("e", "o", "o", "e"))


class TestCallCounts:
    def test_orphans_are_single_calls(self):
        for mode in ("orphan", "shortcut"):
            assert recursion_call_count(ZERO, mode) == 1
            assert recursion_call_count(INFINITY, mode) == 1

    def test_integer_chain(self):
        # n/1 pulls in every smaller integer plus both orphans
        assert recursion_call_count(ExtRational(1, 1), "orphan") == 3
        assert recursion_call_count(ExtRational(5, 1), "orphan") == 7
        assert recursion_call_count(ExtRational(5, 1), "shortcut") == 1

    def test_shortcut_strictly_reduces(self):
        for x in rational_indices(18):
            if x.q < 2 or abs(x.p) < 2:
                continue
            assert recursion_call_count(x, "shortcut") < recursion_call_count(
                x, "orphan"
            ), x


class TestStreamingCount:
    def test_count_memory(self):
        # the descent holds one root-to-leaf path of words, not the whole shell
        tracemalloc.start()
        try:
            counts = count_ewords_of_length(120)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == (64, 64)
        assert peak < 2 * 2**20
