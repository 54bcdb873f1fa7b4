import fractions

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ewords import (
    INFINITY,
    ZERO,
    ContinuedFraction,
    ExtRational,
    evaluate_entries,
    farey_level,
    farey_sum,
    from_continued_fraction,
    is_farey_neighbor,
    normalize,
    parents,
    parse_continued_fraction,
    parse_rational,
    to_continued_fraction,
)
from ewords.verify import neighbor_pairs, rational_indices

from oracles import bfs_levels

rationals = st.tuples(
    st.integers(min_value=-400, max_value=400),
    st.integers(min_value=-400, max_value=400),
).filter(lambda pq: pq != (0, 0))


class TestExtRational:
    def test_lowest_terms_required(self):
        with pytest.raises(ValueError):
            ExtRational(2, 4)

    def test_negative_denominator_rejected(self):
        with pytest.raises(ValueError):
            ExtRational(1, -2)

    def test_unique_infinity(self):
        assert ExtRational(1, 0) == INFINITY
        with pytest.raises(ValueError):
            ExtRational(2, 0)
        with pytest.raises(ValueError):
            ExtRational(-1, 0)

    def test_zero_over_zero_rejected(self):
        with pytest.raises(ValueError):
            ExtRational(0, 0)

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            ExtRational(True)
        with pytest.raises(ValueError):
            ExtRational(1, True)

    def test_orphans(self):
        assert ZERO.is_orphan and INFINITY.is_orphan
        assert not ExtRational(1, 1).is_orphan

    def test_negation(self):
        assert -ExtRational(3, 5) == ExtRational(-3, 5)
        assert -INFINITY == INFINITY
        assert -ZERO == ZERO

    def test_order_examples(self):
        xs = [INFINITY, ExtRational(1, 2), ExtRational(-2, 1), ZERO, ExtRational(3, 1)]
        assert sorted(xs) == [
            ExtRational(-2, 1),
            ZERO,
            ExtRational(1, 2),
            ExtRational(3, 1),
            INFINITY,
        ]

    @given(rationals, rationals)
    def test_order_matches_fractions(self, pq, rs):
        x, y = normalize(*pq), normalize(*rs)
        if x.is_infinite or y.is_infinite:
            return
        fx = fractions.Fraction(x.p, x.q)
        fy = fractions.Fraction(y.p, y.q)
        assert (x < y) == (fx < fy)
        assert (x == y) == (fx == fy)

    @given(rationals)
    def test_infinity_is_greatest(self, pq):
        x = normalize(*pq)
        assert x <= INFINITY

    def test_str(self):
        assert str(ExtRational(-3, 5)) == "-3/5"
        assert str(INFINITY) == "1/0"


class TestNormalizeParse:
    def test_normalize_examples(self):
        assert normalize(2, 4) == ExtRational(1, 2)
        assert normalize(3, -6) == ExtRational(-1, 2)
        assert normalize(5, 0) == INFINITY
        assert normalize(-7, 0) == INFINITY

    def test_normalize_rejects_zero_zero(self):
        with pytest.raises(ValueError):
            normalize(0, 0)

    @given(rationals)
    def test_normalize_is_canonical(self, pq):
        x = normalize(*pq)
        # re-normalizing the canonical fields is the identity
        assert normalize(x.p, x.q) == x

    def test_parse(self):
        assert parse_rational("68/13") == ExtRational(68, 13)
        assert parse_rational("-2") == ExtRational(-2, 1)
        assert parse_rational("inf") == INFINITY
        assert parse_rational(" 3 / -6 ") == ExtRational(-1, 2)

    def test_parse_errors(self):
        for bad in ("", "a/b", "1/2/3", "0/0"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    @given(rationals)
    def test_parse_round_trip(self, pq):
        x = normalize(*pq)
        assert parse_rational(str(x)) == x


class TestNeighborsAndMediant:
    def test_neighbor_examples(self):
        assert is_farey_neighbor(ExtRational(1, 2), ExtRational(2, 3))
        assert not is_farey_neighbor(ExtRational(1, 3), ExtRational(2, 3))
        assert is_farey_neighbor(ZERO, INFINITY)

    @given(rationals, rationals)
    def test_neighbor_symmetric(self, pq, rs):
        x, y = normalize(*pq), normalize(*rs)
        assert is_farey_neighbor(x, y) == is_farey_neighbor(y, x)

    def test_mediant_examples(self):
        assert farey_sum(ExtRational(1, 2), ExtRational(2, 3)) == ExtRational(3, 5)
        assert farey_sum(ZERO, INFINITY) == ExtRational(1, 1)
        assert farey_sum(ExtRational(1, 2), ExtRational(1, 3)) == ExtRational(2, 5)

    def test_mediant_rejects_non_neighbors(self):
        with pytest.raises(ValueError):
            farey_sum(ExtRational(1, 3), ExtRational(2, 3))

    def test_mediant_between_and_closure(self):
        # splitting an interval yields two new neighbor intervals
        for x, y in neighbor_pairs(14):
            m = farey_sum(x, y)
            assert x < m < y
            assert is_farey_neighbor(x, m) and is_farey_neighbor(m, y)


class TestParents:
    def test_examples(self):
        assert parents(ExtRational(5, 1)) == (ExtRational(4, 1), INFINITY)
        assert parents(ExtRational(1, 4)) == (ZERO, ExtRational(1, 3))
        assert parents(ExtRational(3, 5)) == (ExtRational(1, 2), ExtRational(2, 3))
        assert parents(ExtRational(68, 13)) == (ExtRational(47, 9), ExtRational(21, 4))

    def test_negative_examples(self):
        # mirrored pairs put the canonical ∞ in the first slot
        assert parents(ExtRational(-3, 1)) == (INFINITY, ExtRational(-2, 1))
        assert parents(ExtRational(-1, 4)) == (ExtRational(-1, 3), ZERO)
        assert parents(ExtRational(-3, 5)) == (ExtRational(-2, 3), ExtRational(-1, 2))

    def test_orphans_rejected(self):
        for orphan in (ZERO, INFINITY):
            with pytest.raises(ValueError, match="orphan"):
                parents(orphan)

    def test_rebuild_exhaustive(self):
        # positive shell of radius 60: parents bracket, neighbor, and rebuild
        for x in rational_indices(60):
            if x.is_orphan or x.is_negative:
                continue
            lo, up = parents(x)
            assert lo < x < up
            assert is_farey_neighbor(lo, up)
            assert farey_sum(lo, up) == x

    def test_negative_mirror_exhaustive(self):
        for x in rational_indices(24):
            if x.is_orphan or not x.is_negative:
                continue
            lo, up = parents(-x)
            assert parents(x) == (-up, -lo)


class TestContinuedFractions:
    def test_examples(self):
        assert to_continued_fraction(ExtRational(68, 13)).entries == (5, 4, 3)
        assert to_continued_fraction(ExtRational(30, 7)).entries == (4, 3, 2)
        assert to_continued_fraction(ExtRational(4, 13)).entries == (0, 3, 4)
        assert to_continued_fraction(ExtRational(5, 1)).entries == (5,)
        assert to_continued_fraction(ZERO).entries == (0,)

    def test_domain(self):
        with pytest.raises(ValueError):
            to_continued_fraction(INFINITY)
        with pytest.raises(ValueError):
            to_continued_fraction(ExtRational(-1, 2))

    def test_canonical_validation(self):
        with pytest.raises(ValueError):
            ContinuedFraction(())
        with pytest.raises(ValueError):
            ContinuedFraction((-1,))
        with pytest.raises(ValueError):
            ContinuedFraction((2, 0, 3))
        with pytest.raises(ValueError):
            ContinuedFraction((2, 1))  # canonical form forbids trailing 1

    def test_evaluate_examples(self):
        assert from_continued_fraction(ContinuedFraction((5, 4, 3))) == ExtRational(68, 13)
        assert from_continued_fraction(ContinuedFraction((7,))) == ExtRational(7, 1)
        assert from_continued_fraction(ContinuedFraction((0, 2))) == ExtRational(1, 2)

    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8))
    def test_evaluate_matches_fraction_fold(self, entries):
        # right fold with exact fractions is the independent model
        acc = fractions.Fraction(entries[-1])
        for a in reversed(entries[:-1]):
            acc = a + 1 / acc
        assert evaluate_entries(entries) == ExtRational(acc.numerator, acc.denominator)

    @pytest.mark.parametrize(
        "entries,value",
        [([0, 0], INFINITY), ([3, 0, 2], ExtRational(5, 1)), ([-1, 2], ExtRational(-1, 2))],
    )
    def test_evaluate_any_integers(self, entries, value):
        assert evaluate_entries(entries) == value

    @pytest.mark.parametrize(
        "entries,message",
        [([], "empty entry list has no value"), ([2, -3], "denominator must be nonnegative: -5/-3")],
    )
    def test_evaluate_errors(self, entries, message):
        with pytest.raises(ValueError, match=message):
            evaluate_entries(entries)

    def test_round_trip_exhaustive(self):
        for x in rational_indices(30):
            if x.is_negative or x.is_infinite:
                continue
            assert from_continued_fraction(to_continued_fraction(x)) == x

    def test_parse_folds_trailing_one(self):
        assert parse_continued_fraction("[5;4,2,1]").entries == (5, 4, 3)
        assert parse_continued_fraction("[0;1]").entries == (1,)

    def test_parse_format_round_trip(self):
        for text in ("[5;4,3]", "[0;3,4]", "[7;]"):
            cf = parse_continued_fraction(text)
            assert parse_continued_fraction(str(cf)) == cf

    def test_parse_errors(self):
        for bad in ("5;4,3", "[5:4]", "[]", "[a;b]"):
            with pytest.raises(ValueError):
                parse_continued_fraction(bad)


class TestFareyLevel:
    def test_examples(self):
        assert farey_level(ExtRational(1, 1)) == 1
        assert farey_level(ExtRational(3, 5)) == 4
        assert farey_level(ZERO) == 0
        assert farey_level(INFINITY) == 0

    def test_matches_mediant_tree_oracle(self):
        levels = bfs_levels(12)
        assert len(levels) > 500
        for x, depth in levels.items():
            assert farey_level(x) == depth

    def test_negative_mirror(self):
        for x in rational_indices(16):
            assert farey_level(x) == farey_level(-x)
