import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ewords import FreeWord

from oracles import letters, reduce_letters

W = FreeWord.parse

run_lists = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(min_value=-9, max_value=9)),
    max_size=200,
)
words = run_lists.map(FreeWord.from_runs)
# c u c^-1 cancels at the seams of its own powers
conjugates = st.builds(lambda c, u: c * u * ~c, words, words)


class TestConstruction:
    def test_runs_must_alternate(self):
        with pytest.raises(ValueError):
            FreeWord((("a", 1), ("a", 2)))

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            FreeWord((("a", 0),))

    def test_bad_generator_rejected(self):
        with pytest.raises(ValueError):
            FreeWord((("c", 1),))

    def test_bool_exponent_rejected(self):
        with pytest.raises(ValueError):
            FreeWord((("a", True),))

    def test_from_runs_merges_and_cancels(self):
        assert FreeWord.from_runs([("b", 3), ("a", 1), ("b", 2)]) == W("b^3 a b^2")
        assert FreeWord.from_runs([("a", 1), ("a", -1)]) == FreeWord.identity()
        assert FreeWord.from_runs([("a", 2), ("a", 3)]) == W("a^5")
        # cancellation cascades through the seam
        assert FreeWord.from_runs(
            [("a", 1), ("b", 2), ("b", -2), ("a", -1), ("b", 4)]
        ) == W("b^4")

    @given(run_lists)
    def test_from_runs_invariants(self, pairs):
        w = FreeWord.from_runs(pairs)
        assert all(e != 0 for _, e in w.runs)
        assert all(g1 != g2 for (g1, _), (g2, _) in zip(w.runs, w.runs[1:]))

    def test_letter(self):
        assert FreeWord.letter("b", 3) == W("b^3")
        assert FreeWord.letter("a", -1) == W("a^-1")


class TestAlgebra:
    def test_concat_examples(self):
        assert W("b^3 a b^2") * W("b") == W("b^3 a b^3")
        assert W("a b") * FreeWord.identity() == W("a b")
        assert W("a") * W("a^-1") == FreeWord.identity()
        assert W("a b") * W("b^-1 a^-1") == FreeWord.identity()

    def test_inverse_examples(self):
        assert ~W("a b^2") == W("b^-2 a^-1")
        assert ~FreeWord.identity() == FreeWord.identity()
        assert ~W("b^3 a b^2") == W("b^-2 a^-1 b^-3")

    def test_reverse_examples(self):
        assert W("b^3 a b^2").reverse() == W("b^2 a b^3")
        assert W("a b a").reverse() == W("a b a")
        assert FreeWord.identity().reverse() == FreeWord.identity()

    def test_pow(self):
        w = W("a b")
        assert w**0 == FreeWord.identity()
        assert w**3 == W("a b a b a b")
        assert w**-2 == ~w * ~w
        assert W("b")**4 == W("b^4")

    @given(words, words)
    def test_concat_matches_letter_model(self, u, v):
        assert letters(u * v) == reduce_letters(letters(u) + letters(v))

    @given(words, words, words)
    def test_concat_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)

    @given(words)
    def test_identity_neutral(self, w):
        e = FreeWord.identity()
        assert w * e == w and e * w == w

    @given(words)
    def test_inverse_cancels(self, w):
        assert w * ~w == FreeWord.identity()
        assert ~w * w == FreeWord.identity()
        assert ~~w == w

    @given(words)
    def test_reverse_involution(self, w):
        assert w.reverse().reverse() == w
        assert w.is_palindrome() == w.reverse().is_palindrome()


def assert_canonical(w):
    # a word built by the kernel is indistinguishable from a validated one
    assert type(w.runs) is tuple
    assert all(type(r) is tuple and len(r) == 2 for r in w.runs)
    assert w == FreeWord(w.runs) and hash(w) == hash(FreeWord(w.runs))


class TestKernel:
    """Products and powers against the merging constructor, run for run."""

    @given(words, words)
    def test_product_matches_from_runs(self, u, v):
        w = u * v
        assert w == FreeWord.from_runs(u.runs + v.runs)
        assert_canonical(w)

    @given(st.one_of(words, conjugates), st.integers(min_value=-6, max_value=6))
    def test_power_matches_from_runs(self, u, n):
        w = u**n
        assert w == FreeWord.from_runs((u if n >= 0 else u.inverse()).runs * abs(n))
        assert_canonical(w)

    def test_power_cancels_at_the_seam(self):
        assert W("a b a^-1") ** 2 == W("a b^2 a^-1")
        assert W("a b a^-1") ** -3 == W("a b^-3 a^-1")
        assert W("b a b") ** 3 == W("b a b^2 a b^2 a b")
        assert W("a b") ** 0 == FreeWord.identity()

    @given(words)
    def test_inverse_and_reverse_unchanged(self, w):
        assert ~w == FreeWord(tuple((g, -e) for g, e in reversed(w.runs)))
        assert w.reverse() == FreeWord(tuple(reversed(w.runs)))
        assert_canonical(~w)
        assert_canonical(w.reverse())

    def test_huge_exponent_is_one_run(self):
        n = 10**20
        assert W("b") ** n == FreeWord.letter("b", n)
        assert W("a b a^-1") ** -n == FreeWord.from_runs([("a", 1), ("b", -n), ("a", -1)])
        assert len((W("b a b") ** 1000).runs) == 2001

    @pytest.mark.parametrize("runs", [(("c", 1),), (("a", True),), (("b", 2), ("a", 1.0))])
    def test_from_runs_still_validates(self, runs):
        with pytest.raises(ValueError):
            FreeWord.from_runs(runs)


class TestStatistics:
    def test_palindrome_examples(self):
        assert W("b^2 a b^2").is_palindrome()
        assert not W("b a").is_palindrome()
        assert not W("b^3 a b^2").is_palindrome()
        assert FreeWord.identity().is_palindrome()

    def test_exponent_sum(self):
        w = W("b^3 a b^-1 a^-2")
        assert w.exponent_sum("b") == 2
        assert w.exponent_sum("a") == -1
        assert FreeWord.identity().exponent_sum("a") == 0

    @given(words)
    @example(FreeWord.identity())
    @example(W("a^2 b^-1 a"))
    @example(W("b^-3 a b"))
    def test_exponent_sum_matches_letters(self, w):
        for g in "abc":
            assert w.exponent_sum(g) == sum(s for gg, s in letters(w) if gg == g)

    def test_factor_count_and_length(self):
        w = W("a^2 b a^3 b a^3 b a^3 b a^2")
        assert w.factor_count("b") == 4
        assert w.factor_count("a") == 13
        assert w.length == 17
        assert W("b a").factor_count("b") == 1

    @given(words)
    def test_length_is_letter_count(self, w):
        assert w.length == len(letters(w))

    @given(words)
    def test_palindrome_is_letterwise(self, w):
        assert w.is_palindrome() == (letters(w) == letters(w)[::-1])


class TestParseFormat:
    def test_parse_examples(self):
        assert W("b^3 a b^2").runs == (("b", 3), ("a", 1), ("b", 2))
        assert W("b^3ab^2") == W("b^3 a b^2")
        assert W("a a^-1") == FreeWord.identity()
        assert W("1") == FreeWord.identity()

    def test_parse_ab_alphabet(self):
        # A^-1 is the letter a; B is b
        assert FreeWord.parse("A^-1", alphabet="AB") == W("a")
        assert FreeWord.parse("B A^-1 B", alphabet="AB") == W("b a b")
        assert FreeWord.parse("A", alphabet="AB") == W("a^-1")

    def test_parse_errors_carry_position(self):
        with pytest.raises(ValueError, match="position 2"):
            W("a c")
        with pytest.raises(ValueError, match="position"):
            W("a^")
        with pytest.raises(ValueError, match="position"):
            W("a^0")

    def test_format_examples(self):
        assert str(W("b^3 a b^2")) == "b^3 a b^2"
        assert FreeWord.identity().format() == "1"
        assert FreeWord.identity().format("AB") == "1"
        assert W("a").format("AB") == "A^-1"
        assert W("a^-1 b").format("AB") == "A B"

    @given(words, st.sampled_from(["ab", "AB"]))
    def test_format_matches_letter_reference(self, w, alphabet):
        # merge the flat letters into tokens of the rendered alphabet (A = a^-1)
        tokens = []
        for g, s in letters(w):
            name = alphabet["ab".index(g)]
            if name == "A":
                s = -s
            if tokens and tokens[-1][0] == name:
                tokens[-1][1] += s
            else:
                tokens.append([name, s])
        want = " ".join(n if e == 1 else f"{n}^{e}" for n, e in tokens) or "1"
        assert w.format(alphabet) == want

    def test_alphabet_validated(self):
        with pytest.raises(ValueError):
            W("a").format("xy")

    @given(words, st.sampled_from(["ab", "AB"]))
    def test_format_parse_round_trip(self, w, alphabet):
        assert FreeWord.parse(w.format(alphabet), alphabet) == w

    @given(words)
    def test_to_pairs_round_trip(self, w):
        assert FreeWord.from_runs(tuple((g, e) for g, e in w.to_pairs("ab"))) == w
        flipped = [(l, e) for l, e in w.to_pairs("AB")]
        back = FreeWord.from_runs(
            ("a" if l == "A" else "b", -e if l == "A" else e) for l, e in flipped
        )
        assert back == w
