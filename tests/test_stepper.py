import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ewords import (
    INFINITY,
    ZERO,
    ESequence,
    ExtRational,
    FreeWord,
    GeneratorPair,
    ShapeMismatch,
    StepRecord,
    StepTrace,
    closed_form_stop,
    e_word,
    evaluate_entries,
    exponent_form_check,
    initial_pair,
    run_esequence,
    run_preserving,
    step,
)
from ewords.verify import canonical_sequences, table_sequences

from test_word import words

W = FreeWord.parse


def pair_of(left, right, li, ri):
    return GeneratorPair(W(left), W(right), ExtRational(*li), ExtRational(*ri))


# the three fully worked runs, frozen step by step:
# (left, right, left_index, right_index)
CHAIN_5_4_3 = [
    ("b a", "b", (1, 1), (1, 0)),
    ("b a b", "b", (2, 1), (1, 0)),
    ("b^2 a b", "b", (3, 1), (1, 0)),
    ("b^2 a b^2", "b", (4, 1), (1, 0)),
    ("b^3 a b^2", "b", (5, 1), (1, 0)),
    ("b^3 a b^2", "b^3 a b^3", (5, 1), (6, 1)),
    ("b^3 a b^2", "b^3 a b^5 a b^3", (5, 1), (11, 2)),
    ("b^3 a b^2", "b^3 a b^5 a b^5 a b^3", (5, 1), (16, 3)),
    ("b^3 a b^2", "b^3 a b^5 a b^5 a b^5 a b^3", (5, 1), (21, 4)),
    (
        "b^3 a b^5 a b^5 a b^5 a b^5 a b^3",
        "b^3 a b^5 a b^5 a b^5 a b^3",
        (26, 5),
        (21, 4),
    ),
    (
        "b^3 a b^5 a b^5 a b^5 a b^6 a b^5 a b^5 a b^5 a b^5 a b^3",
        "b^3 a b^5 a b^5 a b^5 a b^3",
        (47, 9),
        (21, 4),
    ),
    (
        "b^3 a b^5 a b^5 a b^5 a b^6 a b^5 a b^5 a b^5 a b^5 a b^6"
        " a b^5 a b^5 a b^5 a b^3",
        "b^3 a b^5 a b^5 a b^5 a b^3",
        (68, 13),
        (21, 4),
    ),
]

CHAIN_4_3_2 = [
    ("b a", "b", (1, 1), (1, 0)),
    ("b a b", "b", (2, 1), (1, 0)),
    ("b^2 a b", "b", (3, 1), (1, 0)),
    ("b^2 a b^2", "b", (4, 1), (1, 0)),
    ("b^2 a b^2", "b^3 a b^2", (4, 1), (5, 1)),
    ("b^2 a b^2", "b^2 a b^5 a b^2", (4, 1), (9, 2)),
    ("b^2 a b^2", "b^2 a b^5 a b^4 a b^2", (4, 1), (13, 3)),
    ("b^2 a b^4 a b^5 a b^4 a b^2", "b^2 a b^5 a b^4 a b^2", (17, 4), (13, 3)),
    (
        "b^2 a b^4 a b^5 a b^4 a b^4 a b^5 a b^4 a b^2",
        "b^2 a b^5 a b^4 a b^2",
        (30, 7),
        (13, 3),
    ),
]

CHAIN_0_3_4 = [
    ("a", "b a", (0, 1), (1, 1)),
    ("a", "a b a", (0, 1), (1, 2)),
    ("a", "a b a^2", (0, 1), (1, 3)),
    ("a^2 b a^2", "a b a^2", (1, 4), (1, 3)),
    ("a^2 b a^3 b a^2", "a b a^2", (2, 7), (1, 3)),
    ("a^2 b a^3 b a^3 b a^2", "a b a^2", (3, 10), (1, 3)),
    ("a^2 b a^3 b a^3 b a^3 b a^2", "a b a^2", (4, 13), (1, 3)),
]


class TestESequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            ESequence(())
        with pytest.raises(ValueError):
            ESequence((0,))  # drives no steps
        with pytest.raises(ValueError):
            ESequence((-1, 2))
        with pytest.raises(ValueError):
            ESequence((2, 0))
        assert ESequence((0, 1)).entries == (0, 1)

    def test_bool_entry_rejected(self):
        with pytest.raises(ValueError):
            ESequence((True, 2))

    def test_parse_keeps_trailing_one(self):
        # unlike continued fractions, [2;1] and [3;] are different runs
        seq = ESequence.parse("[2;1]")
        assert seq.entries == (2, 1)
        assert not seq.is_canonical
        assert ESequence.parse("[5;4,3]").is_canonical

    def test_value(self):
        assert ESequence((2, 1)).value() == ExtRational(3, 1)
        assert ESequence((5, 4, 3)).value() == ExtRational(68, 13)
        assert ESequence((0, 3, 4)).value() == ExtRational(4, 13)

    def test_str(self):
        assert str(ESequence((5, 4, 3))) == "[5;4,3]"
        assert str(ESequence((7,))) == "[7;]"


class TestGeneratorPair:
    def test_initial(self):
        start = initial_pair()
        assert (start.left, start.right) == (W("a"), W("b"))
        assert (start.left_index, start.right_index) == (ZERO, INFINITY)

    def test_validation(self):
        with pytest.raises(ValueError):
            pair_of("b", "a", (1, 0), (0, 1))  # misordered indices
        with pytest.raises(ValueError):
            pair_of("a", "b", (1, 3), (2, 3))  # not neighbors


class TestStep:
    def test_from_start(self):
        assert step(initial_pair(), "right") == pair_of("b a", "b", (1, 1), (1, 0))
        assert step(initial_pair(), "left") == pair_of("a", "b a", (0, 1), (1, 1))

    def test_non_palindrome_product_order(self):
        before = pair_of("b^3 a b^2", "b^3 a b^3", (5, 1), (6, 1))
        after = step(before, "left")
        assert after == pair_of("b^3 a b^2", "b^3 a b^5 a b^3", (5, 1), (11, 2))

    def test_bad_side(self):
        with pytest.raises(ValueError):
            step(initial_pair(), "up")


def iterate(state, side, n):
    for _ in range(n):
        state = step(state, side)
    return state


runs = st.tuples(st.sampled_from("ab"), st.integers(-4, 4))
short_words = st.lists(runs, max_size=12).map(FreeWord.from_runs)
# a palindromic run list reduces to a palindrome
palindromes = st.builds(
    lambda half, mid: FreeWord.from_runs([*half, mid, *half[::-1]]),
    st.lists(runs, max_size=4),
    runs,
)
palindrome_anchors = st.one_of(
    st.builds(FreeWord.letter, st.sampled_from("ab"), st.integers(-9, 9).filter(bool)),
    palindromes.filter(lambda w: len(w.runs) > 1),
)


class TestRunPreserving:
    def test_examples(self):
        assert run_preserving(initial_pair(), "right", 5) == pair_of(
            "b^3 a b^2", "b", (5, 1), (1, 0)
        )
        assert run_preserving(initial_pair(), "left", 3) == pair_of(
            "a", "a b a^2", (0, 1), (1, 3)
        )

    def test_single_step_agreement(self):
        for side in ("left", "right"):
            assert run_preserving(initial_pair(), side, 1) == step(initial_pair(), side)

    def test_matches_iteration_all_profiles(self):
        # both palindromes, left non-palindrome, right non-palindrome
        states = [initial_pair()]
        for side in ("left", "right"):
            one = step(initial_pair(), side)
            states.append(one)
            states.extend(step(one, other) for other in ("left", "right"))
        for state in states:
            for side in ("left", "right"):
                expected = state
                for n in range(1, 7):
                    expected = step(expected, side)
                    assert run_preserving(state, side, n) == expected

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            run_preserving(initial_pair(), "left", 0)

    @given(words, words, st.sampled_from(["left", "right"]), st.integers(1, 8))
    def test_matches_iteration_on_any_pair(self, left, right, side, n):
        state = GeneratorPair(left, right, ZERO, INFINITY)
        expected = state
        for _ in range(n):
            expected = step(expected, side)
        assert run_preserving(state, side, n) == expected

    def test_palindrome_anchor_with_non_palindrome_partner(self):
        # neither a b nor a^2 b is a palindrome, so both steps put a in front
        state = pair_of("a", "a b", (0, 1), (1, 0))
        assert run_preserving(state, "left", 2) == pair_of("a", "a^3 b", (0, 1), (1, 2))

    def test_long_block_on_palindrome_anchor(self):
        # b a^-1 and a^-1 b never become palindromes, so every step takes the anchor's side
        state = pair_of("a", "b a^-1", (0, 1), (1, 1))
        assert run_preserving(state, "left", 10**12) == pair_of(
            "a", "a^1000000000000 b a^-1", (0, 1), (1, 10**12 + 1)
        )
        state = pair_of("a^-1 b", "b", (0, 1), (1, 0))
        assert run_preserving(state, "right", 10**12) == pair_of(
            "a^-1 b^1000000000001", "b", (10**12, 1), (1, 0)
        )

    @pytest.mark.parametrize(
        "left, right, side, extra, want",
        [
            ("a", "a^-{N} b", "left", 5, "a^2 b a^3"),
            ("b a^-{N}", "a", "right", 4, "a^2 b a^2"),
        ],
    )
    def test_one_run_anchor_reaches_palindrome_late(self, left, right, side, extra, want):
        # A^t M (M A^t) is first a palindrome at t = N: N products on the
        # anchor's side, then the order alternates
        for N in (1000, 10**12):
            state = pair_of(left.format(N=N), right.format(N=N), (0, 1), (1, 1))
            got = run_preserving(state, side, N + extra)
            assert (got.right if side == "left" else got.left) == W(want)
            if N == 1000:
                assert got == iterate(state, side, N + extra)

    @settings(deadline=None)
    @given(st.data(), palindrome_anchors, st.sampled_from(["left", "right"]))
    def test_palindrome_anchor_matches_iteration(self, data, anchor, side):
        # M at random, or A^-s Q: for a palindrome Q, A^s M is one; for
        # Q = P X P, A^s M has matching end runs but need not be one
        framed = st.builds(lambda p, x: p * x * p, palindromes, short_words)
        moving = data.draw(
            st.one_of(
                short_words,
                st.builds(
                    lambda s, q: anchor**-s * q, st.integers(1, 6), st.one_of(palindromes, framed)
                ),
            )
        )
        if side == "right":  # M A^s is then the palindrome
            moving = moving.reverse()
        n = data.draw(st.integers(1, 3 * len(moving.runs) + 3))
        pair = (anchor, moving) if side == "left" else (moving, anchor)
        state = GeneratorPair(*pair, ZERO, INFINITY)
        assert run_preserving(state, side, n) == iterate(state, side, n)

    def test_long_block_on_non_palindromes(self):
        state = pair_of("a b a^-1", "b a", (0, 1), (1, 0))
        assert run_preserving(state, "left", 10**12) == pair_of(
            "a b a^-1", "a b^1000000000000 a^-1 b a", (0, 1), (1, 10**12)
        )


class TestRunESequence:
    @pytest.mark.parametrize(
        "entries,chain",
        [((5, 4, 3), CHAIN_5_4_3), ((4, 3, 2), CHAIN_4_3_2), ((0, 3, 4), CHAIN_0_3_4)],
    )
    def test_frozen_chains(self, entries, chain):
        trace = run_esequence(ESequence(entries))
        assert len(trace.steps) == len(chain)
        for rec, (left, right, li, ri) in zip(trace.steps, chain):
            assert rec.pair == pair_of(left, right, li, ri)

    def test_preserved_schedule(self):
        trace = run_esequence(ESequence((5, 4, 3)))
        sides = [rec.preserved for rec in trace.steps]
        assert sides == ["right"] * 5 + ["left"] * 4 + ["right"] * 3

    def test_last_changed(self):
        trace = run_esequence(ESequence((5, 4, 3)))
        assert trace.last_changed_side == "left"
        assert trace.last_changed_index == ExtRational(68, 13)
        assert trace.last_changed_word == trace.final.left

        trace = run_esequence(ESequence((5, 4)))
        assert trace.last_changed_side == "right"
        assert trace.last_changed_index == ExtRational(21, 4)

    def test_block_ends_are_convergents(self):
        entries = (5, 4, 3)
        blocks = run_esequence(ESequence(entries)).block_ends()
        assert blocks[0].left_index == evaluate_entries((5,))
        assert blocks[1].right_index == evaluate_entries((5, 4))
        assert blocks[2].left_index == evaluate_entries((5, 4, 3))

    def test_leading_zero_block(self):
        trace = run_esequence(ESequence((0, 3, 4)))
        assert trace.block_ends()[0] == trace.initial

    def test_trailing_one_still_lands_on_word(self):
        for entries in ((2, 1), (1, 1, 1), (2, 1, 1), (3, 2, 1)):
            trace = run_esequence(ESequence(entries))
            value = evaluate_entries(entries)
            assert trace.last_changed_index == value
            assert trace.last_changed_word == e_word(value)

    def test_matches_enumeration_family(self):
        for seq in canonical_sequences(3, 3):
            trace = run_esequence(seq)
            value = seq.value()
            assert trace.last_changed_index == value
            assert trace.last_changed_word == e_word(value)

    def test_format_lines(self):
        trace = run_esequence(ESequence((1,)))
        lines = trace.format_lines()
        assert lines[0] == "(a, b)"
        assert lines[1] == "→ (b a, b)  [preserved: R]  [indices: 1/1, 1/0]"

    @pytest.mark.parametrize("render", ["format_lines", "to_dict"])
    @pytest.mark.parametrize("entries", [(1,), (0, 3, 4), (5, 4, 3), (40, 1, 2, 30)])
    def test_renders_each_word_once(self, monkeypatch, render, entries):
        # n steps make n + 2 distinct words; each is spelled from its factors'
        # texts, so format sees only one-run words (start words, seam tokens)
        trace = run_esequence(ESequence(entries))
        calls = []
        original = FreeWord.format

        def counting(self, alphabet="ab"):
            calls.append((len(self.runs), alphabet))
            return original(self, alphabet)

        monkeypatch.setattr(FreeWord, "format", counting)
        getattr(trace, render)("AB")
        assert len(calls) <= len(trace.steps) + 2
        assert all(runs <= 1 and alphabet == "AB" for runs, alphabet in calls)

    @pytest.mark.parametrize(
        "start, words, fallback",
        [
            # seam merges in both orders, then a plain join
            (["a b", "b^2 a"], ["a b^3 a", "b^2 a^2 b^3 a", "a b^3 a b^2 a^2 b^3 a"], None),
            # the seam cancels: (a b a^2 b)(b^-1 a^-2 b a) = a b^2 a
            (
                ["a b a^2 b", "b^-1 a^-2 b a"],
                [
                    "a b^2 a",
                    "a b^2 a b^-1 a^-2 b a",
                    "a b^2 a b^-1 a^-2 b a^2 b^2 a",
                ],
                "a b^2 a",
            ),
            # not a product of the pair
            (["a", "b"], ["b a^3 b", "b a^3 b^2", "b a^3 b^2 a^3 b^2"], "b a^3 b"),
            # the identity: a factor, then a step's word
            (["1", "b"], ["b", "b^2", "1"], "1"),
        ],
    )
    @pytest.mark.parametrize("alphabet", ["ab", "AB"])
    def test_hand_built_traces_render_like_format(self, start, words, fallback, alphabet):
        # [1;2] changes the left word once, then the right word twice
        real = run_esequence(ESequence((1, 2)))
        li, ri = real.initial.left_index, real.initial.right_index
        pairs = [GeneratorPair(W(start[0]), W(start[1]), li, ri)]
        for rec, word in zip(real.steps, words):
            side = "left" if rec.preserved == "right" else "right"
            kept = getattr(pairs[-1], rec.preserved)
            indices = dict(left_index=rec.pair.left_index, right_index=rec.pair.right_index)
            pairs.append(GeneratorPair(**{side: W(word), rec.preserved: kept}, **indices))
        records = tuple(StepRecord(r.preserved, p) for r, p in zip(real.steps, pairs[1:]))
        trace = StepTrace(real.sequence, pairs[0], records)
        want = [(p.left.format(alphabet), p.right.format(alphabet)) for p in pairs]
        d = trace.to_dict(alphabet)
        lines = trace.format_lines(alphabet)
        assert [(s["left"], s["right"]) for s in (d["initial"], *d["steps"])] == want
        assert lines == [f"({want[0][0]}, {want[0][1]})"] + [
            f"→ ({left}, {right})  [preserved: {r.preserved[0].upper()}]  "
            f"[indices: {r.pair.left_index}, {r.pair.right_index}]"
            for r, (left, right) in zip(records, want[1:])
        ]

    def test_to_dict(self):
        d = run_esequence(ESequence((0, 3, 4))).to_dict()
        assert d["esequence"] == [0, 3, 4]
        assert d["value"] == "4/13"
        assert len(d["steps"]) == 7
        assert d["last_changed"]["side"] == "left"
        assert d["last_changed"]["word"] == "a^2 b a^3 b a^3 b a^3 b a^2"
        assert d["last_changed"]["exponent_sums"] == {"a": 13, "b": 4}
        assert [b["position"] for b in d["blocks"]] == [0, 1, 2]


class TestClosedFormStop:
    def test_examples(self):
        assert closed_form_stop(ESequence((5, 3))) == pair_of(
            "b^3 a b^2", "b^3 a b^5 a b^5 a b^3", (5, 1), (16, 3)
        )
        assert closed_form_stop(ESequence((0, 3, 2))) == pair_of(
            "a^2 b a^3 b a^2", "a b a^2", (2, 7), (1, 3)
        )
        assert closed_form_stop(ESequence((4, 1, 2))) == pair_of(
            "b^2 a b^5 a b^5 a b^2", "b^3 a b^2", (14, 3), (5, 1)
        )

    def test_agrees_with_stepping(self):
        for seq in table_sequences(5):
            assert closed_form_stop(seq) == run_esequence(seq).final, seq

    def test_shape_mismatch(self):
        for entries in ((1, 2, 3), (2, 2, 2), (0, 2, 2, 2), (3, 1, 2, 2), (0, 1, 2, 3, 4), (4,)):
            with pytest.raises(ShapeMismatch):
                closed_form_stop(ESequence(entries))


class TestExponentFormCheck:
    def test_weak_shape(self):
        seq = ESequence((5, 4, 3))
        assert exponent_form_check(e_word(ExtRational(68, 13)), seq)
        assert not exponent_form_check(W("b^3 a b^7 a b^3"), seq)
        assert not exponent_form_check(W("b^4 a b^5 a b^4"), seq)
        assert not exponent_form_check(W("b^3 a^2 b^5 a b^3"), seq)
        assert not exponent_form_check(W("b^3"), seq)

    def test_strict_shape_requires_both_interior_values(self):
        seq = ESequence((5, 4, 3, 2))
        assert exponent_form_check(e_word(seq.value()), seq)
        only_fives = W("b^3 a b^5 a b^5 a b^5 a b^3")
        assert not exponent_form_check(only_fives, seq)

    def test_reciprocal_side_swaps_roles(self):
        seq = ESequence((0, 3, 4))
        assert exponent_form_check(e_word(ExtRational(4, 13)), seq)
        assert not exponent_form_check(e_word(ExtRational(13, 4)), seq)
        deep = ESequence((0, 3, 4, 2, 2))
        assert exponent_form_check(e_word(deep.value()), deep)

    def test_trailing_one_rejected(self):
        with pytest.raises(ValueError):
            exponent_form_check(W("b a b"), ESequence((2, 1)))

    def test_whole_family(self):
        for seq in canonical_sequences(3, 3):
            assert exponent_form_check(e_word(seq.value()), seq), seq


def iterated_steps(seq):
    """(side, pair) after every step, each taken by the public step()."""
    pair, out = initial_pair(), []
    for i, n in enumerate(seq.entries):
        side = "right" if i % 2 == 0 else "left"
        for _ in range(n):
            pair = step(pair, side)
            out.append((side, pair))
    return out


class TestMachineTrust:
    # run_esequence skips index validation, takes each product order from
    # the indices' parity and spells its trace from the previous pair's texts

    def test_matches_iterated_step_family(self):
        for seq in canonical_sequences(4, 4):
            got = [(rec.preserved, rec.pair) for rec in run_esequence(seq).steps]
            assert got == iterated_steps(seq), seq

    @settings(deadline=None)  # [9;9,9,9,9,9] builds words of 10^5 runs
    @given(st.integers(0, 9), st.lists(st.integers(1, 9), max_size=5))
    def test_matches_iterated_step(self, n0, rest):
        assume((n0, *rest) != (0,))
        seq = ESequence((n0, *rest))
        got = [(rec.preserved, rec.pair) for rec in run_esequence(seq).steps]
        assert got == iterated_steps(seq)

    def test_pairs_pass_validation(self):
        for seq in canonical_sequences(4, 4):
            for rec in run_esequence(seq).steps:
                p = rec.pair
                indices = [ExtRational(x.p, x.q) for x in (p.left_index, p.right_index)]
                assert GeneratorPair(p.left, p.right, *indices) == p, seq

    @pytest.mark.parametrize("alphabet", ["ab", "AB"])
    def test_provenance_is_invisible(self, monkeypatch, alphabet):
        # a machine trace formats only its start words and one-run seam
        # tokens, and its copies, which format every word, print the same
        formatted = []
        original = FreeWord.format

        def recording(self, alphabet="ab"):
            formatted.append(self)
            return original(self, alphabet)

        seqs = [*canonical_sequences(3, 3), ESequence((40, 1, 2, 30)), ESequence((0, 9, 1, 7, 2))]
        for seq in seqs:
            t = run_esequence(seq)
            copy = StepTrace(t.sequence, t.initial, t.steps)
            assert t == copy and repr(t) == repr(copy) and hash(t) == hash(copy)
            with monkeypatch.context() as m:
                m.setattr(FreeWord, "format", recording)
                d = t.to_dict(alphabet)
                lines = t.format_lines(alphabet)
            start = {id(t.initial.left), id(t.initial.right)}
            tokens = [w for w in formatted if id(w) not in start]
            assert all(len(w.runs) == 1 for w in tokens), seq
            assert len(formatted) - len(tokens) == 4, seq  # both start words, twice
            formatted.clear()
            pairs = (t.initial, *(rec.pair for rec in t.steps))
            texts = [(s["left"], s["right"]) for s in (d["initial"], *d["steps"])]
            assert texts == [(p.left.format(alphabet), p.right.format(alphabet)) for p in pairs]
            for other in (copy, StepTrace(t.sequence, t.initial, t.steps)):
                assert json.dumps(other.to_dict(alphabet)) == json.dumps(d)
                assert other.format_lines(alphabet) == lines

    def test_exponent_sums_from_index(self, monkeypatch):
        # a machine trace reads last_changed's sums off its index, a copy off its word
        traces = [run_esequence(seq) for seq in canonical_sequences(4, 4)]
        with monkeypatch.context() as m:
            m.setattr(FreeWord, "exponent_sum", None)
            dicts = [t.to_dict() for t in traces]
        for t, d in zip(traces, dicts):
            assert d == StepTrace(t.sequence, t.initial, t.steps).to_dict(), t.sequence
