"""End-to-end checks for the package's headline guarantees.

Each test covers one numbered criterion and prints a single PASS or FAIL
line (visible with ``pytest -s`` or in the captured output of a failing
run).  Timed criteria use wall-clock budgets generous enough for CI but
tight enough to catch an accidental complexity regression.
"""

import time
from contextlib import contextmanager
from math import gcd

from ewords import (
    ESequence,
    ExtRational,
    FreeWord,
    PARITY_ROWS,
    canonical_sequences,
    closed_form_stop,
    child_word,
    count_ewords_of_length,
    e_word,
    evaluate_entries,
    farey_sum,
    neighbor_pairs,
    parity_pattern,
    rational_indices,
    run_esequence,
    table_sequences,
)

from test_stepper import CHAIN_0_3_4, CHAIN_4_3_2, CHAIN_5_4_3

W = FreeWord.parse


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def traced(text: str):
    """Run a parsed sequence and return (trace, elapsed seconds)."""
    seq = ESequence.parse(text)
    run_esequence(seq)  # warm-up so the budget measures steady state
    start = time.perf_counter()
    trace = run_esequence(seq)
    return trace, time.perf_counter() - start


def chain_of(trace) -> list[tuple]:
    return [
        (
            rec.pair.left.format("ab"),
            rec.pair.right.format("ab"),
            (rec.pair.left_index.p, rec.pair.left_index.q),
            (rec.pair.right_index.p, rec.pair.right_index.q),
        )
        for rec in trace.steps
    ]


def test_criterion_1_trace_5_4_3():
    with criterion(1, "trace [5;4,3] reproduces the worked chain, sums 13/68, < 10 ms"):
        trace, elapsed = traced("[5;4,3]")
        assert chain_of(trace) == CHAIN_5_4_3
        final = trace.final
        assert final.left == W(
            "b^3 a b^5 a b^5 a b^5 a b^6 a b^5 a b^5 a b^5 a b^5 a b^6"
            " a b^5 a b^5 a b^5 a b^3"
        )
        assert final.right == W("b^3 a b^5 a b^5 a b^5 a b^3")
        assert final.left.exponent_sum("a") == 13
        assert final.left.exponent_sum("b") == 68
        assert elapsed < 0.010


def test_criterion_2_trace_4_3_2():
    with criterion(2, "trace [4;3,2] reaches the listed stopping pair, sums 7/30, < 10 ms"):
        trace, elapsed = traced("[4;3,2]")
        assert chain_of(trace) == CHAIN_4_3_2
        final = trace.final
        assert final.left == W("b^2 a b^4 a b^5 a b^4 a b^4 a b^5 a b^4 a b^2")
        assert final.right == W("b^2 a b^5 a b^4 a b^2")
        assert final.left.exponent_sum("a") == 7
        assert final.left.exponent_sum("b") == 30
        assert elapsed < 0.010


def test_criterion_3_trace_0_3_4():
    with criterion(3, "trace [0;3,4] reaches the listed stopping pair at index 4/13, < 10 ms"):
        trace, elapsed = traced("[0;3,4]")
        assert chain_of(trace) == CHAIN_0_3_4
        final = trace.final
        assert final.left == W("a^2 b a^3 b a^3 b a^3 b a^2")
        assert final.right == W("a b a^2")
        assert trace.last_changed_index == ExtRational(4, 13)
        assert elapsed < 0.010


def test_criterion_4_mode_equivalence():
    with criterion(4, "orphan and shortcut modes agree through |p| + q <= 50, < 5 s"):
        start = time.perf_counter()
        mismatches = [
            x
            for x in rational_indices(50)
            if e_word(x, mode="orphan") != e_word(x, mode="shortcut")
        ]
        elapsed = time.perf_counter() - start
        assert mismatches == []
        assert elapsed < 5.0


def test_criterion_5_palindrome_parity():
    with criterion(5, "word is a palindrome iff p*q is even, through |p| + q <= 50"):
        bad = [
            x
            for x in rational_indices(50)
            if e_word(x).is_palindrome() != (x.p * x.q % 2 == 0)
        ]
        assert bad == []


def test_criterion_6_length_law():
    with criterion(6, "factor counts are (|p| of b, q of a), through |p| + q <= 50"):
        for x in rational_indices(50):
            w = e_word(x)
            assert w.factor_count("b") == abs(x.p), x
            assert w.factor_count("a") == x.q, x
            assert w.length == abs(x.p) + x.q, x


def test_criterion_7_counting():
    with criterion(7, "count of length-n words matches the coprime count, 2 <= n <= 60, < 60 s"):
        start = time.perf_counter()
        for n in range(2, 61):
            arithmetic, measured = count_ewords_of_length(n)
            assert arithmetic == measured, n
            assert arithmetic == 2 * sum(1 for p in range(1, n) if gcd(p, n) == 1), n
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0


def test_criterion_8_stepper_vs_enumeration():
    with criterion(8, "stepper's last change equals the enumerated word, entries <= 4, up to 5 entries"):
        for seq in canonical_sequences(4, 4):
            trace = run_esequence(seq)
            assert trace.last_changed_word == e_word(seq.value()), seq
            assert trace.last_changed_index == seq.value(), seq
            for i, pair in enumerate(trace.block_ends()):
                changed = pair.left_index if i % 2 == 0 else pair.right_index
                assert changed == evaluate_entries(seq.entries[: i + 1]), (seq, i)


def test_criterion_9_closed_form_tables():
    with criterion(9, "table stopping pairs match the stepped pairs, entries <= 5"):
        for seq in table_sequences(5):
            assert closed_form_stop(seq) == run_esequence(seq).final, seq


def test_criterion_10_parity_tables():
    with criterion(10, "exactly one parity row fits each neighbor pair, product rule exact, shell 40"):
        rows = list(PARITY_ROWS)
        for x, y in neighbor_pairs(40):
            matching = [row for row in rows if parity_pattern(x, y) == row]
            assert len(matching) == 1, (x, y)
        for x, y in neighbor_pairs(40, include_negative=False):
            child, word = child_word(x, e_word(x), y, e_word(y))
            assert child == farey_sum(x, y)
            assert word == e_word(child), (x, y)
