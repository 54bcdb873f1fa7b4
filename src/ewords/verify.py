"""Independent oracles and exhaustive small-range property sweeps.

Everything here recomputes results the long way round: parents by
brute-force splitting search, words by the literal parent recursion,
integer and reciprocal indices by closed forms, stopping pairs by
tables.  Each oracle writes out its own product order, so production
code is checked against these paths, never against itself.  No
production module imports this one.  sweep() bundles every cross-module
property into one report over a bounded index range; a shell of radius n
means all indices p/q with |p| + q <= n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

from .enumeration import MODES, count_ewords_of_length, e_word, neighbor_pairs
from .enumeration import enumerate_ewords, rational_indices
from .farey import INFINITY, ZERO, ExtRational, _bracket, evaluate_entries, farey_level
from .farey import farey_sum, from_continued_fraction, is_farey_neighbor, normalize, parents
from .farey import parse_continued_fraction, to_continued_fraction
from .stepper import SIDES, ESequence, GeneratorPair, StepTrace, initial_pair, run_esequence
from .stepper import run_preserving, step
from .word import FreeWord


def sign_rule(x: int) -> int:
    """Exponent-sign chooser for the closed forms: 1 on negatives, -1 otherwise."""
    return 1 if x < 0 else -1


def e_word_integer(n: int) -> FreeWord:
    """Closed form at n/1: b^ceil(|n|/2) a^(-+1) b^floor(|n|/2)."""
    k = abs(n)
    return FreeWord.from_runs(
        [("b", (k + 1) // 2), ("a", -sign_rule(n)), ("b", k // 2)]
    )


def e_word_reciprocal(n: int) -> FreeWord:
    """Closed form at 1/n for n != 0: a-power, b, a-power."""
    if n == 0:
        raise ValueError("reciprocal index must be nonzero; 1/0 is the word b")
    k = abs(n)
    s = -sign_rule(n)
    return FreeWord.from_runs([("a", s * (k // 2)), ("b", 1), ("a", s * ((k + 1) // 2))])


def oracle_parents(x: ExtRational) -> tuple[ExtRational, ExtRational]:
    """Parents by exhaustive splitting search, not continued fractions.

    Tries every decomposition p = u + r, q = v + s into two valid indices
    that are Farey neighbors of each other; exactly one pair exists.
    Negative indices mirror positive ones (the canonical ∞ has no
    negative twin, so the mirrored pair keeps ∞ in the first slot).
    """
    if x.is_orphan:
        raise ValueError(f"orphan has no parents: {x}")
    if x.is_negative:
        lo, up = oracle_parents(-x)
        return (-up, -lo)
    found = set()
    for u in range(x.p + 1):
        for v in range(x.q + 1):
            r, s = x.p - u, x.q - v
            if (u, v) == (0, 0) or (r, s) == (0, 0):
                continue
            if (v == 0 and u != 1) or (s == 0 and r != 1):
                continue
            if gcd(u, v) != 1 or gcd(r, s) != 1:
                continue
            if abs(u * s - r * v) != 1:
                continue
            found.add(tuple(sorted((ExtRational(u, v), ExtRational(r, s)))))
    if len(found) != 1:
        raise ValueError(f"splitting search found {len(found)} parent pairs for {x}")
    return found.pop()


def oracle_e_word(x: ExtRational) -> FreeWord:
    """The literal parent-product recursion over oracle_parents, no closed forms.

    Negative indices go through the letter mirror a -> a^-1 applied to
    the positive word.  Production e_word walks the continued fraction
    one parity block per entry instead and never splits an index into
    parents.
    """
    return _oracle_word(x, {})


def _oracle_word(x: ExtRational, memo: dict[ExtRational, FreeWord]) -> FreeWord:
    # memo holds the words one call, or one sweep, has already built
    if x in memo:
        return memo[x]
    if x == ZERO:
        w = FreeWord.letter("a")
    elif x == INFINITY:
        w = FreeWord.letter("b")
    elif x.is_negative:
        mirrored = _oracle_word(-x, memo)
        w = FreeWord.from_runs((g, -e if g == "a" else e) for g, e in mirrored.runs)
    else:
        lo, up = oracle_parents(x)
        wlo, wup = _oracle_word(lo, memo), _oracle_word(up, memo)
        w = wup * wlo if (x.p * x.q) % 2 else wlo * wup
    memo[x] = w
    return w


def child_word(
    x: ExtRational, wx: FreeWord, y: ExtRational, wy: FreeWord
) -> tuple[ExtRational, FreeWord]:
    """Word at the mediant of two nonnegative Farey neighbors x < y.

    Takes the neighbors' words on trust and only arranges the product:
    upper first when the mediant has odd numerator * denominator, lower
    first otherwise.
    """
    if x.is_negative or y.is_negative:
        raise ValueError(f"indices must be nonnegative: {x}, {y}")
    if not x < y:
        raise ValueError(f"expected {x} < {y}")
    child = farey_sum(x, y)
    return child, wy * wx if (child.p * child.q) % 2 else wx * wy


# The parity profile ('e'/'o' for p, q, r, s) of an ordered neighbor pair
# p/q < r/s determines the parity of the mediant's numerator * denominator,
# and with it the product order.  Exactly the six PARITY_ROWS occur.  The
# EXCLUDED_ROWS (None = either parity) match every other profile: a
# numerator-denominator pair in lowest terms is never even/even, and the
# neighbor determinant rules out the three alternating/all-odd shapes.
PARITY_ROWS = {
    ("e", "o", "o", "e"): "odd",
    ("o", "o", "e", "o"): "even",
    ("o", "o", "o", "e"): "even",
    ("o", "e", "e", "o"): "odd",
    ("e", "o", "o", "o"): "even",
    ("o", "e", "o", "o"): "even",
}
EXCLUDED_ROWS = (
    ("e", "e", None, None),
    (None, None, "e", "e"),
    ("e", "o", "e", "o"),
    ("o", "e", "o", "e"),
    ("o", "o", "o", "o"),
)


def parity_pattern(x: ExtRational, y: ExtRational) -> tuple[str, str, str, str]:
    """('e'/'o' for p, q, r, s) of an ordered pair x = p/q, y = r/s."""
    return tuple("o" if v % 2 else "e" for v in (x.p, x.q, y.p, y.q))


def matches_excluded_row(pattern: tuple[str, str, str, str]) -> bool:
    return any(
        all(want is None or want == got for want, got in zip(row, pattern))
        for row in EXCLUDED_ROWS
    )


def recursion_call_count(x: ExtRational, mode: str = "orphan") -> int:
    """Distinct indices a memoized parent recursion evaluates, terminals included."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    seen: set[ExtRational] = set()

    def visit(y: ExtRational) -> None:
        if y in seen:
            return
        seen.add(y)
        if y.is_infinite or y == ZERO:
            return
        if mode == "shortcut" and (y.q == 1 or abs(y.p) == 1):
            return
        for z in parents(y):
            visit(z)

    visit(x)
    return len(seen)


@dataclass(frozen=True)
class SweepFailure:
    input: str
    expected: str
    got: str

    def to_dict(self) -> dict:
        return {"input": self.input, "expected": self.expected, "got": self.got}


@dataclass(frozen=True)
class SweepCheck:
    name: str
    tested: int
    failures: tuple[SweepFailure, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tested": self.tested,
            "failures": [f.to_dict() for f in self.failures],
        }


@dataclass(frozen=True)
class SweepReport:
    bound: int
    checks: tuple[SweepCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failure_count(self) -> int:
        return sum(len(c.failures) for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }

    def format_table(self) -> list[str]:
        width = max(len(c.name) for c in self.checks)
        lines = [f"sweep over |p| + q <= {self.bound}"]
        for c in self.checks:
            status = "ok" if c.ok else f"{len(c.failures)} FAILED"
            lines.append(f"  {c.name.ljust(width)}  {c.tested:>6}  {status}")
            for f in c.failures[:5]:
                lines.append(f">     {f.input}: expected {f.expected}, got {f.got}")
            if len(c.failures) > 5:
                lines.append(f">     ... {len(c.failures) - 5} more")
        total = sum(c.tested for c in self.checks)
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"{verdict}: {total} instances, {self.failure_count} failures")
        return lines


# Each case generator yields (ok, input, expected, got); only failing
# cases get stringified into the report.
Case = tuple[bool, object, object, object]


def _run_check(name: str, cases: Iterable[Case]) -> SweepCheck:
    tested = 0
    failures = []
    for ok, inp, expected, got in cases:
        tested += 1
        if not ok:
            failures.append(SweepFailure(str(inp), str(expected), str(got)))
    return SweepCheck(name, tested, tuple(failures))


def _parents_oracle_cases(positives: list[ExtRational]) -> Iterator[Case]:
    for x in positives:
        want = oracle_parents(x)
        got = parents(x)
        yield got == want, x, want, got


def _parents_rebuild_cases(positives: list[ExtRational]) -> Iterator[Case]:
    for x in positives:
        lo, up = parents(x)
        ok = (
            lo < x < up
            and is_farey_neighbor(lo, up)
            and farey_sum(lo, up) == x
        )
        yield ok, x, f"neighbors bracketing {x}", (lo, up)


def _level_recursion_cases(positives: list[ExtRational]) -> Iterator[Case]:
    for x in positives:
        lo, up = parents(x)
        want = 1 + max(farey_level(lo), farey_level(up))
        got = farey_level(x)
        yield got == want, x, want, got


def _cf_roundtrip_cases(finite_nonneg: list[ExtRational]) -> Iterator[Case]:
    for x in finite_nonneg:
        cf = to_continued_fraction(x)
        back = from_continued_fraction(cf)
        reparsed = parse_continued_fraction(str(cf))
        yield back == x and reparsed == cf, x, x, (back, reparsed)


def _word_oracle_cases(words: dict[ExtRational, FreeWord]) -> Iterator[Case]:
    memo: dict[ExtRational, FreeWord] = {}
    for x, w in words.items():
        want = _oracle_word(x, memo)
        yield w == want, x, want, w


def _mode_equivalence_cases(
    words: dict[ExtRational, FreeWord], shell: dict[ExtRational, FreeWord]
) -> Iterator[Case]:
    # the per-index walk in one mode against the shell descent in the other
    for x, w in words.items():
        other = shell.get(x)
        yield w == other, x, w, other


def _shortcut_form_cases(
    bound: int, words: dict[ExtRational, FreeWord]
) -> Iterator[Case]:
    for n in range(-(bound - 1), bound):
        want = words[ExtRational(n, 1)]
        got = e_word_integer(n)
        yield got == want, f"{n}/1", want, got
    for n in range(-(bound - 1), bound):
        if n == 0:
            continue
        x = normalize(1, n)
        want = words[x]
        got = e_word_reciprocal(n)
        yield got == want, x, want, got


def _call_reduction_cases(indices: list[ExtRational]) -> Iterator[Case]:
    # a property of the model parent recursion that recursion_call_count
    # counts: stopping at the closed forms saves calls off their own indices
    for x in indices:
        if x.q < 2 or abs(x.p) < 2:
            continue
        orphan = recursion_call_count(x, "orphan")
        short = recursion_call_count(x, "shortcut")
        yield short < orphan, x, f"< {orphan} calls", short


def _palindrome_parity_cases(words: dict[ExtRational, FreeWord]) -> Iterator[Case]:
    for x, w in words.items():
        want = (x.p * x.q) % 2 == 0
        got = w.is_palindrome()
        yield got == want, x, f"palindrome={want}", f"palindrome={got}"


def _length_cases(words: dict[ExtRational, FreeWord]) -> Iterator[Case]:
    for x, w in words.items():
        ok = (
            w.factor_count("b") == abs(x.p)
            and w.factor_count("a") == x.q
            and w.length == abs(x.p) + x.q
        )
        yield ok, x, (abs(x.p), x.q), (w.factor_count("b"), w.factor_count("a"))


def _exponent_sum_cases(words: dict[ExtRational, FreeWord]) -> Iterator[Case]:
    for x, w in words.items():
        want = (abs(x.p), -x.q if x.is_negative else x.q)
        got = (w.exponent_sum("b"), w.exponent_sum("a"))
        yield got == want, x, want, got


def _neighbor_palindrome_cases(
    pairs: list[tuple[ExtRational, ExtRational]],
    words: dict[ExtRational, FreeWord],
) -> Iterator[Case]:
    for x, y in pairs:
        ok = words[x].is_palindrome() or words[y].is_palindrome()
        yield ok, (x, y), "at least one palindrome", "neither"


def _parity_table_cases(
    pairs: list[tuple[ExtRational, ExtRational]]
) -> Iterator[Case]:
    for x, y in pairs:
        pattern = parity_pattern(x, y)
        actual = "odd" if ((x.p + y.p) * (x.q + y.q)) % 2 else "even"
        ok = not matches_excluded_row(pattern) and PARITY_ROWS.get(pattern) == actual
        yield ok, (x, y), f"row {pattern} -> {PARITY_ROWS.get(pattern)}", actual


def _mediant_between_cases(
    pairs: list[tuple[ExtRational, ExtRational]]
) -> Iterator[Case]:
    for x, y in pairs:
        m = farey_sum(x, y)
        ok = x < m < y and is_farey_neighbor(x, m) and is_farey_neighbor(m, y)
        yield ok, (x, y), f"{x} < {m} < {y}, both neighbors", m


def _child_product_cases(
    nonneg_pairs: list[tuple[ExtRational, ExtRational]],
    words: dict[ExtRational, FreeWord],
) -> Iterator[Case]:
    for x, y in nonneg_pairs:
        m, w = child_word(x, words[x], y, words[y])
        want = e_word(m)
        yield m == farey_sum(x, y) and w == want, (x, y), want, w


def _stepper_enumeration_cases(
    traces: dict[ExtRational, StepTrace], words: dict[ExtRational, FreeWord]
) -> Iterator[Case]:
    for x, trace in traces.items():
        ok = trace.last_changed_word == words[x] and trace.last_changed_index == x
        got = (trace.last_changed_index, trace.last_changed_word)
        yield ok, trace.sequence, (x, words[x]), got


def _stepper_ewordness_cases(
    traces: dict[ExtRational, StepTrace], words: dict[ExtRational, FreeWord]
) -> Iterator[Case]:
    for x, trace in traces.items():
        prev = trace.initial
        ok = True
        for rec in trace.steps:
            pair = rec.pair
            kept = (
                (pair.left, pair.left_index) == (prev.left, prev.left_index)
                if rec.preserved == "left"
                else (pair.right, pair.right_index) == (prev.right, prev.right_index)
            )
            ok = (
                kept
                and pair.left == words.get(pair.left_index)
                and pair.right == words.get(pair.right_index)
            )
            if not ok:
                break
            prev = pair
        yield ok, x, "all step pairs are indexed words", "mismatch"


def _approximant_cases(traces: dict[ExtRational, StepTrace]) -> Iterator[Case]:
    for x, trace in traces.items():
        entries = trace.sequence.entries
        ok = True
        for i, pair in enumerate(trace.block_ends()):
            changed = pair.left_index if i % 2 == 0 else pair.right_index
            if changed != evaluate_entries(entries[: i + 1]):
                ok = False
                break
        yield ok, x, "block ends hit the convergents", "mismatch"


def _stopping_form_cases(
    finite_positive: list[ExtRational], words: dict[ExtRational, FreeWord]
) -> Iterator[Case]:
    for x in finite_positive:
        seq = ESequence(to_continued_fraction(x).entries)
        got = exponent_form_check(words[x], seq)
        yield got, (x, seq), True, got


class ShapeMismatch(ValueError):
    """Entry sequence not covered by the stopping-pair tables."""


def closed_form_stop(seq: ESequence) -> GeneratorPair:
    """Stopping pair of a short sequence straight from the tables.

    Covers [n0; n1] and [n0; 1, n2] for n0 >= 1, and [0; n1, n2] and
    [0; n1, 1, n3].  A final entry of 1 is fine; the negative powers the
    formulas then produce cancel on reduction.  Anything else raises
    ShapeMismatch so the caller can fall back to run_esequence.
    """
    e = seq.entries
    a, b = FreeWord.letter("a"), FreeWord.letter("b")
    n0 = e[0]
    if n0 > 0 and len(e) == 2:
        n1 = e[1]
        m0, big0 = n0 // 2, (n0 + 1) // 2
        if n0 % 2:
            left = b**big0 * a * b**m0
            right = b**big0 * (a * b**n0) ** (n1 - 1) * a * b**big0
        else:
            m1, big1 = n1 // 2, (n1 + 1) // 2
            left = b**m0 * a * b**m0
            right = (
                b**m0 * (a * b**n0) ** (m1 - 1) * a * b ** (n0 + 1)
                * (a * b**n0) ** (big1 - 1) * a * b**m0
            )
    elif n0 > 0 and len(e) == 3 and e[1] == 1:
        n2 = e[2]
        m0, big0 = n0 // 2, (n0 + 1) // 2
        if n0 % 2:
            m2, big2 = n2 // 2, (n2 + 1) // 2
            left = (
                b**big0 * (a * b ** (n0 + 1)) ** m2 * a * b**n0
                * (a * b ** (n0 + 1)) ** (big2 - 1) * a * b**big0
            )
            right = b**big0 * a * b**big0
        else:
            left = b**m0 * (a * b ** (n0 + 1)) ** n2 * a * b**m0
            right = b ** (m0 + 1) * a * b**m0
    elif n0 == 0 and len(e) == 3:
        n1, n2 = e[1], e[2]
        m1, big1 = n1 // 2, (n1 + 1) // 2
        if n1 % 2:
            left = a**big1 * (b * a**n1) ** (n2 - 1) * b * a**big1
            right = a**m1 * b * a**big1
        else:
            m2, big2 = n2 // 2, (n2 + 1) // 2
            left = (
                a**m1 * (b * a**n1) ** (big2 - 1) * b * a ** (n1 + 1)
                * (b * a**n1) ** (m2 - 1) * b * a**m1
            )
            right = a**m1 * b * a**m1
    elif n0 == 0 and len(e) == 4 and e[2] == 1:
        n1, n3 = e[1], e[3]
        m1, big1 = n1 // 2, (n1 + 1) // 2
        if n1 % 2:
            m3, big3 = n3 // 2, (n3 + 1) // 2
            left = a**big1 * b * a**big1
            right = (
                a**big1 * (b * a ** (n1 + 1)) ** (big3 - 1) * b * a**n1
                * (b * a ** (n1 + 1)) ** m3 * b * a**big1
            )
        else:
            left = a**m1 * b * a ** (m1 + 1)
            right = a**m1 * (b * a ** (n1 + 1)) ** n3 * b * a**m1
    else:
        raise ShapeMismatch(f"{seq} does not match a stopping-pair table shape")
    return GeneratorPair(left, right, *(ExtRational(*end) for end in _bracket(e)))


def exponent_form_check(word: FreeWord, seq: ESequence) -> bool:
    """Check a word against the exponent pattern its sequence predicts.

    For [n0; ...] with n0 > 0 the word must read b^k1 a b^k2 a ... a b^kq
    with boundary exponents in {floor(n0/2), ceil(n0/2)} and interior
    exponents in {n0, n0+1}; when the sequence has at least four entries
    both interior values must actually occur.  When n0 == 0 the roles of
    a and b swap and n1 takes over.  Sequences ending in 1 are rejected:
    they escape the pattern.
    """
    e = seq.entries
    if len(e) > 1 and e[-1] == 1:
        raise ValueError("sequence ending in 1 is outside the exponent pattern")
    if e[0] > 0:
        block, single, n = "b", "a", e[0]
        strict = len(e) - 1 >= 3
    else:
        block, single, n = "a", "b", e[1]
        strict = len(e) - 1 >= 4
    m, big = n // 2, (n + 1) // 2
    if word.is_identity or not any(g == single for g, _ in word.runs):
        return False
    exps = []
    if word.runs[0][0] == single:
        exps.append(0)
    for g, ex in word.runs:
        if g == block:
            if ex <= 0:
                return False
            exps.append(ex)
        elif ex != 1:
            return False
    if word.runs[-1][0] == single:
        exps.append(0)
    interior = exps[1:-1]
    ok = exps[0] in (m, big) and exps[-1] in (m, big)
    ok = ok and all(x in (n, n + 1) for x in interior)
    if strict:
        ok = ok and set(interior) == {n, n + 1}
    return ok


def table_sequences(max_entry: int) -> list[ESequence]:
    """Every sequence shape the stopping tables cover, entries <= max_entry."""
    seqs = []
    r = range(1, max_entry + 1)
    for n0 in r:
        seqs.extend(ESequence((n0, n1)) for n1 in r)
        seqs.extend(ESequence((n0, 1, n2)) for n2 in r)
    for n1 in r:
        seqs.extend(ESequence((0, n1, n2)) for n2 in r)
        seqs.extend(ESequence((0, n1, 1, n3)) for n3 in r)
    return seqs


def canonical_sequences(max_entry: int, max_k: int) -> list[ESequence]:
    """All canonical sequences with entries <= max_entry and at most
    max_k entries after the first."""
    out: list[ESequence] = []

    def extend(prefix: list[int]) -> None:
        if prefix != [0] and (len(prefix) == 1 or prefix[-1] >= 2):
            out.append(ESequence(tuple(prefix)))
        if len(prefix) - 1 < max_k:
            for n in range(1, max_entry + 1):
                extend(prefix + [n])

    for n0 in range(max_entry + 1):
        extend([n0])
    return out


def _closed_form_cases(max_entry: int) -> Iterator[Case]:
    for seq in table_sequences(max_entry):
        want = run_esequence(seq).final
        got = closed_form_stop(seq)
        yield got == want, seq, want, got


def _run_preserving_cases(max_steps: int) -> Iterator[Case]:
    states = [initial_pair()]
    for first in SIDES:
        one = step(initial_pair(), first)
        states.append(one)
        states.extend(step(one, second) for second in SIDES)
    for state in states:
        for side in SIDES:
            for n in range(1, max_steps + 1):
                want = state
                for _ in range(n):
                    want = step(want, side)
                got = run_preserving(state, side, n)
                yield got == want, (state, side, n), want, got


def _counting_cases(max_length: int) -> Iterator[Case]:
    for n in range(2, max_length + 1):
        arithmetic, measured = count_ewords_of_length(n)
        yield arithmetic == measured, f"length {n}", arithmetic, measured


def sweep(bound: int) -> SweepReport:
    """Run every cross-module property exhaustively over one shell.

    The time grows faster than the shell: oracle_parents, an O(pq)
    splitting search, runs once per index in word-vs-oracle (one memo for
    the whole sweep) and again in parents-vs-splitting-oracle.
    """
    if bound < 2:
        raise ValueError(f"sweep bound must be at least 2, got {bound}")
    indices = rational_indices(bound)
    words = {x: e_word(x) for x in indices}
    positives = [x for x in indices if not (x.is_negative or x.is_orphan)]
    finite_nonneg = [x for x in indices if not (x.is_negative or x.is_infinite)]
    finite_positive = [x for x in positives if not x.is_infinite]
    # one trace per index serves all three stepper checks
    traces = {
        x: run_esequence(ESequence(to_continued_fraction(x).entries))
        for x in finite_positive
    }
    pairs = neighbor_pairs(bound)
    nonneg_pairs = [(x, y) for x, y in pairs if not x.is_negative]
    small = min(bound, 5)

    checks = (
        _run_check("parents-vs-splitting-oracle", _parents_oracle_cases(positives)),
        _run_check("parents-rebuild", _parents_rebuild_cases(positives)),
        _run_check("level-parent-recursion", _level_recursion_cases(positives)),
        _run_check("cf-roundtrip", _cf_roundtrip_cases(finite_nonneg)),
        _run_check("word-vs-oracle", _word_oracle_cases(words)),
        _run_check(
            "mode-equivalence",
            _mode_equivalence_cases(words, enumerate_ewords(bound, "shortcut")),
        ),
        _run_check("shortcut-closed-forms", _shortcut_form_cases(bound, words)),
        _run_check("shortcut-call-reduction", _call_reduction_cases(indices)),
        _run_check("palindrome-parity", _palindrome_parity_cases(words)),
        _run_check("length-law", _length_cases(words)),
        _run_check("exponent-sums", _exponent_sum_cases(words)),
        _run_check("neighbor-palindrome", _neighbor_palindrome_cases(pairs, words)),
        _run_check("parity-table", _parity_table_cases(pairs)),
        _run_check("mediant-betweenness", _mediant_between_cases(pairs)),
        _run_check("child-product-rule", _child_product_cases(nonneg_pairs, words)),
        _run_check("stepper-vs-enumeration", _stepper_enumeration_cases(traces, words)),
        _run_check("stepper-ewordness", _stepper_ewordness_cases(traces, words)),
        _run_check("stepper-approximants", _approximant_cases(traces)),
        _run_check(
            "stopping-exponent-form", _stopping_form_cases(finite_positive, words)
        ),
        _run_check("closed-form-tables", _closed_form_cases(small)),
        _run_check("run-preserving-vs-steps", _run_preserving_cases(min(bound, 6))),
        _run_check("length-counting", _counting_cases(min(bound, 12))),
    )
    return SweepReport(bound, checks)
