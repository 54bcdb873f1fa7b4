"""Palindrome-aware replacement of one generator in a free-group basis.

A state is a pair of words with tracked rational indices, starting from
(a, b) at (0/1, 1/0).  A single step keeps one side and replaces the
other with a product of both: right * left when both words are
palindromes, left * right otherwise.  The new word's index is the mediant
of the pair's indices, so the indices stay Farey neighbors in order.

Runs are driven by an entry sequence [n0; n1, ..., nk]: entries in even
positions spend their steps preserving the right word, odd positions the
left, and a leading 0 skips straight to the left-preserving block.  After
the run the side changed last carries the word indexed by the sequence's
value.  A block of n same-side steps collapses to one rule, A^x M A^(n-x)
for the preserved word A, and for short sequences the whole stopping pair
has closed forms.  A trace renders without formatting its long words:
each word after the start is a seam product of the previous pair, so its
text is its factors' texts joined, with one token spliced in where the
seam runs merged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .farey import (
    INFINITY,
    ZERO,
    ExtRational,
    _bracket,
    evaluate_entries,
    farey_sum,
    format_entries,
    is_farey_neighbor,
    parse_bracketed_entries,
)
from .word import FreeWord

SIDES = ("left", "right")


class ShapeMismatch(ValueError):
    """Entry sequence not covered by the stopping-pair tables."""


@dataclass(frozen=True)
class ESequence:
    """Entry list [n0; n1, ..., nk]: n0 >= 0, later entries >= 1.

    Unlike canonical continued fractions a trailing 1 is allowed; the run
    it drives is still well defined.  [0;] alone is rejected because it
    drives no steps.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("sequence needs at least one entry")
        for i, n in enumerate(self.entries):
            if type(n) is not int:
                raise ValueError(f"entries must be integers: {n!r}")
            if n < (0 if i == 0 else 1):
                raise ValueError(f"entry {n} at position {i} is too small")
        if self.entries == (0,):
            raise ValueError("sequence [0;] drives no steps")

    @classmethod
    def parse(cls, text: str) -> "ESequence":
        return cls(tuple(parse_bracketed_entries(text)))

    def value(self) -> ExtRational:
        return evaluate_entries(self.entries)

    @property
    def is_canonical(self) -> bool:
        return len(self.entries) == 1 or self.entries[-1] >= 2

    def __str__(self) -> str:
        return format_entries(self.entries)


@dataclass(frozen=True)
class GeneratorPair:
    """Two basis words with their tracked indices, kept in Farey order."""

    left: FreeWord
    right: FreeWord
    left_index: ExtRational
    right_index: ExtRational

    def __post_init__(self) -> None:
        if not self.left_index < self.right_index:
            raise ValueError(
                f"indices out of order: {self.left_index} >= {self.right_index}"
            )
        if not is_farey_neighbor(self.left_index, self.right_index):
            raise ValueError(
                f"indices are not Farey neighbors: {self.left_index}, {self.right_index}"
            )


def initial_pair() -> GeneratorPair:
    return GeneratorPair(FreeWord.letter("a"), FreeWord.letter("b"), ZERO, INFINITY)


def _check_side(preserve: str) -> None:
    if preserve not in SIDES:
        raise ValueError(f"preserve must be one of {SIDES}, got {preserve!r}")


def step(pair: GeneratorPair, preserve: str) -> GeneratorPair:
    """One replacement step keeping the named side."""
    _check_side(preserve)
    both = pair.left.is_palindrome() and pair.right.is_palindrome()
    product = pair.right * pair.left if both else pair.left * pair.right
    child = farey_sum(pair.left_index, pair.right_index)
    if preserve == "left":
        return GeneratorPair(pair.left, product, pair.left_index, child)
    return GeneratorPair(product, pair.right, child, pair.right_index)


def run_preserving(pair: GeneratorPair, preserve: str, n: int) -> GeneratorPair:
    """n steps preserving one side, collapsed to one block rule.

    With the preserved word A and the other word M the block yields
    A^x M A^(n-x).  A non-palindrome A takes every product on its own
    side: x = n preserving the left, 0 preserving the right.  A palindrome
    A does so only while M is not a palindrome (states the machine visits
    need at most one such step); then the order alternates, and over the
    k steps left x = k // 2 on the left, (k + 1) // 2 on the right.
    Agrees with n iterated steps.
    """
    _check_side(preserve)
    if n < 1:
        raise ValueError(f"step count must be positive: {n}")
    left = preserve == "left"
    anchor, moving = (pair.left, pair.right) if left else (pair.right, pair.left)
    ai, mi = (pair.left_index, pair.right_index) if left else (pair.right_index, pair.left_index)
    k = n
    if not anchor.is_palindrome():
        x = n if left else 0
    else:
        while k and not moving.is_palindrome():
            moving = anchor * moving if left else moving * anchor
            k -= 1
        x = k // 2 if left else (k + 1) // 2
    new = anchor**x * moving * anchor ** (k - x)
    # n successive mediants against the fixed anchor index
    mi = ExtRational(mi.p + n * ai.p, mi.q + n * ai.q)
    return GeneratorPair(anchor, new, ai, mi) if left else GeneratorPair(new, anchor, mi, ai)


def _spell(w: FreeWord, known: tuple[tuple[FreeWord, str], ...], alphabet: str) -> str:
    """w's text from the texts of known words: a kept word's own text, or
    the texts of a seam product's factors joined, with one new token
    spliced in where the seam runs merged.  Anything else (a cancellation,
    a word that is no such product) is formatted afresh.
    """
    r = w.runs
    for (x, tx), (y, ty) in zip(known, known[::-1]):
        u, v = x.runs, y.runs
        # lengths first: tuple == has no length shortcut, and u may be r's prefix
        if len(u) == len(r) and u == r:
            return tx
        if not (u and v):
            continue
        if u[-1][0] != v[0][0]:
            if len(u) + len(v) == len(r) and u + v == r:
                return f"{tx} {ty}"
        elif len(u) + len(v) - 1 == len(r) and (e := u[-1][1] + v[0][1]):
            seam = ((v[0][0], e),)
            if u[:-1] + seam + v[1:] == r:
                tail = ty[ty.find(" ") :] if " " in ty else ""
                return tx[: tx.rfind(" ") + 1] + FreeWord._trusted(seam).format(alphabet) + tail
    return w.format(alphabet)


def _arrow_chain(data: dict) -> list[str]:
    # StepTrace.format_lines from its to_dict(), which the CLI prints more of
    lines = ["({left}, {right})".format(**data["initial"])]
    for d in data["steps"]:
        mark = "L" if d["preserved"] == "left" else "R"
        lines.append(
            f"→ ({d['left']}, {d['right']})  [preserved: {mark}]  "
            f"[indices: {d['left_index']}, {d['right_index']}]"
        )
    return lines


@dataclass(frozen=True)
class StepRecord:
    preserved: str
    pair: GeneratorPair


@dataclass(frozen=True)
class StepTrace:
    """Full history of a sequence-driven run, one record per step."""

    sequence: ESequence
    initial: GeneratorPair
    steps: tuple[StepRecord, ...]

    @property
    def final(self) -> GeneratorPair:
        return self.steps[-1].pair if self.steps else self.initial

    @property
    def last_changed_side(self) -> str:
        return "left" if self.steps[-1].preserved == "right" else "right"

    @property
    def last_changed_word(self) -> FreeWord:
        pair = self.final
        return pair.left if self.last_changed_side == "left" else pair.right

    @property
    def last_changed_index(self) -> ExtRational:
        pair = self.final
        return pair.left_index if self.last_changed_side == "left" else pair.right_index

    def block_ends(self) -> tuple[GeneratorPair, ...]:
        """State after each entry's block of steps (a leading 0 keeps the start)."""
        pairs = (self.initial, *(rec.pair for rec in self.steps))
        return tuple(pairs[pos] for pos in accumulate(self.sequence.entries))

    def format_lines(self, alphabet: str = "ab") -> list[str]:
        """The run as an arrow chain, one line per step."""
        return _arrow_chain(self.to_dict(alphabet))

    def to_dict(self, alphabet: str = "ab") -> dict:
        dicts, known = [], ()
        for pair in (self.initial, *(rec.pair for rec in self.steps)):
            left, right = _spell(pair.left, known, alphabet), _spell(pair.right, known, alphabet)
            known = ((pair.left, left), (pair.right, right))
            dicts.append(
                {
                    "left": left,
                    "right": right,
                    "left_index": str(pair.left_index),
                    "right_index": str(pair.right_index),
                }
            )
        entries = self.sequence.entries
        word = self.last_changed_word
        return {
            "esequence": list(entries),
            "value": str(self.sequence.value()),
            "initial": dicts[0],
            "steps": [{"preserved": rec.preserved, **d} for rec, d in zip(self.steps, dicts[1:])],
            "blocks": [
                {"entry": n, "position": i, **dicts[pos]}
                for i, (n, pos) in enumerate(zip(entries, accumulate(entries)))
            ],
            "last_changed": {
                "side": self.last_changed_side,
                "word": dicts[-1][self.last_changed_side],
                "index": str(self.last_changed_index),
                "exponent_sums": {
                    "a": word.exponent_sum("a"),
                    "b": word.exponent_sum("b"),
                },
            },
        }


def run_esequence(seq: ESequence) -> StepTrace:
    """Drive the machine from (a, b) through every step of the sequence."""
    start = initial_pair()
    pair = start
    records = []
    for i, n in enumerate(seq.entries):
        side = "right" if i % 2 == 0 else "left"
        for _ in range(n):
            pair = step(pair, side)
            records.append(StepRecord(side, pair))
    return StepTrace(seq, start, tuple(records))


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
    return GeneratorPair(left, right, *_bracket(e))


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
