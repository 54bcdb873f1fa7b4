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
for the preserved word A.  run_esequence trusts its own steps: it forms
unchecked mediants, takes each product order from farey's parity rule
(both words of a machine pair are palindromes exactly when the mediant's
pq is odd), and its trace spells each new word from the previous pair's
texts in that order, with one token spliced in where the seam runs merge.
"""

from __future__ import annotations

from itertools import accumulate

from .farey import (
    INFINITY,
    ZERO,
    ExtRational,
    _Frozen,
    _mediant,
    _upper_first,
    evaluate_entries,
    format_entries,
    is_farey_neighbor,
    parse_bracketed_entries,
)
from .word import FreeWord

SIDES = ("left", "right")


class ESequence(_Frozen):
    """Entry list [n0; n1, ..., nk]: n0 >= 0, later entries >= 1.

    Unlike canonical continued fractions a trailing 1 is allowed; the run
    it drives is still well defined.  [0;] alone is rejected because it
    drives no steps.
    """

    __match_args__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        object.__setattr__(self, "entries", tuple(entries))
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


class GeneratorPair(_Frozen):
    """Two basis words with their tracked indices, kept in Farey order."""

    __match_args__ = ("left", "right", "left_index", "right_index")

    def __init__(
        self, left: FreeWord, right: FreeWord, left_index: ExtRational, right_index: ExtRational
    ) -> None:
        if not left_index < right_index:
            raise ValueError(f"indices out of order: {left_index} >= {right_index}")
        if not is_farey_neighbor(left_index, right_index):
            raise ValueError(f"indices are not Farey neighbors: {left_index}, {right_index}")
        self.__dict__.update(
            left=left, right=right, left_index=left_index, right_index=right_index
        )

    @staticmethod
    def _trusted(left, right, li, ri) -> "GeneratorPair":
        # For indices known to be ordered neighbors: skips __init__.
        pair = object.__new__(GeneratorPair)
        pair.__dict__.update(left=left, right=right, left_index=li, right_index=ri)
        return pair


def initial_pair() -> GeneratorPair:
    return GeneratorPair(FreeWord.letter("a"), FreeWord.letter("b"), ZERO, INFINITY)


def _check_side(preserve: str) -> None:
    if preserve not in SIDES:
        raise ValueError(f"preserve must be one of {SIDES}, got {preserve!r}")


def step(pair: GeneratorPair, preserve: str) -> GeneratorPair:
    """One replacement step keeping the named side."""
    _check_side(preserve)
    return _step(pair, preserve, pair.left.is_palindrome() and pair.right.is_palindrome())


def _step(pair: GeneratorPair, preserve: str, upper_first: bool) -> GeneratorPair:
    # a valid pair's mediant is a valid index, neighbor to each end
    product = pair.right * pair.left if upper_first else pair.left * pair.right
    child = _mediant(pair.left_index, pair.right_index)
    if preserve == "left":
        return GeneratorPair._trusted(pair.left, product, pair.left_index, child)
    return GeneratorPair._trusted(product, pair.right, child, pair.right_index)


def run_preserving(pair: GeneratorPair, preserve: str, n: int) -> GeneratorPair:
    """n steps preserving one side, collapsed to one block rule.

    With the preserved word A and the other word M the block yields
    A^x M A^(n-x).  A non-palindrome A takes every product on its own
    side: x = n preserving the left, 0 preserving the right.  A palindrome
    A does so until A^t M (M A^t on the right) is a palindrome, if ever;
    then the order alternates, and over the k steps left x = k // 2 on the
    left, (k + 1) // 2 on the right.  Agrees with n iterated steps.
    """
    _check_side(preserve)
    if n < 1:
        raise ValueError(f"step count must be positive: {n}")
    left = preserve == "left"
    anchor, moving = (pair.left, pair.right) if left else (pair.right, pair.left)
    ai, mi = (pair.left_index, pair.right_index) if left else (pair.right_index, pair.left_index)
    k, x = n, n if left else 0
    if anchor.is_palindrome():
        # M A^t is a palindrome exactly when A^t reverse(M) is
        t = _palindrome_power(anchor, moving if left else moving.reverse(), n)
        moving = anchor**t * moving if left else moving * anchor**t
        k -= t
        x = k // 2 if left else (k + 1) // 2
    new = anchor**x * moving * anchor ** (k - x)
    # n successive mediants against the fixed anchor index
    mi = ExtRational(mi.p + n * ai.p, mi.q + n * ai.q)
    return GeneratorPair(anchor, new, ai, mi) if left else GeneratorPair(new, anchor, mi, ai)


def _palindrome_power(anchor: FreeWord, moving: FreeWord, n: int) -> int:
    """The least t in 0..n with anchor^t moving a palindrome, else n."""
    if moving.is_palindrome():
        return 0
    runs = moving.runs
    if len(anchor.runs) != 1:
        # t <= len(runs) is argued, not proved: A, not the identity, is g^e S g^e,
        # r >= 3 runs, A^t = g^e (S g^(2e))^t g^-e; A^t M A^-t = reverse(M) has runs(M)
        # runs, conjugating adds 2t(r - 1) and each run of M cancels two at most, so
        # t <= runs(M)/2 + 1 or so (test_palindrome_anchor_matches_iteration samples it)
        for t in range(1, min(n, len(runs)) + 1):
            moving = anchor * moving
            if moving.is_palindrome():
                return t
        return n
    # moving = g^f rest, rest not starting on g, so anchor^t moving = g^(et + f) rest:
    # a palindrome only if et + f is the exponent of rest's last run when that is
    # a g-run, else 0 (then rest itself is the palindrome)
    ((g, e),) = anchor.runs
    f = runs[0][1] if runs[0][0] == g else 0
    t, r = divmod((runs[-1][1] if runs[-1][0] == g else 0) - f, e)
    return t if r == 0 and 0 < t <= n and (anchor**t * moving).is_palindrome() else n


def _seam_text(x: tuple[FreeWord, str], y: tuple[FreeWord, str], alphabet: str) -> str:
    # text of x y when its seam does not cancel: one new token where the runs merge
    (g, e), (h, f) = x[0].runs[-1], y[0].runs[0]
    tx, ty = x[1], y[1]
    if g != h:
        return f"{tx} {ty}"
    tail = ty[ty.find(" ") :] if " " in ty else ""
    return tx[: tx.rfind(" ") + 1] + FreeWord._trusted(((g, e + f),)).format(alphabet) + tail


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


class StepRecord(_Frozen):
    __match_args__ = ("preserved", "pair")

    def __init__(self, preserved: str, pair: GeneratorPair) -> None:
        self.__dict__.update(preserved=preserved, pair=pair)


class StepTrace(_Frozen):
    """Full history of a sequence-driven run, one record per step."""

    __match_args__ = ("sequence", "initial", "steps")

    def __init__(self, sequence: ESequence, initial: GeneratorPair, steps: tuple) -> None:
        # _by_machine is no field: run_esequence sets it, its steps being the machine's own
        self.__dict__.update(sequence=sequence, initial=initial, steps=steps, _by_machine=False)

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
        pairs = (self.initial, *(rec.pair for rec in self.steps))
        left, right = self.initial.left.format(alphabet), self.initial.right.format(alphabet)
        texts = [(left, right)]
        for prev, pair, rec in zip(pairs, pairs[1:], self.steps):
            if self._by_machine:  # the changed word is the product in the parity order
                known = ((prev.left, left), (prev.right, right))
                m = pair.right_index if rec.preserved == "left" else pair.left_index
                word = _seam_text(*known[:: -1 if _upper_first(m.p, m.q) else 1], alphabet)
                left, right = (left, word) if rec.preserved == "left" else (word, right)
            else:
                left, right = pair.left.format(alphabet), pair.right.format(alphabet)
            texts.append((left, right))
        dicts = [
            dict(left=lt, right=rt, left_index=str(p.left_index), right_index=str(p.right_index))
            for p, (lt, rt) in zip(pairs, texts)
        ]
        entries = self.sequence.entries
        word, index = self.last_changed_word, self.last_changed_index
        # a machine word's exponents are all positive: its sums are its index's
        sums = (index.q, index.p) if self._by_machine else map(word.exponent_sum, "ab")
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
                "index": str(index),
                "exponent_sums": dict(zip("ab", sums)),
            },
        }


def run_esequence(seq: ESequence) -> StepTrace:
    """Drive the machine from (a, b) through every step of the sequence."""
    pair = start = initial_pair()
    records = []
    for i, n in enumerate(seq.entries):
        side = "right" if i % 2 == 0 else "left"
        for _ in range(n):
            x, y = pair.left_index, pair.right_index
            pair = _step(pair, side, _upper_first(x.p + y.p, x.q + y.q))
            records.append(StepRecord(side, pair))
    trace = StepTrace(seq, start, tuple(records))
    trace.__dict__["_by_machine"] = True
    return trace
