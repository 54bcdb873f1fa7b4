"""The rational-indexed enumeration of primitive words.

e_word sends 0/1 to a, 1/0 to b, and every other extended rational to an
ordered product of the words of its two parents.  The order is decided by
the parity of numerator * denominator: odd puts the upper parent's word
first, even the lower's.  The index of a product is always the mediant of
the factors' indices, so the word at p/q has |p| b-letters and q
a-letters, and it is a palindrome exactly when p * q is even.

e_word builds the word by walking the Stern-Brocot path of the continued
fraction with the stepper's run_preserving blocks, whose palindrome order
rule yields the same products as the parity rule.  The two modes, orphan
and shortcut, run the same walk and produce identical words; e_word_integer
and e_word_reciprocal give the closed forms at n/1 and 1/n.

Negative indices mirror positive ones with the sign of every a-exponent
flipped.
"""

from __future__ import annotations

from .farey import INFINITY, ZERO, ExtRational, farey_sum, to_continued_fraction
from .stepper import GeneratorPair, run_preserving
from .word import FreeWord

MODES = ("orphan", "shortcut")

_B = FreeWord.letter("b")


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


def e_word(x: ExtRational, mode: str = "orphan") -> FreeWord:
    """The word at index x, built by one walk down the continued fraction of |x|.

    The walk starts from the pair (a, b) at (0/1, 1/0) and takes one
    run_preserving block per nonzero entry: even positions preserve the
    right word, odd positions the left.  The side changed last carries the
    word.  Negative x starts from (a^-1, b) instead; the walk only forms
    products and powers of the two start words, and a -> a^-1 keeps
    palindromes palindromes, so this yields the letter mirror of the
    positive word.  Both modes run this walk.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if x.is_infinite:
        return _B
    s = -1 if x.is_negative else 1
    entries = to_continued_fraction(ExtRational(abs(x.p), x.q)).entries
    pair = GeneratorPair(FreeWord.letter("a", s), _B, ZERO, INFINITY)
    for i, n in enumerate(entries):
        if n:
            pair = run_preserving(pair, "right" if i % 2 == 0 else "left", n)
    return pair.left if len(entries) % 2 else pair.right


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
    odd = (child.p * child.q) % 2 == 1
    return child, (wy * wx if odd else wx * wy)


# Parity profile ('e'/'o' for p, q, r, s) of an ordered neighbor pair
# p/q < r/s determines the parity of the mediant's numerator * denominator.
# Exactly these six profiles can occur.
PARITY_ROWS = {
    ("e", "o", "o", "e"): "odd",
    ("o", "o", "e", "o"): "even",
    ("o", "o", "o", "e"): "even",
    ("o", "e", "e", "o"): "odd",
    ("e", "o", "o", "o"): "even",
    ("o", "e", "o", "o"): "even",
}

# Impossible profiles (None = either parity): a numerator-denominator pair
# in lowest terms is never even/even, and the neighbor determinant rules
# out the three alternating/all-odd shapes.
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
