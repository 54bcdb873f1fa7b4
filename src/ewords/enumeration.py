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

from .farey import INFINITY, ZERO, ExtRational, to_continued_fraction
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


# PARITY_ROWS stays importable from here for existing callers.  The import
# comes last because verify imports this module.
from .verify import PARITY_ROWS  # noqa: E402,F401
