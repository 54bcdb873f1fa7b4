"""The rational-indexed enumeration of primitive words, one index or a whole shell.

e_word sends 0/1 to a, 1/0 to b, and every other extended rational to an
ordered product of the words of its two parents.  The order is decided by
the parity of numerator * denominator: odd puts the upper parent's word
first, even the lower's.  The index of a product is always the mediant of
the factors' indices, so the word at p/q has |p| b-letters and q
a-letters, and it is a palindrome exactly when p * q is even.

e_word walks the Stern-Brocot path of the continued fraction once, one
block of mediants per entry.  The two modes, orphan and shortcut, run the
same walk.  Negative indices mirror positive ones with the sign of every
a-exponent flipped.

A shell of radius n holds every index p/q with |p| + q <= n.  One
depth-first Stern-Brocot descent meets a shell's indices in increasing
order, each with its larger Farey neighbors in the shell.
neighbor_pairs reads those pairs off it; enumerate_ewords forms each
positive word once from its parents' words; count_ewords_of_length
streams it, holding one root-to-leaf path at a time.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator

from .farey import INFINITY, ZERO, ExtRational, _upper_first, to_continued_fraction
from .word import FreeWord

MODES = ("orphan", "shortcut")

_B = FreeWord.letter("b")


def e_word(x: ExtRational, mode: str = "orphan") -> FreeWord:
    """The word at index x, built by one walk down the continued fraction of |x|.

    From a at 0/1 and b at 1/0, entry i moves one end (p, q, w) n mediants
    toward the fixed end (r, s, f): the lower end when i is even, the
    upper when i is odd.  The k-th mediant's parity depends only on k mod
    2, so the order rule at k = 1, 2 gives v, the steps that put f first,
    and the block yields f^v w f^(n-v).  The end moved last carries the
    word.  Negative x starts from a^-1: the letter mirror.  Both modes run
    this walk.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if x.is_infinite:
        return _B
    (p, q, w), (r, s, f) = (0, 1, FreeWord.letter("a", -1 if x.is_negative else 1)), (1, 0, _B)
    for i, n in enumerate(to_continued_fraction(ExtRational(abs(x.p), x.q)).entries):
        # f is the upper end's word when i is even, the lower's when i is odd
        v = (n + 1) // 2 * (_upper_first(p + r, q + s) != i % 2)
        v += n // 2 * (_upper_first(p + 2 * r, q + 2 * s) != i % 2)
        (p, q, w), (r, s, f) = (r, s, f), (p + n * r, q + n * s, f**v * w * f ** (n - v))
    return f


def rational_indices(bound: int) -> list[ExtRational]:
    """All indices with |p| + q <= bound, in increasing order (∞ last)."""
    if bound < 1:
        raise ValueError(f"bound must be positive: {bound}")
    out = [INFINITY]
    for q in range(1, bound + 1):
        for p in range(-(bound - q), bound - q + 1):
            if gcd(abs(p), q) == 1:
                out.append(ExtRational(p, q))
    return sorted(out)


def _descent(bound: int, lo: tuple, ups: list[tuple]) -> Iterator[tuple[tuple, list[tuple]]]:
    """Walk the shell |p| + q <= bound depth-first from a lower end and a
    stack of upper ends, each a (p, q, word or None) triple.

    While the mediant of the lower end and the top upper end stays in the
    shell, it is pushed, with its word when the ends carry words.  Else
    the lower end is yielded and the top is popped to become the next one.
    The lower ends come out in increasing order, each with the upper ends
    from its own upper bracket end to the top: its larger neighbors in
    the shell.  The last upper end is never yielded.
    """
    base = len(ups) - 1
    while ups:
        (p, q, wlo), (r, s, wup) = lo, ups[-1]
        if abs(p + r) + q + s <= bound:
            if wlo is not None:
                wlo = wup * wlo if _upper_first(p + r, q + s) else wlo * wup
            ups.append((p + r, q + s, wlo))
        else:
            yield lo, ups[base:]
            lo = ups.pop()
            base = len(ups) - 1


def neighbor_pairs(
    bound: int, include_negative: bool = True
) -> list[tuple[ExtRational, ExtRational]]:
    """Ordered Farey-neighbor pairs (x < y) with both indices in the shell.

    One descent from -1/0 (or from 0/1 without negatives) meets the
    indices in increasing order, each with its larger neighbors.  -1/0 is
    ∞ seen from below, so a negative integer's pair with it is taken as
    (x, ∞).
    """
    if bound < 1:
        raise ValueError(f"bound must be positive: {bound}")
    lo, ups = (-1, 0, None), [(1, 0, None), (0, 1, None)]
    if not include_negative:  # start one step on, from 0/1
        lo = ups.pop()
    pairs = []
    for (p, q, _), larger in _descent(bound, lo, ups):
        if q:
            x = ExtRational(p, q)
            pairs += [(x, ExtRational(r, s)) for r, s, _ in reversed(larger)]
            pairs += [(x, INFINITY)] * (p < 0 and q == 1)
    return pairs


def enumerate_ewords(bound: int, mode: str = "orphan") -> dict[ExtRational, FreeWord]:
    """Word for every index in the shell, keyed in rational_indices order.

    One descent from (0/1: a, 1/0: b) forms each positive word once, from
    its parents' words.  Negative indices take the a -> a^-1 mirror.  Both
    modes agree.
    """
    if bound < 1:
        raise ValueError(f"bound must be positive: {bound}")
    a, b = e_word(ZERO, mode), e_word(INFINITY, mode)  # e_word validates the mode
    positive = [lo for lo, _ in _descent(bound, (0, 1, a), [(1, 0, b)])]
    out = {
        ExtRational(-p, q): FreeWord._trusted(tuple((g, -e if g == "a" else e) for g, e in w.runs))
        for p, q, w in reversed(positive[1:])  # the first is 0/1
    }
    out.update((ExtRational(p, q), w) for p, q, w in positive)
    out[INFINITY] = b
    return out


def count_ewords_of_length(n: int) -> tuple[int, int]:
    """(arithmetic count, measured count) of words whose total length is n.

    The arithmetic side counts nonzero |p| < n coprime to n, one sign
    each way.  The measured side streams the descent over the shell of
    radius n without words, builds the word at each index on its rim
    p + q = n and takes its length, counting each positive word for its
    mirror too, which has the same length.  The two agree for every
    n >= 2; n = 1 is excluded because the orphans fall outside the
    coprime-pair pattern.
    """
    if n < 2:
        raise ValueError(f"length counts start at n = 2, got {n}")
    arithmetic = 2 * sum(1 for p in range(1, n) if gcd(p, n) == 1)
    descent = _descent(n, (0, 1, None), [(1, 0, None)])
    rim = (ExtRational(p, q) for (p, q, _), _ in descent if p + q == n)
    measured = 2 * sum(1 for x in rim if e_word(x).length == n)
    return arithmetic, measured
