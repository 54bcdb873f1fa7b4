"""Reference answers computed apart from the ewords package.

Nothing here imports ewords.  The word oracle is the rotated lower
Christoffel word, built one letter at a time; the rest is plain integer
and Fraction arithmetic.  Words are compared as letter strings in which
"a", "b" stand for the generators and "A" for a^-1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def christoffel_word(p: int, q: int) -> str:
    """E-word at p/q (q >= 0, lowest terms) as a letter string.

    For p, q >= 1 let n = p + q and r = n/2 when pq is odd, else
    r = (2q)^-1 mod n.  Letter i is "b" exactly when
    floor((j+1)p/n) > floor(jp/n) with j = (i + r) mod n; otherwise it is
    "a".  Negative p mirrors a -> a^-1.
    """
    if q == 0:
        return "b"
    if p == 0:
        return "a"
    m = abs(p)
    n = m + q
    r = n // 2 if (m * q) % 2 else pow(2 * q, -1, n)
    a = "A" if p < 0 else "a"
    letters = []
    for i in range(n):
        j = (i + r) % n
        letters.append("b" if (j + 1) * m // n > j * m // n else a)
    return "".join(letters)


def mediant_words(limit: int) -> dict[tuple[int, int], str]:
    """Words at every p/q >= 0 with p + q <= limit, by letter-level products.

    Walks the Stern-Brocot tree from the bracket (0/1, 1/0), where the
    words are "a" and "b".  The word at a mediant is the upper word then
    the lower one when its pq is odd, the lower then the upper otherwise.
    Used only to check christoffel_word.
    """
    words = {(0, 1): "a", (1, 0): "b"}
    stack = [((0, 1), (1, 0))]
    while stack:
        lo, up = stack.pop()
        p, q = lo[0] + up[0], lo[1] + up[1]
        if p + q > limit:
            continue
        words[(p, q)] = words[up] + words[lo] if (p * q) % 2 else words[lo] + words[up]
        stack.append((lo, (p, q)))
        stack.append(((p, q), up))
    return words


def runs_to_letters(runs) -> str:
    """Expand (generator, exponent) runs into a letter string."""
    return "".join((g if e > 0 else g.upper()) * abs(e) for g, e in runs)


def text_to_letters(text: str) -> str:
    """Expand a rendered word such as "b^3 a^-1 b" into a letter string."""
    if text == "1":
        return ""
    out = []
    for token in text.split():
        g, _, e = token.partition("^")
        e = int(e) if e else 1
        out.append((g if e > 0 else g.upper()) * abs(e))
    return "".join(out)


def entries_value(entries) -> Fraction:
    """Value of [n0; n1, ..., nk] as an exact Fraction."""
    value = Fraction(entries[-1])
    for n in reversed(entries[:-1]):
        value = n + 1 / value
    return value


def phi(n: int) -> int:
    """Euler's totient by gcd."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def shell(bound: int) -> list[tuple[int, int]]:
    """Every index p/q with |p| + q <= bound, infinity (1, 0) included."""
    return [(1, 0)] + [
        (p, q)
        for q in range(1, bound + 1)
        for p in range(-(bound - q), bound - q + 1)
        if gcd(abs(p), q) == 1
    ]


def shell_count(bound: int) -> int:
    """The number of indices in the shell, counted directly."""
    return len(shell(bound))


def positive_count(bound: int) -> int:
    """Indices p/q with p, q >= 1 and p + q <= bound, counted directly."""
    return sum(
        1
        for q in range(1, bound)
        for p in range(1, bound - q + 1)
        if gcd(p, q) == 1
    )
