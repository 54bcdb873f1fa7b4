"""Brute-force models used only by the tests.

These deliberately avoid the production code paths: levels come from
literally growing the mediant tree row by row, word algebra is
cross-checked against flat ±1 letter lists with stack reduction, and
words come letter by letter from the rotated-Christoffel formula.
"""

from ewords import INFINITY, ZERO, ExtRational


def bfs_levels(max_level: int) -> dict[ExtRational, int]:
    """First-appearance depth of every value in the mediant iteration.

    Row zero is [0/1, 1/0]; each later row inserts the mediant between
    every adjacent pair.  Only the nonnegative side exists here; negative
    levels are defined by mirror symmetry.
    """
    row = [ZERO, INFINITY]
    levels = {ZERO: 0, INFINITY: 0}
    for depth in range(1, max_level + 1):
        new_row = [row[0]]
        for left, right in zip(row, row[1:]):
            mediant = ExtRational(left.p + right.p, left.q + right.q)
            levels.setdefault(mediant, depth)
            new_row.extend([mediant, right])
        row = new_row
    return levels


def letters(word) -> list[tuple[str, int]]:
    """FreeWord flattened to (generator, ±1) letters."""
    out = []
    for g, e in word.runs:
        out.extend([(g, 1 if e > 0 else -1)] * abs(e))
    return out


def reduce_letters(seq) -> list[tuple[str, int]]:
    """Stack reduction of a letter list: adjacent inverses cancel."""
    stack: list[tuple[str, int]] = []
    for g, s in seq:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    return stack


def christoffel_letters(p: int, q: int) -> list[tuple[str, int]]:
    """The word at p/q (q >= 1, coprime) as ±1 letters, from a closed formula.

    E_{p/q} is a rotation of the lower Christoffel word of slope |p|/q.
    With n = |p| + q, rotate by r = n/2 when pq is odd and by the inverse
    of 2q mod n when pq is even (n is then odd).  Letter i is b exactly
    when floor((j+1)|p|/n) > floor(j|p|/n) for j = (i + r) mod n, else a,
    or a^-1 when p < 0.
    """
    m, n = abs(p), abs(p) + q
    r = n // 2 if p * q % 2 else pow(2 * q, -1, n)
    a = ("a", -1 if p < 0 else 1)
    out = []
    for i in range(n):
        j = (i + r) % n
        out.append(("b", 1) if (j + 1) * m // n > j * m // n else a)
    return out
