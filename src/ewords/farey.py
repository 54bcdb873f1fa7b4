"""Exact arithmetic on the extended rationals and their mediant structure.

Values live in Q ∪ {∞} and are kept in lowest terms with a nonnegative
denominator.  ∞ is represented uniquely as 1/0 and compares greater than
every finite value; 0 is 0/1.  On top of the raw values the module knows
the Farey-neighbor relation, mediants, parents (the two lower-level
neighbors a value is the mediant of), continued fractions in canonical
form, and the level of a value in the mediant tree.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Iterable


class _Frozen:
    """Base of the value types: ==, hash and repr over the fields named in
    __match_args__, and no assignment.  __init__ stores the fields past the
    frozen __setattr__, with object.__setattr__ or through __dict__."""

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__match_args__, self._fields()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@functools.total_ordering
class ExtRational(_Frozen):
    """p/q in lowest terms.  q == 0 encodes ∞ and is only legal as 1/0."""

    __match_args__ = ("p", "q")

    def __init__(self, p: int, q: int = 1) -> None:
        if type(p) is not int or type(q) is not int:
            raise ValueError(f"p and q must be integers: {p!r}/{q!r}")
        if q < 0:
            raise ValueError(f"denominator must be nonnegative: {p}/{q}")
        if q == 0 and p != 1:
            raise ValueError(f"infinity must be written 1/0: {p}/0")
        if math.gcd(abs(p), q) != 1:
            raise ValueError(f"not in lowest terms: {p}/{q}")
        self.__dict__.update(p=p, q=q)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q)

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    @property
    def is_negative(self) -> bool:
        return self.p < 0

    @property
    def is_orphan(self) -> bool:
        """True for 0/1 and 1/0, the two values with no parents."""
        return self.q == 0 or (self.p == 0 and self.q == 1)

    def __neg__(self) -> "ExtRational":
        return self if self.is_infinite else ExtRational(-self.p, self.q)

    def __lt__(self, other: "ExtRational") -> bool:
        if not isinstance(other, ExtRational):
            return NotImplemented
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self.p * other.q < other.p * self.q

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


ZERO = ExtRational(0, 1)
INFINITY = ExtRational(1, 0)


def normalize(p: int, q: int) -> ExtRational:
    """Reduce p/q to the canonical representative.

    Any p/0 with p != 0 collapses to 1/0; a negative denominator moves its
    sign to the numerator.  0/0 is rejected.
    """
    if p == 0 and q == 0:
        raise ValueError("0/0 is not an extended rational")
    if q < 0:
        p, q = -p, -q
    if q == 0:
        return INFINITY
    g = math.gcd(abs(p), q)
    return ExtRational(p // g, q // g)


_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:\s*/\s*([+-]?\d+))?")


def parse_rational(text: str) -> ExtRational:
    """Read "p/q", a bare integer, or "inf"."""
    t = text.strip()
    if t.lower() == "inf":
        return INFINITY
    m = _RATIONAL_RE.fullmatch(t)
    if m is None:
        raise ValueError(f"cannot parse rational {text!r}")
    p = int(m.group(1))
    q = int(m.group(2)) if m.group(2) is not None else 1
    return normalize(p, q)


def is_farey_neighbor(x: ExtRational, y: ExtRational) -> bool:
    """True iff |ps - rq| == 1 for x = p/q and y = r/s."""
    return abs(x.p * y.q - y.p * x.q) == 1


def farey_sum(x: ExtRational, y: ExtRational) -> ExtRational:
    """Mediant (p+r)/(q+s) of two Farey neighbors.

    The result is automatically in lowest terms because the neighbor
    determinant divides any common factor.
    """
    if not is_farey_neighbor(x, y):
        raise ValueError(f"{x} and {y} are not Farey neighbors")
    return ExtRational(x.p + y.p, x.q + y.q)


def _mediant(x: ExtRational, y: ExtRational) -> ExtRational:
    # farey_sum for x, y already known to be neighbors: skips both checks
    m = object.__new__(ExtRational)
    m.__dict__.update(p=x.p + y.p, q=x.q + y.q)
    return m


class ContinuedFraction(_Frozen):
    """Canonical continued fraction [a0; a1, ..., ak] of a nonnegative rational.

    a0 >= 0, interior entries >= 1, and the last entry >= 2 whenever there
    is more than one, which makes the expansion unique.
    """

    __match_args__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        object.__setattr__(self, "entries", tuple(entries))
        if not self.entries:
            raise ValueError("continued fraction needs at least one entry")
        if self.entries[0] < 0:
            raise ValueError(f"leading entry must be nonnegative: {self.entries[0]}")
        if any(a < 1 for a in self.entries[1:]):
            raise ValueError(f"entries after the first must be positive: {list(self.entries)}")
        if len(self.entries) > 1 and self.entries[-1] < 2:
            raise ValueError("canonical form requires the last entry to be at least 2")

    def __str__(self) -> str:
        return format_entries(self.entries)


def format_entries(entries: Iterable[int]) -> str:
    seq = list(entries)
    return f"[{seq[0]};{','.join(str(a) for a in seq[1:])}]"


def parse_bracketed_entries(text: str) -> list[int]:
    """Read a "[n0;n1,...,nk]" entry list, whitespace tolerant.

    Shared between continued fractions and stepping sequences; validation
    beyond basic shape is left to the caller.
    """
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"entry list must be bracketed: {text!r}")
    inner = t[1:-1]
    head, _, tail = inner.partition(";")
    try:
        entries = [int(head.strip())]
        tail = tail.strip()
        if tail:
            entries.extend(int(tok.strip()) for tok in tail.split(","))
    except ValueError:
        raise ValueError(f"cannot parse entry list {text!r}") from None
    return entries


def parse_continued_fraction(text: str) -> ContinuedFraction:
    """Read "[a0;a1,...,ak]", folding a trailing 1 into canonical form."""
    entries = parse_bracketed_entries(text)
    if len(entries) > 1 and entries[-1] == 1:
        entries = entries[:-2] + [entries[-2] + 1]
    return ContinuedFraction(tuple(entries))


def to_continued_fraction(x: ExtRational) -> ContinuedFraction:
    """Canonical expansion of a finite nonnegative value."""
    if x.is_infinite or x.is_negative:
        raise ValueError(f"continued fractions cover finite nonnegative values only: {x}")
    entries = []
    p, q = x.p, x.q
    while q:
        a, r = divmod(p, q)
        entries.append(a)
        p, q = q, r
    return ContinuedFraction(tuple(entries))


def evaluate_entries(entries: Iterable[int]) -> ExtRational:
    """Value of an entry list: the end of its bracket that the last entry moved."""
    seq = list(entries)
    if not seq:
        raise ValueError("empty entry list has no value")
    return ExtRational(*_bracket(seq)[1 - len(seq) % 2])


def from_continued_fraction(cf: ContinuedFraction) -> ExtRational:
    return evaluate_entries(cf.entries)


def _bracket(entries: Iterable[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Stern-Brocot bracket (lower, upper) after walking an entry list.

    From (0/1, 1/0), an entry n at an even position moves the lower end n
    mediants up, at an odd position the upper end n mediants down.  The
    end moved last is the list's value.  The ends come back as raw
    (numerator, denominator) pairs, so that a caller validates only the
    ends it uses.
    """
    (p, q), (r, s) = (0, 1), (1, 0)
    for i, n in enumerate(entries):
        if i % 2:
            r, s = r + n * p, s + n * q
        else:
            p, q = p + n * r, q + n * s
    return (p, q), (r, s)


def _upper_first(p: int, q: int) -> bool:
    """The product-order rule: the word at the mediant p/q of two
    neighbors is the upper neighbor's word times the lower's when pq is
    odd, the lower's times the upper's when pq is even."""
    return p & q & 1 == 1


def parents(x: ExtRational) -> tuple[ExtRational, ExtRational]:
    """The two lower-level Farey neighbors whose mediant rebuilds x.

    Returned ordered (lower, upper): the bracket of x's continued fraction
    with its last entry lowered by one.  For positive x both bounds are
    sharp: lower < x < upper with ∞ greatest.  Negative values mirror the
    positive ones, which puts ∞ in the lower slot for negative integers:
    the parents of -3 are (1/0, -2/1).
    """
    if x.is_orphan:
        raise ValueError(f"orphan has no parents: {x}")
    if x.is_negative:
        lo, up = parents(-x)
        return (-up, -lo)
    entries = to_continued_fraction(x).entries
    lo, up = _bracket(entries[:-1] + (entries[-1] - 1,))
    return ExtRational(*lo), ExtRational(*up)


def farey_level(x: ExtRational) -> int:
    """Depth of x in the mediant tree; the two orphans sit at level 0.

    Equals the entry sum of the canonical continued fraction, and is
    mirror symmetric: a negative value sits as deep as its absolute value.
    """
    if x.is_orphan:
        return 0
    if x.is_negative:
        return farey_level(-x)
    return sum(to_continued_fraction(x).entries)
