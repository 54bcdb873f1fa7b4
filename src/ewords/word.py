"""Reduced words in the rank-2 free group on {a, b}.

A word is a tuple of (letter, exponent) runs with nonzero exponents and no
two adjacent runs on the same letter; the empty tuple is the identity.
Words are plain frozen classes and every operation returns a new word.
Validation happens in ``FreeWord(...)``, which ``from_runs`` and ``parse``
call; a product of valid words skips it, copying their runs once and merging
only at the seam, and powers are built by repeated squaring.

Two renderings exist: the internal {a, b} alphabet, and an {A, B} view
related by a = A^-1 and b = B.  Parsing and formatting translate between
them; the stored runs always use {a, b}.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterable

from .farey import _Frozen

GENERATORS = ("a", "b")
ALPHABETS = ("ab", "AB")

_EXPONENT_RE = re.compile(r"[+-]?\d+")


def _check_alphabet(alphabet: str) -> tuple[str, str]:
    if alphabet not in ALPHABETS:
        raise ValueError(f"alphabet must be one of {ALPHABETS}, got {alphabet!r}")
    return ("a", "b") if alphabet == "ab" else ("A", "B")


class FreeWord(_Frozen):
    __match_args__ = ("runs",)

    def __init__(self, runs: tuple[tuple[str, int], ...] = ()) -> None:
        object.__setattr__(self, "runs", tuple(tuple(r) for r in runs))
        prev = None
        for g, e in self.runs:
            if g not in GENERATORS:
                raise ValueError(f"unknown generator {g!r}")
            if type(e) is not int or e == 0:
                raise ValueError(f"run exponent must be a nonzero integer: {e!r}")
            if g == prev:
                raise ValueError("word is not reduced: adjacent runs share a letter")
            prev = g

    def __eq__(self, other: object) -> bool:
        # the 1-tuples keep the identity shortcut of tuple comparison
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.runs,) == (other.runs,)

    def __hash__(self) -> int:
        return hash((self.runs,))

    @staticmethod
    def _trusted(runs: tuple[tuple[str, int], ...]) -> "FreeWord":
        # For runs already reduced and valid: skips __init__.
        w = object.__new__(FreeWord)
        object.__setattr__(w, "runs", runs)
        return w

    @classmethod
    def identity(cls) -> "FreeWord":
        return cls(())

    @classmethod
    def letter(cls, g: str, exponent: int = 1) -> "FreeWord":
        return cls(((g, exponent),))

    @classmethod
    def from_runs(cls, pairs: Iterable[tuple[str, int]]) -> "FreeWord":
        """Build a word from arbitrary runs, merging and cancelling as needed."""
        out: list[tuple[str, int]] = []
        for g, e in pairs:
            if out and out[-1][0] == g:
                e += out.pop()[1]
            if e:
                out.append((g, e))
        return cls(tuple(out))

    @property
    def is_identity(self) -> bool:
        return not self.runs

    @property
    def length(self) -> int:
        return sum(abs(e) for _, e in self.runs)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        a, b = self.runs, other.runs
        i, j = len(a), 0
        while i and j < len(b) and a[i - 1][0] == b[j][0]:
            if e := a[i - 1][1] + b[j][1]:
                return FreeWord._trusted(a[: i - 1] + ((b[j][0], e),) + b[j + 1 :])
            i, j = i - 1, j + 1
        return FreeWord._trusted(a[:i] + b[j:])

    def __pow__(self, n: int) -> "FreeWord":
        if n < 0:
            return self.inverse() ** (-n)
        out, base = FreeWord._trusted(()), self
        while n:
            if n & 1:
                out = out * base
            if n := n >> 1:
                base = base * base
        return out

    def inverse(self) -> "FreeWord":
        return FreeWord._trusted(tuple((g, -e) for g, e in reversed(self.runs)))

    def __invert__(self) -> "FreeWord":
        return self.inverse()

    def reverse(self) -> "FreeWord":
        """The word read back to front; exponents keep their signs."""
        return FreeWord._trusted(self.runs[::-1])

    def is_palindrome(self) -> bool:
        return self.runs == self.runs[::-1]

    def exponent_sum(self, g: str) -> int:
        # runs alternate letters, so g's runs are every other one
        start = 0 if self.runs and self.runs[0][0] == g else 1
        return sum(map(itemgetter(1), self.runs[start::2])) if g in GENERATORS else 0

    def factor_count(self, g: str) -> int:
        """Number of occurrences of g or its inverse as letters."""
        return sum(abs(e) for gg, e in self.runs if gg == g)

    @classmethod
    def parse(cls, text: str, alphabet: str = "ab") -> "FreeWord":
        """Read letters with optional ^exponent, juxtaposed or spaced."""
        la, lb = _check_alphabet(alphabet)
        if text.strip() == "1":
            return cls.identity()
        runs: list[tuple[str, int]] = []
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c == la:
                g = "a"
            elif c == lb:
                g = "b"
            else:
                raise ValueError(
                    f"unexpected character {c!r} at position {i}; expected {la!r} or {lb!r}"
                )
            i += 1
            e = 1
            if i < len(text) and text[i] == "^":
                i += 1
                m = _EXPONENT_RE.match(text, i)
                if m is None:
                    raise ValueError(f"missing exponent after '^' at position {i}")
                e = int(m.group())
                if e == 0:
                    raise ValueError(f"zero exponent at position {i}")
                i = m.end()
            if g == "a" and alphabet == "AB":
                e = -e
            runs.append((g, e))
        return cls.from_runs(runs)

    def format(self, alphabet: str = "ab") -> str:
        """Render as space-separated tokens; '^' appears only when needed.

        The text holds only the alphabet's two letters, digits, '^', '-'
        and spaces, or is "1" for the identity: none of them is a character
        JSON escapes, which the CLI's trace JSON relies on.
        """
        la, lb = _check_alphabet(alphabet)
        if self.is_identity:
            return "1"
        sa = -1 if alphabet == "AB" else 1
        return " ".join(
            [
                (la if sa * e == 1 else f"{la}^{sa * e}")
                if g == "a"
                else (lb if e == 1 else f"{lb}^{e}")
                for g, e in self.runs
            ]
        )

    def to_pairs(self, alphabet: str = "ab") -> list[list]:
        """[letter, exponent] pairs in the requested alphabet (JSON view)."""
        la, lb = _check_alphabet(alphabet)
        sa = -1 if alphabet == "AB" else 1
        return [[la, sa * e] if g == "a" else [lb, e] for g, e in self.runs]

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"FreeWord({self.format()!r})"
