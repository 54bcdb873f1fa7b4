"""Palindromic primitive words in the rank-2 free group, indexed by ℚ ∪ {∞}.

Every extended rational p/q in lowest terms names one distinguished
primitive word over two generators.  The package builds each word with one
walk down the continued fraction of the index, reading each block's
product order off the parity of the indices.  A palindrome-aware stepping
machine, closed forms for integer and reciprocal indices, independent
oracles (the literal parent-product recursion on the Farey tree among
them) and exhaustive cross-checks tie the routes together.
"""

from .enumeration import (
    MODES,
    count_ewords_of_length,
    e_word,
    enumerate_ewords,
    rational_indices,
)
from .farey import (
    INFINITY,
    ZERO,
    ContinuedFraction,
    ExtRational,
    farey_level,
    parents,
    parse_rational,
    to_continued_fraction,
)
from .word import FreeWord

# Index helpers outside the production API, still importable from here.
from .enumeration import neighbor_pairs
from .farey import evaluate_entries, farey_sum, from_continued_fraction
from .farey import is_farey_neighbor, normalize, parse_continued_fraction

# The stepping machine, and verify's closed forms, oracles, parity tables
# and sweep, load on first use (PEP 562): only `eword trace`, `eword verify`
# and checking code need them.  Each module is served under its own name too.
_LAZY = dict.fromkeys(
    """stepper ESequence GeneratorPair StepTrace run_esequence run_preserving step
    StepRecord initial_pair""".split(),
    "stepper",
) | dict.fromkeys(
    """verify SweepReport sweep EXCLUDED_ROWS PARITY_ROWS ShapeMismatch SweepCheck
    SweepFailure child_word closed_form_stop exponent_form_check e_word_integer
    e_word_reciprocal sign_rule canonical_sequences matches_excluded_row
    oracle_e_word oracle_parents parity_pattern recursion_call_count
    table_sequences""".split(),
    "verify",
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__() -> list[str]:
    # the names eager imports of stepper and verify would show, and no more
    hidden = {"_LAZY", "__getattr__", "__dir__"}
    return sorted({*globals(), *_LAZY} - hidden)


__version__ = "0.1.0"

__all__ = [
    "ContinuedFraction",
    "ESequence",
    "ExtRational",
    "FreeWord",
    "GeneratorPair",
    "INFINITY",
    "MODES",
    "StepTrace",
    "SweepReport",
    "ZERO",
    "count_ewords_of_length",
    "e_word",
    "enumerate_ewords",
    "farey_level",
    "parents",
    "parse_rational",
    "rational_indices",
    "run_esequence",
    "run_preserving",
    "step",
    "sweep",
    "to_continued_fraction",
]
