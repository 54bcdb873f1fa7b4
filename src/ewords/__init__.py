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
from .stepper import (
    ESequence,
    GeneratorPair,
    StepTrace,
    run_esequence,
    run_preserving,
    step,
)
from .word import FreeWord

# Outside the production API but still importable from here: the closed
# forms, index helpers, oracles, parity tables and sweep parts.
from .enumeration import PARITY_ROWS, neighbor_pairs
from .farey import evaluate_entries, farey_sum, from_continued_fraction
from .farey import is_farey_neighbor, normalize, parse_continued_fraction
from .stepper import StepRecord, initial_pair

# The oracles and the sweep load on first use (PEP 562): only `eword verify`
# and checking code need them.
_FROM_VERIFY = frozenset(
    """SweepReport sweep EXCLUDED_ROWS ShapeMismatch SweepCheck SweepFailure
    child_word closed_form_stop exponent_form_check e_word_integer
    e_word_reciprocal sign_rule canonical_sequences matches_excluded_row
    oracle_e_word oracle_parents parity_pattern recursion_call_count
    table_sequences""".split()
)


def __getattr__(name: str):
    if name != "verify" and name not in _FROM_VERIFY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    verify = import_module(".verify", __name__)
    return verify if name == "verify" else getattr(verify, name)


def __dir__() -> list[str]:
    # the names an eager import of verify would show, and no more
    hidden = {"_FROM_VERIFY", "__getattr__", "__dir__"}
    return sorted({*globals(), *_FROM_VERIFY, "verify"} - hidden)


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
