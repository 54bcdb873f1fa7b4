"""The seven value types against frozen-dataclass twins.

The twins below are the types as frozen dataclasses, with the same names
and fields.  On drawn field values each real type must show the same repr,
hash, equality and match args as its twin, survive pickle and deepcopy,
and refuse assignment.
"""

import copy
import fractions
import pickle
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ewords
from ewords import normalize, parents, run_esequence, to_continued_fraction

from test_word import words


@dataclass(frozen=True)
class ExtRational:
    p: int
    q: int = 1


@dataclass(frozen=True)
class ContinuedFraction:
    entries: tuple


@dataclass(frozen=True)
class FreeWord:
    runs: tuple = ()

    def __repr__(self):
        # the real FreeWord writes its own repr, from its text
        return f"FreeWord({ewords.FreeWord(self.runs).format()!r})"


@dataclass(frozen=True)
class ESequence:
    entries: tuple


@dataclass(frozen=True)
class GeneratorPair:
    left: object
    right: object
    left_index: object
    right_index: object


@dataclass(frozen=True)
class StepRecord:
    preserved: str
    pair: object


@dataclass(frozen=True)
class StepTrace:
    sequence: object
    initial: object
    steps: tuple
    _by_machine: bool = field(default=False, init=False, repr=False, compare=False)


TWINS = {
    cls.__name__: cls
    for cls in (ExtRational, ContinuedFraction, FreeWord, ESequence)
    + (GeneratorPair, StepRecord, StepTrace)
}

rationals = st.builds(normalize, st.integers(-300, 300), st.integers(-300, 300).filter(bool))
nonnegative = st.builds(normalize, st.integers(0, 300), st.integers(1, 300))
# with or without a leading 0
sequences = st.builds(
    lambda lead, rest: ewords.ESequence((*lead, *rest)),
    st.sampled_from([(), (0,)]),
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
)
# a positive value's parents are ordered Farey neighbors
pairs = st.builds(
    lambda x, u, v: (u, v, *parents(x)), rationals.filter(lambda x: x.p > 0), words, words
)

# the field values of each type, as positional arguments
FIELDS = {
    "ExtRational": st.one_of(st.just(ewords.INFINITY), rationals).map(lambda x: (x.p, x.q)),
    "ContinuedFraction": nonnegative.map(lambda x: (to_continued_fraction(x).entries,)),
    "FreeWord": words.map(lambda w: (w.runs,)),
    "ESequence": sequences.map(lambda s: (s.entries,)),
    "GeneratorPair": pairs,
    "StepRecord": st.tuples(
        st.sampled_from(["left", "right"]), pairs.map(lambda f: ewords.GeneratorPair(*f))
    ),
    "StepTrace": sequences.map(run_esequence).map(lambda t: (t.sequence, t.initial, t.steps)),
}
# values of other types, as each side sees them
OTHERS = [None, 0, "b", (1, 2), fractions.Fraction(1, 2)]
STRANGERS = [("ExtRational", (1, 2)), ("FreeWord", ((("a", 1),),)), ("ESequence", ((1, 2),))]


@pytest.mark.parametrize("name", list(TWINS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_behaves_as_its_dataclass_twin(name, data):
    real, twin = getattr(ewords, name), TWINS[name]
    assert real.__match_args__ == twin.__match_args__
    a, b = data.draw(FIELDS[name]), data.draw(FIELDS[name])
    ra, rb, ta, tb = real(*a), real(*b), twin(*a), twin(*b)
    assert repr(ra) == repr(ta) and repr(rb) == repr(tb)
    assert hash(ra) == hash(ta) and hash(rb) == hash(tb)
    real_eq = [ra == rb, ra != rb, ra == real(*a), ra != real(*a)]
    assert real_eq == [ta == tb, ta != tb, ta == twin(*a), ta != twin(*a)]
    assert (ra == ta, ta == ra, ra != ta) == (False, False, True)
    for other in OTHERS:
        assert (ra == other, other == ra, ra != other) == (ta == other, other == ta, ta != other)
    for kind, args in STRANGERS:
        r, t = getattr(ewords, kind)(*args), TWINS[kind](*args)
        assert (ra == r, r == ra) == (ta == t, t == ta)


def test_machine_trace_matches_its_twin():
    # run_esequence marks its trace as the machine's; the mark is no field
    seq = ewords.ESequence.parse("[3;2,1,4]")
    t = run_esequence(seq)
    twin = StepTrace(t.sequence, t.initial, t.steps)
    object.__setattr__(twin, "_by_machine", True)
    built = ewords.StepTrace(t.sequence, t.initial, t.steps)
    assert (t._by_machine, built._by_machine) == (True, False)
    assert t == built and hash(t) == hash(built) == hash(twin) and repr(t) == repr(twin)


@pytest.mark.parametrize("name", list(TWINS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_copies_and_immutability(name, data):
    real = getattr(ewords, name)
    values = [real(*data.draw(FIELDS[name]))]
    if name == "StepTrace":  # a machine trace keeps its mark through a copy
        values.append(run_esequence(values[0].sequence))
    for value in values:
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies = [pickle.loads(pickle.dumps(value, proto)) for proto in protocols]
        copies += [copy.copy(value), copy.deepcopy(value)]
        for c in copies:
            assert type(c) is real and c == value and hash(c) == hash(value)
            assert vars(c) == vars(value) and repr(c) == repr(value)
        first = real.__match_args__[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
            setattr(value, first, getattr(value, first))
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(AttributeError):
            delattr(value, first)
        assert vars(value) == vars(copies[-1])
