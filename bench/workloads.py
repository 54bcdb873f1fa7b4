"""The three workloads: their seeded inputs, operations, checks and layer spans.

A workload hands out samples.  A sample is a short list of operations that
is timed as one unit, after a gc.collect().  Every output is checked
against oracle.py and against laws the words must obey, outside the timed
region.  On deep and trace each operation gets a fresh input, so no input
repeats within a run.  Shell's whole-shell calls have few distinct inputs,
so each of its samples runs in a child forked from the benchmark process
and no input repeats within a process.

In a traced run every other sample is traced: its calls into the package
are wrapped in spans, and after the sample some layer work is measured
again apart (shell's per-index calls, the stepper alone).  tracemalloc
peaks are taken after the last sample.  The untraced samples between the
traced ones give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import pickle
import sys
import traceback
import tracemalloc
from random import Random
from time import perf_counter
from typing import NamedTuple

from ewords import (
    ESequence,
    ExtRational,
    count_ewords_of_length,
    e_word,
    enumerate_ewords,
    farey_level,
    oracle_e_word,
    oracle_parents,
    parents,
    run_esequence,
    sweep,
    to_continued_fraction,
)
from ewords import cli

from oracle import (
    christoffel_word,
    entries_value,
    phi,
    positive_count,
    runs_to_letters,
    shell,
    shell_count,
    text_to_letters,
)

# Traced samples whose work counts and allocation peaks are reported.  A
# fixed number keeps the counts exact for a seed whatever the host speed.
COUNTED_SAMPLES = 6


class Spans:
    """Spans and counts of a traced run, kept in memory until the end.

    A span is [op, name, parent, start, end]; op identifies the operation
    (the request) and parent is the index of the span that caused it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.pending: list[tuple] = []

    def start(self, op: int, name: str, parent: int | None = None) -> int:
        self.spans.append([op, name, parent, perf_counter(), None])
        return len(self.spans) - 1

    def end(self, sid: int) -> None:
        self.spans[sid][4] = perf_counter()

    def call(self, op: int, name: str, parent: int | None, fn, *args):
        sid = self.start(op, name, parent)
        out = fn(*args)
        self.end(sid)
        return out

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, fn, *args) -> None:
        """Queue a call whose tracemalloc peak is measured after the timed
        samples, so that tracemalloc does not disturb them."""
        self.pending.append((name, fn, args))

    def measure_peaks(self) -> None:
        """Run the queued calls; keep the largest peak per name, in MB."""
        for name, fn, args in self.pending:
            gc.collect()
            tracemalloc.start()
            try:
                fn(*args)
                mb = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            self.peaks[name] = max(self.peaks.get(name, 0.0), mb)
        self.pending.clear()


def time_ops(workload, ops: list[tuple], rec: Spans | None, first: int):
    """Time the operations of one sample as one unit, after a gc.collect().

    Returns the seconds taken and, per operation, its output or the
    exception it raised.  Operation first + i is ops[i].
    """
    outs = []
    gc.collect()
    t0 = perf_counter()
    for i, args in enumerate(ops):
        try:
            outs.append(workload.run(*args, rec, first + i))
        except Exception as exc:  # counted as a failed operation
            outs.append(exc)
    return perf_counter() - t0, outs


def in_child(fn):
    """Return fn() computed in a child forked from this process.

    The result comes back pickled through a pipe; whatever fn leaves in
    the package's memory ends with the child, which is waited for.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                payload = ("ok", fn())
            except Exception:
                payload = ("error", traceback.format_exc())
            with os.fdopen(w, "wb") as f:
                pickle.dump(payload, f)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as f:
            data = f.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"forked child {pid} ended with status {status}")
    kind, value = pickle.loads(data)
    if kind != "ok":
        raise RuntimeError(f"forked child {pid} raised:\n{value}")
    return value


def _word_errors(p: int, q: int, letters: str) -> list[str]:
    """Laws and oracle for the word at p/q, given as a letter string."""
    errors = []
    bs = letters.count("b")
    if bs != abs(p) or len(letters) - bs != q:
        errors.append(f"{p}/{q}: {bs} b-letters and {len(letters) - bs} a-letters")
    if (letters == letters[::-1]) != ((p * q) % 2 == 0):
        errors.append(f"{p}/{q}: palindrome is {letters == letters[::-1]}")
    if letters != christoffel_word(p, q):
        errors.append(f"{p}/{q}: word differs from the Christoffel oracle")
    return errors


# ---------------------------------------------------------------- deep

# One sample is one operation per slot: (shape, sign, mode).  "lead" is
# [n0; t] with a long first entry, so orphan mode walks hundreds of
# integer ancestors and shortcut mode jumps them; "inner" ([a0; n1, t])
# and "below" ([0; a1, n2, t]) put the long entry inside, where both
# modes walk it and the words grow to hundreds of runs.  Levels stay
# below the depth where orphan mode overflows the stack today (991 for
# n/1, 496 for -n/1).
DEEP_SLOTS = (
    ("lead", 1, "orphan"),
    ("lead", 1, "shortcut"),
    ("lead", -1, "orphan"),
    ("lead", -1, "shortcut"),
    ("inner", 1, "orphan"),
    ("inner", -1, "shortcut"),
    ("below", 1, "shortcut"),
    ("below", -1, "orphan"),
)
_OTHER_MODE = {"orphan": "shortcut", "shortcut": "orphan"}


# Every canonical tail of up to three entries from 1..5 whose value has a
# numerator of at most 8; with them no word passes 5,623 letters.
DEEP_TAILS = (
    [2], [3], [4], [5], [1, 2], [1, 3], [1, 4], [1, 5], [2, 2], [2, 3], [3, 2],
    [1, 1, 2], [1, 1, 3], [1, 2, 2], [2, 1, 2],
)


def _deep_entries(rng: Random, shape: str, sign: int) -> list[int]:
    tail = list(rng.choice(DEEP_TAILS))
    if shape == "lead":
        return [rng.randint(150, 700 if sign > 0 else 440)] + tail
    head = [rng.randint(1, 4)] if shape == "inner" else [0, rng.randint(1, 4)]
    return head + [rng.randint(100, 140)] + tail


def fresh(draw, seen: set):
    """A value from draw() not in seen, which it joins."""
    for _ in range(10_000):
        value = draw()
        if value not in seen:
            seen.add(value)
            return value
    raise RuntimeError("the workload's input space is used up")


class Deep:
    name = "deep"
    timed = time_ops

    def __init__(self, rng: Random, seconds: float) -> None:
        self.rng = rng
        self.seen: set[tuple[int, int]] = set()

    def samples(self):
        while True:
            sample = []
            for shape, sign, mode in DEEP_SLOTS:

                def draw():
                    v = entries_value(_deep_entries(self.rng, shape, sign))
                    return sign * v.numerator, v.denominator

                sample.append((ExtRational(*fresh(draw, self.seen)), mode))
            yield sample

    def run(self, x: ExtRational, mode: str, rec: Spans | None, op: int):
        if rec is None:
            w = e_word(x, mode)
            return w, w.format()
        parent = rec.start(op, "deep.op")
        w = rec.call(op, "enumeration.e_word", parent, e_word, x, mode)
        text = rec.call(op, "word.format", parent, w.format)
        rec.end(parent)
        return w, text

    def check(self, x: ExtRational, mode: str, out) -> list[str]:
        w, text = out
        letters = runs_to_letters(w.runs)
        errors = _word_errors(x.p, x.q, letters)
        if text_to_letters(text) != letters:
            errors.append(f"{x}: format() does not spell the word")
        if e_word(x, _OTHER_MODE[mode]).runs != w.runs:
            errors.append(f"{x}: orphan and shortcut words differ")
        return errors

    def layers(self, x: ExtRational, mode: str, out, rec: Spans, op: int, counted: bool) -> None:
        if counted:
            w = out[0]
            rec.count("word.runs_out", len(w.runs))
            rec.count("word.letters_out", sum(abs(e) for _, e in w.runs))
            rec.peak("enumeration.alloc_peak_mb", e_word, x, mode)


# ---------------------------------------------------------------- trace


def _steps_cost(entries: list[int]) -> int:
    """Summed min(p, q) of both words over every step.  A word at p/q has
    about 2 min(p, q) runs, so this tracks the runs the stepper multiplies
    and the CLI renders."""
    lo, up = (0, 1), (1, 0)
    cost = 0
    for i, n in enumerate(entries):
        for _ in range(n):
            m = (lo[0] + up[0], lo[1] + up[1])
            if i % 2 == 0:
                lo = m
            else:
                up = m
            cost += min(lo) + min(up)
    return cost


# Sequences are drawn until the final word has LETTERS letters and the
# step cost lies in COST, which keeps one operation near 25 ms here
# whatever its shape.
TRACE_LETTERS = (10_000, 100_000)
TRACE_COST = (10_000, 12_500)


def _trace_entries(rng: Random) -> list[int]:
    while True:
        k = rng.randint(5, 9)
        entries = [rng.randint(1, 3) for _ in range(k + 1)]
        if rng.random() < 0.3:
            entries[0] = 0
        for pos in rng.sample(range(k + 1), 2):
            entries[pos] = rng.randint(8, 40)
        entries[-1] = max(entries[-1], 2)
        v = entries_value(entries)
        if not TRACE_LETTERS[0] <= v.numerator + v.denominator <= TRACE_LETTERS[1]:
            continue
        if TRACE_COST[0] <= _steps_cost(entries) < TRACE_COST[1]:
            return entries


def _index(text: str) -> tuple[int, int]:
    p, q = text.split("/")
    return int(p), int(q)


class Trace:
    name = "trace"
    timed = time_ops

    def __init__(self, rng: Random, seconds: float) -> None:
        self.rng = rng
        self.seen: set[tuple[int, ...]] = set()

    def samples(self):
        while True:
            sample = []
            for fmt in ("plain", "json"):
                entries = fresh(lambda: tuple(_trace_entries(self.rng)), self.seen)
                text = f"[{entries[0]};{','.join(map(str, entries[1:]))}]"
                sample.append((text, fmt))
            yield sample

    def run(self, seq: str, fmt: str, rec: Spans | None, op: int):
        buf = io.StringIO()
        argv = ["trace", seq, "--format", fmt]
        with contextlib.redirect_stdout(buf):
            if rec is None:
                code = cli.main(argv)
            else:
                code = rec.call(op, "cli.main", None, cli.main, argv)
        return code, buf.getvalue()

    def check(self, seq: str, fmt: str, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"{seq}: exit code {code}"]
        entries = [int(t) for t in seq.strip("[]").replace(";", ",").split(",")]
        try:
            got = _parse_json(text) if fmt == "json" else _parse_plain(text)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"{seq} {fmt}: unreadable output ({exc})"]
        return _trace_errors(seq, entries, got)

    def layers(self, seq: str, fmt: str, out, rec: Spans, op: int, counted: bool) -> None:
        es = ESequence.parse(seq)
        trace = rec.call(op, "stepper.run_esequence", None, run_esequence, es)
        if counted:
            rec.count("stepper.steps", len(trace.steps))
            rec.count("cli.out_bytes", len(out[1].encode()))
            rec.peak("stepper.alloc_peak_mb", run_esequence, es)


def _parse_json(text: str) -> dict:
    d = json.loads(text)
    last = d["last_changed"]
    return {
        "steps": [
            (s["preserved"][0].upper(), _index(s["left_index"]), _index(s["right_index"]))
            for s in d["steps"]
        ],
        "final_words": (d["steps"][-1]["left"], d["steps"][-1]["right"]),
        "value": _index(d["value"]),
        "last_index": _index(last["index"]),
        "last_word": last["word"],
        "sums": (last["exponent_sums"]["a"], last["exponent_sums"]["b"]),
    }


def _parse_plain(text: str) -> dict:
    lines = text.splitlines()
    if lines[0] != "(a, b)":
        raise ValueError(f"first line {lines[0][:40]!r}")
    steps = []
    for line in lines[1:-4]:
        head, _, idx = line.rpartition("  [indices: ")
        pair, _, mark = head.rpartition("  [preserved: ")
        left, right = idx.rstrip("]").split(", ")
        steps.append((mark.rstrip("]"), _index(left), _index(right)))
    pair = lines[-5].removeprefix("→ (").rpartition(")  [preserved: ")[0]
    word_line = lines[-2].removeprefix("last changed: ")
    side_word, _, idx = word_line.rpartition("  [index ")
    sums = dict(kv.split("=") for kv in lines[-1].removeprefix("exponent sums: ").split())
    return {
        "steps": steps,
        "final_words": tuple(pair.split(", ")),
        "value": _index(lines[-4].removeprefix("value: ")),
        "last_index": _index(idx.rstrip("]")),
        "last_word": side_word.partition(" = ")[2],
        "sums": (int(sums["a"]), int(sums["b"])),
    }


def _trace_errors(seq: str, entries: list[int], got: dict) -> list[str]:
    errors = []
    steps = got["steps"]
    if len(steps) != sum(entries):
        errors.append(f"{seq}: {len(steps)} steps, expected {sum(entries)}")
    marks = [m for i, n in enumerate(entries) for m in ("R" if i % 2 == 0 else "L") * n]
    lo, up = (0, 1), (1, 0)
    for t, (mark, left, right) in enumerate(steps):
        m = (lo[0] + up[0], lo[1] + up[1])
        want = (lo, m) if mark == "L" else (m, up)
        if t < len(marks) and mark != marks[t]:
            errors.append(f"{seq}: step {t + 1} preserves {mark}, expected {marks[t]}")
        if (left, right) != want or abs(left[0] * right[1] - right[0] * left[1]) != 1:
            errors.append(f"{seq}: step {t + 1} indices {left}, {right} are not {want}")
            break
        lo, up = left, right
    v = entries_value(entries)
    value = (v.numerator, v.denominator)
    if got["value"] != value or got["last_index"] != value:
        errors.append(f"{seq}: value {got['value']}, last changed {got['last_index']}, expected {value}")
    letters = text_to_letters(got["last_word"])
    errors.extend(f"{seq}: last changed {e}" for e in _word_errors(*value, letters))
    if got["sums"] != (value[1], value[0]):
        errors.append(f"{seq}: exponent sums {got['sums']}")
    for idx, text in zip((lo, up), got["final_words"]):
        if text_to_letters(text) != christoffel_word(*idx):
            errors.append(f"{seq}: final word at {idx[0]}/{idx[1]} differs from the oracle")
    return errors


# ---------------------------------------------------------------- shell

# One sample is one round: the four whole-shell calls below, in an order
# drawn from the seed.  Every round makes the same calls, so rounds differ
# in time only by the host's speed, and the p90 over them stays at the
# host's slow speed.  A round takes about 0.15 s here, sweep
# about half of it.  Because the calls repeat, each round runs in a child
# forked from the benchmark process: what one round leaves in the
# package's memory never reaches the next, and a cache kept across calls
# is credited only for work shared inside a round.
SHELL_ROUND = (
    ("enumerate-orphan", 18),
    ("enumerate-shortcut", 21),
    ("count", 18),
    ("sweep", 11),
)

_SHELL_CALLS = {
    "enumerate-orphan": ("verify.enumerate_ewords", lambda b: enumerate_ewords(b, "orphan")),
    "enumerate-shortcut": ("verify.enumerate_ewords", lambda b: enumerate_ewords(b, "shortcut")),
    "count": ("verify.count_ewords_of_length", count_ewords_of_length),
    "sweep": ("verify.sweep", sweep),
}

_SWEEP_SHELL_CHECKS = ("word-vs-oracle", "mode-equivalence", "palindrome-parity", "length-law", "exponent-sums")
_SWEEP_POSITIVE_CHECKS = ("parents-vs-splitting-oracle", "parents-rebuild", "level-parent-recursion", "stepper-vs-enumeration")


class ShellResult(NamedTuple):
    """What a round's child reports for one call: its check errors and,
    for a sweep, the instances its checks tested."""

    errors: list[str]
    instances: int


class Shell:
    name = "shell"

    def __init__(self, rng: Random, seconds: float) -> None:
        self.rng = rng

    def samples(self):
        while True:
            yield self.rng.sample(SHELL_ROUND, len(SHELL_ROUND))

    def run(self, kind: str, bound: int, rec: Spans | None, op: int):
        name, fn = _SHELL_CALLS[kind]
        if rec is None:
            return fn(bound)
        return rec.call(op, name, None, fn, bound)

    def timed(self, ops: list[tuple], rec: Spans | None, first: int):
        """time_ops in a forked child, which also checks the outputs and,
        traced, makes the per-index layer calls; its spans join rec."""

        def round_():
            child_rec = Spans() if rec is not None else None
            elapsed, outs = time_ops(self, ops, child_rec, first)
            results = []
            for i, ((kind, bound), out) in enumerate(zip(ops, outs)):
                if isinstance(out, Exception):
                    results.append(RuntimeError(f"{type(out).__name__}: {out}"))
                    continue
                instances = sum(c.tested for c in out.checks) if kind == "sweep" else 0
                results.append(ShellResult(self._errors(kind, bound, out), instances))
                if child_rec is not None:
                    self._layer_calls(kind, bound, child_rec, first + i)
            return elapsed, results, child_rec.spans if child_rec is not None else []

        elapsed, results, spans = in_child(round_)
        if rec is not None:
            rec.spans.extend(spans)
        return elapsed, results

    def check(self, kind: str, bound: int, out: ShellResult) -> list[str]:
        return out.errors

    def _errors(self, kind: str, bound: int, out) -> list[str]:
        if kind == "count":
            want = 2 * phi(bound)
            return [] if out == (want, want) else [f"count {bound}: {out}, expected {want} twice"]
        if kind == "sweep":
            return _sweep_errors(bound, out)
        errors = []
        if len(out) != shell_count(bound):
            errors.append(f"{kind} {bound}: {len(out)} indices, counted {shell_count(bound)}")
        for x, w in out.items():
            if abs(x.p) + x.q > bound:
                errors.append(f"{kind} {bound}: {x} is outside the shell")
            errors.extend(_word_errors(x.p, x.q, runs_to_letters(w.runs)))
        other = enumerate_ewords(bound, "shortcut" if kind == "enumerate-orphan" else "orphan")
        if {x: w.runs for x, w in other.items()} != {x: w.runs for x, w in out.items()}:
            errors.append(f"enumerate {bound}: orphan and shortcut shells differ")
        return errors

    def _layer_calls(self, kind: str, bound: int, rec: Spans, op: int) -> None:
        """The per-index public calls the call makes, over the same indices."""
        mode = "shortcut" if kind == "enumerate-shortcut" else "orphan"
        for x in (ExtRational(p, q) for p, q in shell(bound)):
            if not x.is_orphan:
                rec.call(op, "farey.parents", None, parents, x)
            if not x.is_infinite:
                sid = rec.start(op, "farey.cf")
                to_continued_fraction(-x if x.is_negative else x)
                farey_level(x)
                rec.end(sid)
            rec.call(op, "enumeration.e_word", None, e_word, x, mode)
            if kind == "sweep":
                sid = rec.start(op, "verify.oracle")
                oracle_e_word(x)
                if x.p > 0 and x.q > 0:
                    oracle_parents(x)
                rec.end(sid)

    def layers(self, kind: str, bound: int, out: ShellResult, rec: Spans, op: int, counted: bool) -> None:
        if counted and kind == "sweep":
            rec.count("verify.instances", out.instances)


def _sweep_errors(bound: int, report) -> list[str]:
    errors = []
    if not report.ok or report.bound != bound:
        errors.append(f"sweep {bound}: ok={report.ok}, bound={report.bound}")
    tested = {c.name: c.tested for c in report.checks}
    for names, want in ((_SWEEP_SHELL_CHECKS, shell_count(bound)), (_SWEEP_POSITIVE_CHECKS, positive_count(bound))):
        for name in names:
            if tested.get(name) != want:
                errors.append(f"sweep {bound}: {name} tested {tested.get(name)}, counted {want}")
    return errors


WORKLOADS = {w.name: w for w in (Deep, Shell, Trace)}
