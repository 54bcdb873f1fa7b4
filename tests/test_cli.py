import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ewords
from ewords import ESequence, FreeWord, e_word, parse_rational, run_esequence
from ewords.cli import _json_runs, _trace_json, build_parser, main
from ewords.verify import canonical_sequences

from test_word import words


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_plain(self, capsys):
        code, out, err = run(capsys, "compute", "5/3")
        assert code == 0
        assert out == "b a b^2 a b a b\n"
        assert err == ""

    def test_capital_alphabet(self, capsys):
        # capitals name the inverse pair: A stands for a^-1, B for b
        code, out, _ = run(capsys, "compute", "1/2", "--alphabet", "AB")
        assert (code, out) == (0, "A^-1 B A^-1\n")
        code, out, _ = run(capsys, "compute", "-1/2", "--alphabet", "AB")
        assert (code, out) == (0, "A B A\n")

    def test_negative_note_on_stderr(self, capsys):
        code, out, err = run(capsys, "compute", "-2/3")
        assert code == 0
        assert out == "a^-1 b a^-1 b a^-1\n"
        assert err == "note: word has negative exponents\n"

    def test_negative_note_follows_alphabet(self, capsys):
        # A stands for a^-1, so the sign the note reports depends on the alphabet
        code, out, err = run(capsys, "compute", "1/2", "--alphabet", "AB", "--format", "json")
        assert (code, err) == (0, "note: word has negative exponents\n")
        assert json.loads(out)["runs"] == [["A", -1], ["B", 1], ["A", -1]]
        code, out, err = run(capsys, "compute", "-1/2", "--alphabet", "AB")
        assert (code, out, err) == (0, "A B A\n", "")

    def test_near_one_memory(self, capsys):
        # 2*10^6 + 1 runs: plain output builds no per-run list beside the text
        tracemalloc.start()
        try:
            code = main(["compute", "1000001/1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert peak < 64 * 2**20
        assert out == "b" + " a b" * 10**6 + "\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "compute", "68/13", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["index"] == "68/13"
        assert data["mode"] == "orphan"
        assert data["length"] == 81
        assert data["palindrome"] is True
        assert data["runs"][0] == ["b", 3]
        assert FreeWord.parse(data["word"]) == FreeWord.from_runs(
            (g, e) for g, e in data["runs"]
        )

    @pytest.mark.parametrize("index", ["0", "inf", "1", "-1", "5/3", "-2/3", "-7/4", "68/13"])
    @pytest.mark.parametrize("alphabet", ["ab", "AB"])
    def test_json_bytes(self, capsys, index, alphabet):
        code, out, _ = run(capsys, "compute", index, "--format", "json", "--alphabet", alphabet)
        x = parse_rational(index)
        w = e_word(x)
        data = {
            "index": str(x),
            "mode": "orphan",
            "alphabet": alphabet,
            "word": w.format(alphabet),
            "runs": w.to_pairs(alphabet),
            "length": w.length,
            "palindrome": w.is_palindrome(),
        }
        assert (code, out) == (0, json.dumps(data, indent=2) + "\n")

    @example(FreeWord.identity(), "ab")
    @example(FreeWord.parse("a^-2 b^-1 a^3"), "AB")
    @given(words, st.sampled_from(["ab", "AB"]))
    def test_json_runs_match_encoder(self, w, alphabet):
        want = json.dumps({"runs": w.to_pairs(alphabet)}, indent=2)
        assert '{\n  "runs": ' + _json_runs(w, alphabet) + "\n}" == want

    def test_json_near_one_memory(self, capsys):
        # 2*10^5 + 1 runs: the runs array is written from the runs, with no
        # per-run list (the indenting encoder over to_pairs peaked at 65 MB)
        tracemalloc.start()
        try:
            code = main(["compute", "100001/100000", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert peak < 24 * 2**20
        assert json.loads(out)["runs"][-2:] == [["a", 1], ["b", 1]]

    def test_shortcut_mode(self, capsys):
        code, out, _ = run(capsys, "compute", "7", "--mode", "shortcut")
        assert (code, out) == (0, "b^4 a b^3\n")

    def test_level_1000(self, capsys):
        code, out, _ = run(capsys, "compute", "1000")
        assert (code, out) == (0, "b^500 a b^500\n")

    @pytest.mark.parametrize("mode", ["orphan", "shortcut"])
    def test_huge_exponents(self, capsys, mode):
        # powers by doubling: a three-run word, however large its exponents
        half = 5 * 10**19
        code, out, _ = run(capsys, "compute", str(2 * half), "--mode", mode)
        assert (code, out) == (0, f"b^{half} a b^{half}\n")
        code, out, _ = run(capsys, "compute", f"1/{2 * half}", "--mode", mode)
        assert (code, out) == (0, f"a^{half} b a^{half}\n")

    @pytest.mark.parametrize(
        "error, message",
        [(MemoryError(), "MemoryError"), (OverflowError("too many runs"), "too many runs")],
    )
    def test_resource_errors_exit_2(self, capsys, monkeypatch, error, message):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr("ewords.cli.e_word", fail)
        code, out, err = run(capsys, "compute", "5/3")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("index", ["0", "inf", "5/3", "-7/4", "21/4"])
    @pytest.mark.parametrize("alphabet", ["ab", "AB"])
    def test_output_reparses(self, capsys, index, alphabet):
        _, out, _ = run(capsys, "compute", index, "--alphabet", alphabet)
        word = FreeWord.parse(out.strip(), alphabet=alphabet)
        assert word.format(alphabet) == out.strip()


class TestTrace:
    def test_plain_layout(self, capsys):
        code, out, _ = run(capsys, "trace", "[0;3,4]")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "(a, b)"
        assert sum(1 for line in lines if line.startswith("→")) == 7
        assert "value: 4/13" in lines
        assert "final indices: 4/13, 1/3" in lines
        assert (
            "last changed: left = a^2 b a^3 b a^3 b a^3 b a^2  [index 4/13]" in lines
        )
        assert "exponent sums: a=13 b=4" in lines

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "trace", "[5;4]", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["esequence"] == [5, 4]
        assert data["value"] == "21/4"
        assert len(data["steps"]) == 9
        assert data["last_changed"]["side"] == "right"
        assert data["last_changed"]["word"] == "b^3 a b^5 a b^5 a b^5 a b^3"
        assert data["last_changed"]["exponent_sums"] == {"a": 4, "b": 21}

    def test_rejects_garbage(self, capsys):
        code, _, err = run(capsys, "trace", "[0;0,3]")
        assert code == 2
        assert err.startswith("error:")


def reference_trace(text, fmt, alphabet):
    """eword trace output, calling FreeWord.format on every word it shows."""
    trace = run_esequence(ESequence.parse(text))
    word, final = trace.last_changed_word, trace.final
    sums = {"a": word.exponent_sum("a"), "b": word.exponent_sum("b")}

    def pair_dict(p):
        return {
            "left": p.left.format(alphabet),
            "right": p.right.format(alphabet),
            "left_index": str(p.left_index),
            "right_index": str(p.right_index),
        }

    if fmt == "plain":
        d = pair_dict(trace.initial)
        lines = [f"({d['left']}, {d['right']})"]
        for rec in trace.steps:
            d = pair_dict(rec.pair)
            lines.append(
                f"→ ({d['left']}, {d['right']})  [preserved: {rec.preserved[0].upper()}]"
                f"  [indices: {d['left_index']}, {d['right_index']}]"
            )
        lines += [
            f"value: {trace.sequence.value()}",
            f"final indices: {final.left_index}, {final.right_index}",
            f"last changed: {trace.last_changed_side} = {word.format(alphabet)}"
            f"  [index {trace.last_changed_index}]",
            f"exponent sums: a={sums['a']} b={sums['b']}",
        ]
        return "\n".join(lines) + "\n"
    entries = trace.sequence.entries
    data = {
        "esequence": list(entries),
        "value": str(trace.sequence.value()),
        "initial": pair_dict(trace.initial),
        "steps": [{"preserved": r.preserved, **pair_dict(r.pair)} for r in trace.steps],
        "blocks": [
            {"entry": n, "position": i, **pair_dict(p)}
            for i, (n, p) in enumerate(zip(entries, trace.block_ends()))
        ],
        "last_changed": {
            "side": trace.last_changed_side,
            "word": word.format(alphabet),
            "index": str(trace.last_changed_index),
            "exponent_sums": sums,
        },
    }
    return json.dumps(data, indent=2) + "\n"


def first_difference(got, want):
    """The first line where two texts part, cut short: pytest's own diff of
    two long texts is slow enough to stall Hypothesis's shrinking."""
    for i, (g, w) in enumerate(zip_longest(got.splitlines(), want.splitlines()), 1):
        if g != w:
            return f"line {i}: {g!r:.80} != {w!r:.80}"
    return "the texts differ only in line ends"


@st.composite
def small_sequences(draw, limit=3000):
    """Sequences of at most 8 entries, each at most 40, cut where the value's
    |p| + q would pass limit, which keeps each trace's text small."""
    entries = [draw(st.integers(0, 40))]
    for _ in range(draw(st.integers(0, 7))):
        n = draw(st.integers(1, 40))
        value = ESequence((*entries, n)).value()
        if value.p + value.q > limit:
            break
        entries.append(n)
    return ESequence(tuple(entries) if entries != [0] else (0, 1))


TRACE_SEQUENCES = [str(s) for s in canonical_sequences(3, 3)] + [
    "[40;1,2,30]",
    "[0;3,25,1,2]",
    "[3;2,20,1,2,30,2,1]",
]


class TestTraceRendering:
    @pytest.mark.parametrize("fmt", ["plain", "json"])
    @pytest.mark.parametrize("alphabet", ["ab", "AB"])
    def test_matches_reference(self, capsys, fmt, alphabet):
        for text in TRACE_SEQUENCES:
            code, out, err = run(capsys, "trace", text, "--format", fmt, "--alphabet", alphabet)
            assert (code, err) == (0, "")
            assert out == reference_trace(text, fmt, alphabet), text

    def test_plain_formats_each_word_once(self, capsys, monkeypatch):
        # each word is spelled from its factors' texts, and the "last
        # changed:" line reuses the final pair's; format sees one-run words
        calls = []
        original = FreeWord.format

        def counting(self, alphabet="ab"):
            calls.append(self)
            return original(self, alphabet)

        monkeypatch.setattr(FreeWord, "format", counting)
        code, _, _ = run(capsys, "trace", "[0;3,25,1,2]")
        assert code == 0
        assert len(calls) <= 31 + 2
        assert all(len(w.runs) <= 1 for w in calls)

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.integers(1, 9)),
            st.builds(
                lambda n0, mid, last: (n0, *mid, last),
                st.integers(0, 9),
                st.lists(st.integers(1, 9), max_size=3),
                st.integers(2, 9),
            ),
        )
    )
    def test_random_sequences_match_reference(self, entries):
        text = str(ESequence(entries))
        for fmt in ("plain", "json"):
            for alphabet in ("ab", "AB"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["trace", text, "--format", fmt, "--alphabet", alphabet])
                assert code == 0
                got, want = out.getvalue(), reference_trace(text, fmt, alphabet)
                same = got == want
                assert same, (fmt, alphabet, first_difference(got, want))

    @settings(max_examples=60, deadline=None)
    @given(small_sequences(), st.sampled_from(["ab", "AB"]))
    def test_json_matches_encoder(self, seq, alphabet):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["trace", str(seq), "--format", "json", "--alphabet", alphabet])
        want = json.dumps(run_esequence(seq).to_dict(alphabet), indent=2) + "\n"
        same = (code, out.getvalue()) == (0, want)
        assert same, (code, first_difference(out.getvalue(), want))

    @settings(max_examples=60, deadline=None)
    @given(small_sequences(), st.sampled_from(["ab", "AB"]))
    def test_trace_strings_need_no_escaping(self, seq, alphabet):
        # _trace_json quotes every string as it stands, which is right only
        # for strings of these characters
        def strings(value):
            if isinstance(value, str):
                yield value
            elif isinstance(value, (list, dict)):
                for v in value.values() if isinstance(value, dict) else value:
                    yield from strings(v)

        for text in strings(run_esequence(seq).to_dict(alphabet)):
            assert text in ("left", "right") or re.fullmatch(r"[abAB0-9^/ -]+", text), text

    def test_json_of_empty_lists(self):
        data = run_esequence(ESequence.parse("[0;3,4]")).to_dict()
        for key in ("esequence", "steps", "blocks"):
            emptied = dict(data, **{key: []})
            assert _trace_json(emptied) == json.dumps(emptied, indent=2), key


class TestIndexCommands:
    def test_parents(self, capsys):
        assert run(capsys, "parents", "68/13")[:2] == (0, "47/9 21/4\n")

    def test_parents_of_orphan_fails(self, capsys):
        code, _, err = run(capsys, "parents", "1/0")
        assert code == 2
        assert err.startswith("error:")

    def test_cf(self, capsys):
        assert run(capsys, "cf", "68/13")[:2] == (0, "[5;4,3]\n")

    def test_cf_json(self, capsys):
        _, out, _ = run(capsys, "cf", "14/3", "--format", "json")
        assert json.loads(out) == {
            "index": "14/3",
            "entries": [4, 1, 2],
            "text": "[4;1,2]",
        }

    def test_level(self, capsys):
        assert run(capsys, "level", "68/13")[:2] == (0, "12\n")
        assert run(capsys, "level", "-68/13")[:2] == (0, "12\n")

    def test_parents_and_level_json(self, capsys):
        code, out, _ = run(capsys, "parents", "68/13", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"index": "68/13", "parents": ["47/9", "21/4"]}
        code, out, _ = run(capsys, "level", "68/13", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"index": "68/13", "level": 12}

    def test_unparsable_rational(self, capsys):
        code, _, err = run(capsys, "level", "3/6/9")
        assert code == 2
        assert "error:" in err


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--bound", "4")
        assert code == 0
        assert out.splitlines()[0] == "sweep over |p| + q <= 4"
        assert out.splitlines()[-1].startswith("PASS:")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--bound", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_bad_bound(self, capsys):
        code, _, err = run(capsys, "verify", "--bound", "1")
        assert code == 2
        assert err.startswith("error:")


class TestCount:
    def test_match(self, capsys):
        assert run(capsys, "count", "5")[:2] == (0, "arithmetic=8 measured=8\n")

    def test_json(self, capsys):
        _, out, _ = run(capsys, "count", "13", "--format", "json")
        data = json.loads(out)
        assert data == {
            "length": 13,
            "arithmetic": data["arithmetic"],
            "measured": data["arithmetic"],
            "equal": True,
        }

    def test_too_short(self, capsys):
        assert run(capsys, "count", "1")[0] == 2


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_prog_name(self):
        assert build_parser().prog == "eword"


class TestUnwritableOutput:
    # a closed pipe or a full disk: exit 2 with one error line, not 1 with a traceback

    def start(self, stdout, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(ewords.__file__).parents[1])}
        return subprocess.Popen(
            [sys.executable, "-m", "ewords", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )

    def test_closed_pipe(self):
        # 2 MB of output: the child blocks on the full pipe until its reader leaves
        with self.start(subprocess.PIPE, "trace", "[1;1000]") as proc:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 2
        assert err == "error: cannot write output: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["compute", "68/13"], ["trace", "[1;1000]"]])
    def test_full_disk(self, argv):
        with open("/dev/full", "w") as full, self.start(full, *argv) as proc:
            err = proc.stderr.read()
        assert proc.returncode == 2
        assert err == "error: cannot write output: No space left on device\n"


def readme_examples():
    """One param per "$ eword ..." in the README's Command line block."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.split("$ eword ")[1:]:
        command, *shown = chunk.strip("\n").split("\n")
        examples.append(pytest.param(shlex.split(command), shown, id=command))
    return examples


class TestReadme:
    @pytest.mark.parametrize("argv, shown", readme_examples())
    def test_command_line_examples(self, capsys, argv, shown):
        # stderr lines come first, as in the README; "  ..." elides middle lines
        code, out, err = run(capsys, *argv)
        assert code == 0
        got = err.splitlines() + out.splitlines()
        if "  ..." in shown:
            cut = shown.index("  ...")
            head, tail = shown[:cut], shown[cut + 1 :]
            assert got[:cut] == head
            assert got[len(got) - len(tail) :] == tail
        else:
            assert got == shown
