"""Command-line front end.

Subcommands: compute (word at an index), trace (run a stepping sequence),
parents / cf / level (index arithmetic), verify (property sweep), count
(length counting); only trace loads the stepping machine, only verify the
oracles.  Exit codes: 0 success, 1 a verification-style command found a
mismatch, 2 usage, parse or resource (memory, overflow) errors, or output
that cannot be written (a closed pipe, a full disk).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .enumeration import MODES, count_ewords_of_length, e_word
from .farey import farey_level, parents, parse_rational, to_continued_fraction
from .word import ALPHABETS, FreeWord


def _print_json(data: dict) -> None:
    import json  # loaded only here and for compute's JSON: trace never needs it
    print(json.dumps(data, indent=2))


def _json_runs(w: FreeWord, alphabet: str) -> str:
    """json.dumps(w.to_pairs(alphabet), indent=2) as a top-level dict's value, from
    one template per distinct run: the indenting encoder is pure Python and slow."""
    texts = dict.fromkeys(w.runs)
    for run in texts:
        ((letter, e),) = FreeWord._trusted((run,)).to_pairs(alphabet)
        texts[run] = f'\n    [\n      "{letter}",\n      {e}\n    ]'
    body = ",".join(map(texts.__getitem__, w.runs))
    return f"[{body}\n  ]" if body else "[]"


def _trace_json(data: dict) -> str:
    """json.dumps(data, indent=2) for a trace's to_dict(), from templates.

    Each string in it is a FreeWord.format text, a seam join of such
    texts, an index or a side name: none holds a character JSON escapes,
    so each is quoted as it stands.
    """
    p = "\n  "
    return (
        f'{{{p}"esequence": {_json_array(data["esequence"], p)},{p}"value": "{data["value"]}",'
        f'{p}"initial": {_json_object(data["initial"], p)},'
        f'{p}"steps": {_json_objects(data["steps"], p)},'
        f'{p}"blocks": {_json_objects(data["blocks"], p)},'
        f'{p}"last_changed": {_json_object(data["last_changed"], p)}\n}}'
    )


def _json_object(d: dict, pad: str) -> str:
    # an object of escape-free strings, ints and such objects, opened after pad
    inner = pad + "  "
    lines = [
        f'{inner}"{k}": "{v}"'
        if type(v) is str
        else f'{inner}"{k}": {_json_object(v, inner) if type(v) is dict else v}'
        for k, v in d.items()
    ]
    return "{" + ",".join(lines) + pad + "}"


def _json_objects(ds: list[dict], pad: str) -> str:
    # an array of flat objects shaped like the first: one %-template for all
    if not ds:
        return "[]"
    inner = pad + "    "
    fields = [
        f'{inner}"{k}": "%({k})s"' if type(v) is str else f'{inner}"{k}": %({k})s'
        for k, v in ds[0].items()
    ]
    template = f"{pad}  {{" + ",".join(fields) + f"{pad}  }}"
    return "[" + ",".join([template % d for d in ds]) + pad + "]"


def _json_array(items: list[int], pad: str) -> str:
    return "[" + ",".join([f"{pad}  {x}" for x in items]) + pad + "]" if items else "[]"


def _cmd_compute(args: argparse.Namespace) -> int:
    x = parse_rational(args.rational)
    w = e_word(x, mode=args.mode)
    rendered = w.format(args.alphabet)
    if "^-" in rendered:
        print("note: word has negative exponents", file=sys.stderr)
    if args.format == "json":
        import json
        data = {
            "index": str(x),
            "mode": args.mode,
            "alphabet": args.alphabet,
            "word": rendered,
            "runs": [],
            "length": w.length,
            "palindrome": w.is_palindrome(),
        }
        head, _, tail = json.dumps(data, indent=2).partition('"runs": []')
        print(head, '"runs": ', _json_runs(w, args.alphabet), tail, sep="")
    else:
        print(rendered)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .stepper import ESequence, _arrow_chain, run_esequence  # loaded only here

    data = run_esequence(ESequence.parse(args.esequence)).to_dict(args.alphabet)
    if args.format == "json":
        print(_trace_json(data))
        return 0
    final, last = data["steps"][-1], data["last_changed"]
    print(*_arrow_chain(data), sep="\n")
    print(f"value: {data['value']}")
    print(f"final indices: {final['left_index']}, {final['right_index']}")
    print(f"last changed: {last['side']} = {last['word']}  [index {last['index']}]")
    print("exponent sums: a={a} b={b}".format(**last["exponent_sums"]))
    return 0


def _cmd_parents(args: argparse.Namespace) -> int:
    x = parse_rational(args.rational)
    lo, up = parents(x)
    if args.format == "json":
        _print_json({"index": str(x), "parents": [str(lo), str(up)]})
    else:
        print(f"{lo} {up}")
    return 0


def _cmd_cf(args: argparse.Namespace) -> int:
    x = parse_rational(args.rational)
    cf = to_continued_fraction(x)
    if args.format == "json":
        _print_json({"index": str(x), "entries": list(cf.entries), "text": str(cf)})
    else:
        print(cf)
    return 0


def _cmd_level(args: argparse.Namespace) -> int:
    x = parse_rational(args.rational)
    level = farey_level(x)
    if args.format == "json":
        _print_json({"index": str(x), "level": level})
    else:
        print(level)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import sweep  # the oracles load only for this command

    report = sweep(args.bound)
    if args.format == "json":
        _print_json(report.to_dict())
    else:
        for line in report.format_table():
            print(line)
    return 0 if report.ok else 1


def _cmd_count(args: argparse.Namespace) -> int:
    arithmetic, measured = count_ewords_of_length(args.length)
    if args.format == "json":
        _print_json(
            {
                "length": args.length,
                "arithmetic": arithmetic,
                "measured": measured,
                "equal": arithmetic == measured,
            }
        )
    else:
        print(f"arithmetic={arithmetic} measured={measured}")
    return 0 if arithmetic == measured else 1


# argparse takes "-2/3" for an option flag; widening its negative-number
# test lets signed fractions through as positional values.
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eword",
        description=(
            "Palindromic primitive words in the rank-2 free group, "
            "indexed by extended rationals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("plain", "json"), default="plain")

    def add_rational(p: argparse.ArgumentParser, help: str) -> None:
        p.add_argument("rational", help=help)
        p._negative_number_matcher = _NEGATIVE_RATIONAL

    p = sub.add_parser("compute", help="word at a rational index")
    add_rational(p, 'index like "68/13", "-2/3", or "inf"')
    p.add_argument("--mode", choices=MODES, default="orphan")
    p.add_argument("--alphabet", choices=ALPHABETS, default="ab")
    add_format(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("trace", help="run a stepping sequence from (a, b)")
    p.add_argument("esequence", help='sequence like "[5;4,3]"')
    p.add_argument("--alphabet", choices=ALPHABETS, default="ab")
    add_format(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("parents", help="lower-level neighbors rebuilding an index")
    add_rational(p, "index whose parents to find")
    add_format(p)
    p.set_defaults(func=_cmd_parents)

    p = sub.add_parser("cf", help="canonical continued fraction of an index")
    add_rational(p, "nonnegative index to expand")
    add_format(p)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("level", help="mediant-tree level of an index")
    add_rational(p, "index whose level to report")
    add_format(p)
    p.set_defaults(func=_cmd_level)

    p = sub.add_parser("verify", help="exhaustive property sweep over a shell")
    p.add_argument("--bound", type=int, default=10, help="|p| + q limit (>= 2)")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="words of one length: arithmetic vs measured")
    p.add_argument("length", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_count)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main() call


def main(argv: list[str] | None = None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe or a full disk shows here, not at exit
        return code
    except (ValueError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except OSError as exc:  # stdout cannot be written: a closed pipe, a full disk
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        # what stdout still buffers goes to devnull, so the final flush raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
