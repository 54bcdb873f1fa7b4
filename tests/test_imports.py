"""The package's own import graph, read from its source with ast."""

import ast
import os
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import ewords

PACKAGE = Path(ewords.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def imported_modules(tree: ast.AST) -> set[str]:
    """Package modules a module's source imports, at any depth of its body."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found |= {p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "ewords"}
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif (node.module or "").split(".")[0] == "ewords":
                base = node.module.partition(".")[2]
            else:
                continue
            if base:
                found.add(base.split(".")[0])
            else:  # from . import x: a module, or a name from __init__
                found |= {a.name if a.name in MODULES else "__init__" for a in node.names}
    return found


def import_graph() -> dict[str, set[str]]:
    return {
        path.stem: imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        for path in PACKAGE.glob("*.py")
    }


def test_graph_reads_the_package():
    graph = import_graph()
    assert {"farey", "word", "stepper", "enumeration", "verify", "cli"} <= set(graph)
    assert "enumeration" in graph["verify"] and "verify" in graph["cli"]


def test_no_import_cycle():
    # static_order raises CycleError on a cycle
    order = list(TopologicalSorter(import_graph()).static_order())
    assert set(order) == MODULES


def test_production_modules_do_not_import_verify():
    graph = import_graph()
    for name in ("farey", "word", "stepper", "enumeration"):
        assert "verify" not in graph[name], name
        assert "__init__" not in graph[name], name


def test_enumeration_does_not_import_stepper():
    # e_word is its own parity walk, not a chain of run_preserving blocks
    assert "stepper" not in import_graph()["enumeration"]


LAZY_PRELUDE = """
import contextlib, io, sys
import ewords, ewords.cli
fresh_names = dir(ewords)
commands = [("compute", "68/13"), ("parents", "68/13"), ("cf", "68/13"), ("level", "5/3")]
commands.append(("count", "12"))


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert ewords.cli.main(list(argv)) == 0, argv


def loaded(*modules):
    return set(modules) & set(sys.modules)
"""

# plain output and both trace formats need no json
PLAIN_THEN_TRACE = """
for argv in commands:
    run(*argv)
assert not loaded("dataclasses", "inspect", "json", "ewords.stepper", "ewords.verify")
run("trace", "[5;4,3]")
run("trace", "[5;4,3]", "--format", "json")
assert loaded("ewords.stepper") and not loaded("dataclasses", "inspect", "json", "ewords.verify")
"""

JSON_THEN_NAMES = """
for argv in commands[1:]:
    run(*argv, "--format", "json")
assert not loaded("dataclasses", "inspect", "ewords.stepper", "ewords.verify")
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert ewords.cli.main(["compute", "68/13", "--format", "json"]) == 0
assert loaded("json")
import json
w = ewords.e_word(ewords.ExtRational(68, 13))
data = dict(index="68/13", mode="orphan", alphabet="ab", word=w.format(), runs=w.to_pairs())
data.update(length=w.length, palindrome=w.is_palindrome())
assert out.getvalue() == json.dumps(data, indent=2) + "\\n"
assert ewords.sweep is ewords.verify.sweep and loaded("ewords.verify")
assert ewords.run_esequence is ewords.stepper.run_esequence
assert ewords.PARITY_ROWS is ewords.verify.PARITY_ROWS
assert dir(ewords) == fresh_names and all(hasattr(ewords, n) for n in fresh_names)
star = {}
exec("from ewords import *", star)
assert set(star) - {"__builtins__"} == set(ewords.__all__)
"""


def test_verify_loads_only_when_asked():
    # fresh interpreters: this test process has long since imported verify;
    # compute, parents, cf, level and count load neither stepper nor verify,
    # and trace loads stepper alone
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    for script in (PLAIN_THEN_TRACE, JSON_THEN_NAMES):
        result = subprocess.run(
            [sys.executable, "-c", LAZY_PRELUDE + script], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


BENCH = Path(__file__).resolve().parent.parent / "bench"


def ewords_imports(source: str) -> set[str]:
    """Names a source takes from ewords ("cli" for ewords.cli), with those of
    any script it holds as a string constant, such as a timer it runs."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "ewords" and not node.level:
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                root, _, sub = alias.name.partition(".")
                if root == "ewords":
                    names.add(sub or "ewords")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= ewords_imports(node.value)
            except (SyntaxError, ValueError):  # not Python source
                pass
    return names


def test_benchmark_import_surface():
    # the benchmark's first act is to import these; a missing name ends a run
    wanted = set()
    for name in ("workloads.py", "run.py"):
        wanted |= ewords_imports((BENCH / name).read_text(encoding="utf-8"))
    assert {"ESequence", "run_esequence", "sweep", "oracle_e_word", "cli"} <= wanted
    names = sorted(wanted - {"cli", "ewords"})
    script = (
        f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "import ewords, ewords.cli\n"
        f"from ewords import {', '.join(names)}\n"
    )
    # -I: no PYTHONPATH, no script directory, so only src supplies ewords
    result = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    # the setup timer parses what the import prints
    assert result.stdout == ""
