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


LAZY_VERIFY = """
import contextlib, io, sys
import ewords, ewords.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert ewords.cli.main(["compute", "68/13"]) == 0
    assert ewords.cli.main(["trace", "[5;4,3]"]) == 0
    assert ewords.cli.main(["trace", "[5;4,3]", "--format", "json"]) == 0
loaded = {"dataclasses", "inspect", "json", "ewords.verify"} & set(sys.modules)
assert not loaded, loaded
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert ewords.cli.main(["compute", "68/13", "--format", "json"]) == 0
assert "json" in sys.modules
import json
w = ewords.e_word(ewords.ExtRational(68, 13))
data = dict(index="68/13", mode="orphan", alphabet="ab", word=w.format(), runs=w.to_pairs())
data.update(length=w.length, palindrome=w.is_palindrome())
assert out.getvalue() == json.dumps(data, indent=2) + "\\n"
names = dir(ewords)
assert ewords.sweep is ewords.verify.sweep and "ewords.verify" in sys.modules
assert dir(ewords) == names and all(hasattr(ewords, n) for n in names)
star = {}
exec("from ewords import *", star)
assert set(star) - {"__builtins__"} == set(ewords.__all__)
"""


def test_verify_loads_only_when_asked():
    # a fresh interpreter: this test process has long since imported verify
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", LAZY_VERIFY], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
