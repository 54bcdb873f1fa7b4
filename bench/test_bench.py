"""Quick tests of the benchmark itself: python3 -m pytest bench

They run each workload at a tiny size, check the names against
BENCHMARK.json and check the word oracle against a second construction.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_completes_without_failures(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("deep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_christoffel_oracle_matches_mediant_products():
    words = oracle.mediant_words(40)
    assert len(words) == 2 + oracle.positive_count(40)
    for (p, q), w in words.items():
        assert oracle.christoffel_word(p, q) == w, f"{p}/{q}"
        if p and q:
            assert oracle.christoffel_word(-p, q) == w.replace("a", "A")


def test_arithmetic_oracles():
    assert [oracle.phi(n) for n in (1, 2, 9, 10, 12)] == [1, 1, 6, 4, 4]
    # 1/0, -2/1, -1/1, 0/1, 1/1, 2/1, -1/2, 1/2
    assert oracle.shell_count(3) == 8
    assert oracle.entries_value([5, 4, 3]) == Fraction(68, 13)
    assert oracle.text_to_letters("b^2 a^-1 b") == "bbAb"

