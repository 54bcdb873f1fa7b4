"""Benchmark of the ewords package: one workload in one fresh process.

    python3 bench/run.py --workload deep|shell|trace --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, and the spans
are written to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from random import Random
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 11

_IMPORT_TIMER = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import ewords, ewords.cli
t1 = time.perf_counter()
print(t1 - t0)
print(ewords.__file__)
"""


def measure_setup(samples: int) -> list[float]:
    """Seconds to import ewords and ewords.cli, each in a fresh interpreter.

    One discarded first run writes the bytecode caches.
    """
    times = []
    for i in range(samples + 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, path = done.stdout.split("\n")[:2]
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"ewords was imported from {path}, not from {SRC}")
        if i:
            times.append(float(seconds))
    return times


class Run:
    """Samples of one workload, timed, checked and, given spans, traced."""

    def __init__(self, workload, seconds: float, rec, counted: int) -> None:
        self.workload = workload
        self.seconds = seconds
        self.rec = rec
        self.counted = counted
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.times: list[tuple[float, int]] = []  # (seconds, operations) per sample
        self.traced_samples = 0

    def sample(self, ops: list[tuple], traced: bool) -> float:
        rec = self.rec if traced else None
        first = self.attempted
        elapsed, outs = self.workload.timed(ops, rec, first)
        self.attempted += len(ops)
        for i, (args, out) in enumerate(zip(ops, outs)):
            if isinstance(out, Exception):
                self.failures.append(f"{args}: {type(out).__name__}: {out}")
                continue
            self.errors.extend(self.workload.check(*args, out))
            if traced:
                counted = self.traced_samples < self.counted
                self.workload.layers(*args, out, rec, first + i, counted)
        if traced:
            self.traced_samples += 1
        return elapsed

    def measure(self) -> None:
        """Sample until --seconds have passed, after one discarded warm-up
        sample, and at least until the counted traced samples are filled."""
        samples = self.workload.samples()
        self.sample(next(samples), traced=False)  # warm-up, discarded
        start = perf_counter()
        for k, ops in enumerate(samples):
            traced = self.rec is not None and k % 2 == 0
            self.times.append((self.sample(ops, traced), len(ops)))
            if perf_counter() - start >= self.seconds and len(self.times) >= 2 * self.counted:
                break


def per_op_times(run: Run) -> list[float]:
    """Mean operation time of each timed sample, in seconds."""
    return [t / n for t, n in run.times]


def end_to_end(run: Run, setup: list[float]) -> dict:
    """The end-to-end metrics, each bounded in BENCHMARK.json.  The host
    switches between a fast and a slow speed for seconds at a time, in a
    share that differs from run to run.  The 90th percentile of the
    per-sample times lies in the slow speed on every run; the median and
    the mean move with the share, so they are only printed."""
    # shell's calls run in forked children; the import timers are smaller
    rss_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    p90 = statistics.quantiles(per_op_times(run), n=10, method="inclusive")[-1]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p90_ms": (1e3 * p90, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


# per-layer time metric -> span name
LAYER_SPANS = {
    "farey.parents_ms": "farey.parents",
    "farey.cf_ms": "farey.cf",
    "enumeration.e_word_ms": "enumeration.e_word",
    "word.format_ms": "word.format",
    "verify.enumerate_ms": "verify.enumerate_ewords",
    "verify.count_ms": "verify.count_ewords_of_length",
    "verify.sweep_ms": "verify.sweep",
    "verify.oracle_ms": "verify.oracle",
    "stepper.run_esequence_ms": "stepper.run_esequence",
    "cli.main_ms": "cli.main",
}
COUNTS = ("word.runs_out", "word.letters_out", "verify.instances", "stepper.steps", "cli.out_bytes")
PEAKS = ("enumeration.alloc_peak_mb", "stepper.alloc_peak_mb")


def per_layer(run: Run, setup: list[float]) -> dict:
    """Median, over the traced operations that call a layer, of the time
    each spent in it; counts and peaks over the first counted samples.
    A layer the workload does not call reads 0."""
    rec = run.rec
    per_op: dict[str, dict[int, float]] = {}
    for op, name, _, t0, t1 in rec.spans:
        if t1 is None:  # left open by an operation that raised
            continue
        by_op = per_op.setdefault(name, {})
        by_op[op] = by_op.get(op, 0.0) + (t1 - t0)
    out = {}
    for metric, span in LAYER_SPANS.items():
        values = list(per_op.get(span, {}).values())
        out[metric] = (1e3 * statistics.median(values) if values else 0.0, "ms")
    main, stepper = per_op.get("cli.main", {}), per_op.get("stepper.run_esequence", {})
    render = [main[op] - stepper[op] for op in main if op in stepper]
    out["cli.render_ms"] = (1e3 * statistics.median(render) if render else 0.0, "ms")
    for name in COUNTS:
        out[name] = (rec.counts.get(name, 0), "count")
    for name in PEAKS:
        out[name] = (rec.peaks.get(name, 0.0), "MB")
    out["setup.import_ms"] = (1e3 * statistics.median(setup), "ms")
    pairs = list(zip(run.times[0::2], run.times[1::2]))
    traced = sum(t / n for (t, n), _ in pairs)
    plain = sum(t / n for _, (t, n) in pairs)
    out["tracing.overhead_ratio"] = (traced / plain, "ratio")
    return out


def write_spans(run: Run, path: Path) -> None:
    with path.open("w") as f:
        for op, name, parent, t0, t1 in run.rec.spans:
            f.write(json.dumps({"op": op, "name": name, "parent": parent, "start": t0, "end": t1}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("deep", "shell", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ewords" / "__init__.py").is_file():
        print(f"error: no ewords package under {SRC}", file=sys.stderr)
        return 2
    setup = measure_setup(SETUP_SAMPLES)
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](Random(args.seed), args.seconds)
    rec = workloads.Spans() if args.trace else None
    run = Run(workload, args.seconds, rec, workloads.COUNTED_SAMPLES)
    run.measure()
    if rec is not None:
        rec.measure_peaks()
    metrics = per_layer(run, setup) if args.trace else end_to_end(run, setup)

    for line in run.failures[:10]:
        print(f"operation failed: {line}", file=sys.stderr)
    for line in run.errors[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_spans(run, OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    timed = sum(t for t, _ in run.times)
    print(
        f"{args.workload}: {len(run.times)} samples, {run.attempted} operations, "
        f"{len(run.failures)} failed, {len(run.errors)} check errors; "
        f"{sum(n for _, n in run.times) / timed:.4g} ops/s, "
        f"op p50 {1e3 * statistics.median(per_op_times(run)):.4g} ms"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
