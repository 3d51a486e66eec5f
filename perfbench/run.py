"""Benchmark of the wmodexp toolkit, run from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0

The workload's inputs come from --seed. Items run one at a time as a closed
loop with one client: the next item starts only when the previous one has
finished and been checked. The loop runs whole passes over the item list,
as many as fit in --seconds and at least one; the digest and the exact
counters cover the first pass.

With --trace 0 the program runs untouched and the end-to-end metrics are
reported. With --trace 1 one pass runs in which each item runs twice, once
with wrappers installed around each layer boundary and once without; the
per-layer metrics are reported and the spans written to perfbench/out/.

The last line of standard output is the result: a JSON object with the keys
correct, attempted, failed and metrics. The line before it holds the
details: environment stamp, digest, tail latency and error samples.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import Tracer
from workloads import GATE_KINDS, WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("numerics", "circuit", "sim", "builders", "costs", "estimator", "cli")
LAYERS = ("numerics", "builders", "circuit", "sim", "costs", "estimator", "cli", "bench")
SETUP_REPEATS = 15
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
perf = time.perf_counter


class Program:
    """The wmodexp modules, freshly imported from SRC."""

    def __init__(self) -> None:
        if not (SRC / "wmodexp" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no wmodexp sources at {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [m for m in sys.modules if m == "wmodexp" or m.startswith("wmodexp.")]:
            del sys.modules[name]
        package = importlib.import_module("wmodexp")
        if Path(package.__file__).resolve().parent != SRC / "wmodexp":
            raise SystemExit(f"perfbench: imported wmodexp from {package.__file__}, not {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"wmodexp.{name}"))


def setup(workload, seed: int):
    """Import wmodexp, load the hardware profile and make the inputs,
    SETUP_REPEATS times; returns the last program and inputs and the median
    time."""
    times = []
    for _ in range(SETUP_REPEATS):
        P = items = None
        gc.collect()  # free the previous copy, so it does not set the peak memory
        start = perf()
        P = Program()
        P.estimator.load_profile()
        items = workload.make_items(P, seed)
        times.append(perf() - start)
    return P, items, statistics.median(times)


class Run:
    """Results of one closed loop over a workload's items."""

    def __init__(self, pass_len: int) -> None:
        self.pass_len = pass_len
        self.durations: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.first_pass: list[bytes] = []
        self.counts: Counter = Counter()
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.first_pass)).hexdigest()

    def add(self, outcome: Outcome, duration: float, errors: list[str]) -> None:
        """Record the next item. Exact counters and digests are kept for the
        first pass; a repeated item must reproduce its first-pass digest."""
        position = self.attempted % self.pass_len
        self.durations.append(duration)
        errors = list(outcome.errors) + errors
        if len(self.first_pass) < self.pass_len:
            self.counts.update(outcome.counts)
            self.first_pass.append(outcome.digest)
        elif outcome.digest != self.first_pass[position]:
            errors.append("output differs from the first pass")
        if errors:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"item {position}: {'; '.join(errors[:3])}")


def out_dir(workload) -> Path:
    path = OUT / workload.name
    path.mkdir(parents=True, exist_ok=True)
    return path


def attempt(P, workload, item, where: Path, count: bool) -> Outcome:
    try:
        return workload.run_item(P, item, where, count)
    except Exception as exc:  # an item's failure is counted, not fatal
        return Outcome([f"{type(exc).__name__}: {exc}"])


def run_loop(P, workload, items, seconds: float) -> Run:
    """Run whole passes over the items, untraced: the first, then as many
    more as fit in seconds at the first pass's pace, so every run has the
    same item mix."""
    run = Run(len(items))
    where = out_dir(workload)
    start = perf()
    passes = 1
    while run.attempted < passes * len(items):
        began = perf()
        outcome = attempt(P, workload, items[run.attempted % len(items)], where, False)
        run.add(outcome, perf() - began, [])
        if run.attempted == len(items):
            passes = max(1, int(seconds / (perf() - start)))
    run.wall = perf() - start
    return run


def run_traced(P, workload, items, tracer: Tracer) -> tuple[Run, Run]:
    """One pass in which every item runs twice back to back, once with the
    tracer's wrappers installed and once without, the order alternating.
    Pairing item by item keeps the host's drift out of the overhead ratio.
    Each traced item is one root span, its exact counters are summed, and
    its traced call counts must match the item's own count. Each run's
    wall time is the sum of its item times."""
    traced, untraced = Run(len(items)), Run(len(items))
    where = out_dir(workload)
    traced_attempt = tracer.span("bench.item", attempt)

    def plain(index: int, item) -> None:
        began = perf()
        outcome = attempt(P, workload, item, where, False)
        untraced.add(outcome, perf() - began, [])

    def with_trace(index: int, item) -> None:
        tracer.install(P)
        tracer.item = index
        before = dict(tracer.calls)
        began = perf()
        try:
            outcome = traced_attempt(P, workload, item, where, True)
        finally:
            duration = perf() - began
            tracer.uninstall()
        errors = []
        for name, want in outcome.calls.items():
            got = tracer.calls.get(name, 0) - before.get(name, 0)
            if got != want:
                errors.append(f"traced {got} calls of {name}, expected {want}")
        traced.add(outcome, duration, errors)

    for index, item in enumerate(items):
        for step in (with_trace, plain) if index % 2 == 0 else (plain, with_trace):
            step(index, item)
    for run in (traced, untraced):
        run.wall = sum(run.durations)
    return traced, untraced


def tail(durations: list[float]):
    """Highest listed percentile with at least ten samples beyond it, by
    nearest rank: (percentile, milliseconds, samples beyond), or None."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = -(-int(pct * 10) * n // 1000)  # ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1] * 1000.0, n - rank
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, setup_s: float) -> dict:
    return {
        "items_per_s": (run.attempted / run.wall, "1/s"),
        "item_ms_p50": (statistics.median(run.durations) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(traced: Run, untraced: Run, tracer: Tracer) -> dict:
    own, total = tracer.self_times()
    agg = tracer.agg_s
    layers = tracer.layer_self_times()
    c = traced.counts
    apply_s = {kind: agg.get(f"sim.apply.{kind}", 0.0) for kind in GATE_KINDS}
    del apply_s["MeasureXRegister"]
    branch_gates = c["sim.branch_gates"]
    evaluated = c["estimator.points_evaluated"]
    metrics = {
        "numerics.table_s": (own["numerics.table"], "s"),
        "numerics.tables": (tracer.calls["numerics.table"], "count"),
        "numerics.table_entries": (tracer.sizes["numerics.table"], "count"),
        "builders.build_s": (own["builders.build"], "s"),
        "builders.input_s": (own["builders.input"], "s"),
        "builders.check_s": (own["builders.check"], "s"),
        "circuit.validate_s": (own["circuit.validate"], "s"),
        "circuit.tally_s": (own["circuit.tally"], "s"),
        "circuit.gates": (c["circuit.gates"], "count"),
        "circuit.measurements": (c["circuit.measurements"], "count"),
        "sim.run_s": (total["sim.run"], "s"),
        "sim.measure_s": (agg.get("sim.measure", 0.0), "s"),
        "sim.branch_gates": (branch_gates, "count"),
        "sim.ns_per_branch_gate": (
            total["sim.run"] * 1e9 / branch_gates if branch_gates else 0.0,
            "ns",
        ),
        "costs.exact_s": (own["costs.exact"], "s"),
        "costs.cost_s": (own["costs.cost"], "s"),
        "costs.cost_calls": (tracer.calls["costs.cost"], "count"),
        "estimator.grid_s": (total["estimator.grid"], "s"),
        "estimator.estimate_s": (agg.get("estimator.estimate", 0.0), "s"),
        "estimator.frontier_s": (own["estimator.frontier"], "s"),
        "estimator.loop_s": (own["estimator.grid"], "s"),
        "estimator.points_evaluated": (evaluated, "count"),
        "estimator.points_overflow": (tracer.overflows, "count"),
        "estimator.points_skipped": (c["estimator.points_skipped"], "count"),
        "estimator.useful_ratio": (
            (evaluated - tracer.overflows) / evaluated if evaluated else 0.0,
            "ratio",
        ),
        "estimator.us_per_point": (
            agg.get("estimator.estimate", 0.0) * 1e6 / evaluated if evaluated else 0.0,
            "us",
        ),
        "cli.self_s": (own["cli.main"], "s"),
        "cli.bytes_out": (c["cli.bytes_out"], "count"),
        "trace.wall_s": (traced.wall, "s"),
        "trace.self_sum_ratio": (sum(layers.values()) / traced.wall, "ratio"),
        "trace.overhead_ratio": (traced.wall / untraced.wall, "ratio"),
    }
    for kind in GATE_KINDS:
        metrics[f"circuit.gates.{kind}"] = (c[f"circuit.gates.{kind}"], "count")
    for kind, seconds in apply_s.items():
        metrics[f"sim.apply_s.{kind}"] = (seconds, "s")
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (layers.get(layer, 0.0) / traced.wall, "ratio")
    return metrics


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wmodexp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    P, items, setup_s = setup(workload, args.seed)
    if args.trace:
        tracer = Tracer()
        run, reference = run_traced(P, workload, items, tracer)
        metrics = per_layer(run, reference, tracer)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        failed = run.failed + reference.failed
        attempted = run.attempted + reference.attempted
        errors = run.errors + reference.errors
        if run.digest() != reference.digest():
            failed += 1
            errors.append("traced and untraced runs produced different digests")
    else:
        run = run_loop(P, workload, items, args.seconds)
        metrics = end_to_end(run, setup_s)
        failed, attempted, errors = run.failed, run.attempted, run.errors

    found = tail(run.durations)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "items_per_pass": len(items),
        "items_attempted": attempted,
        "fail_ratio": failed / attempted,
        "digest": run.digest(),
        "counters": dict(sorted(run.counts.items())),
        "item_ms_tail": (
            {"percentile": found[0], "value": found[1], "beyond": found[2], "samples": run.attempted}
            if found
            else None
        ),
        "errors": errors,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
