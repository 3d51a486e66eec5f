"""The benchmark's own tests, on tiny inputs.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.fixture(scope="module")
def P():
    """A fresh import of the program; the modules other tests imported are
    put back afterwards."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "wmodexp"}
    yield bench.Program()
    for name in [k for k in sys.modules if k.split(".")[0] == "wmodexp"]:
        del sys.modules[name]
    sys.modules.update(saved)


def tiny(P, name):
    """A few items of each workload: sweep items as generated, one small
    circuit through the wide pipeline, one 1024-bit estimate."""
    if name == "verify_sweep":
        return workloads.sweep_items(P, 7)[:6]
    if name == "verify_wide":
        return [workloads._verify_item(P, 15, 7, 4, 2, 2, 15, 2, 3)]
    return [workloads.EstimateItem(1024, 1493, "combined", "csv", 7)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke(P, name):
    items = tiny(P, name)
    run = bench.run_loop(P, workloads.WORKLOADS[name], items, 0)
    assert (run.attempted, run.failed) == (len(items), 0), run.errors
    metrics = bench.end_to_end(run, 0.5)
    assert {name: unit for name, (_, unit) in metrics.items()} == units("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_inputs_follow_the_seed(P):
    assert workloads.sweep_items(P, 3) == workloads.sweep_items(P, 3)
    assert workloads.sweep_items(P, 3) != workloads.sweep_items(P, 4)
    assert len(workloads.sweep_items(P, 3)) == 910
    assert workloads.estimate_items(P, 3) != workloads.estimate_items(P, 4)


def test_corrupted_expected_value_is_a_failure(P, monkeypatch):
    monkeypatch.setattr(workloads, "expected_result", lambda b, x, m: (pow(b, x, m) + 1) % m)
    items = tiny(P, "verify_sweep")[:3]
    run = bench.run_loop(P, workloads.WORKLOADS["verify_sweep"], items, 0)
    assert run.failed == 3

    monkeypatch.setattr(workloads, "PUBLISHED_BEST", {"B Tofs": (5.0, 0.05)})
    item = workloads.EstimateItem(2048, 3029, "original", "json", 7)
    run = bench.run_loop(P, workloads.WORKLOADS["estimate_grid"], [item], 0)
    assert run.failed == 1 and "B Tofs" in run.errors[0]


def traced(P, name, items):
    tracer = Tracer()
    run, untraced = bench.run_traced(P, workloads.WORKLOADS[name], items, tracer)
    assert run.failed == untraced.failed == 0, run.errors + untraced.errors
    assert run.digest() == untraced.digest()
    return run, untraced, tracer


def test_self_times_sum_to_traced_wall(P):
    originals = (P.sim.apply, P.builders.build_windowed_modexp, P.cli.main)
    for name in ("verify_sweep", "estimate_grid"):
        run, untraced, tracer = traced(P, name, tiny(P, name))
        layers = tracer.layer_self_times()
        assert sum(layers.values()) == pytest.approx(run.wall, rel=0.05)
        metrics = bench.per_layer(run, untraced, tracer)
        assert {name: unit for name, (_, unit) in metrics.items()} == units("per_layer")
        assert (P.sim.apply, P.builders.build_windowed_modexp, P.cli.main) == originals


def test_counters_and_digest_repeat_at_one_seed(P):
    items = tiny(P, "verify_sweep")
    first, _, tracer1 = traced(P, "verify_sweep", items)
    second, _, tracer2 = traced(P, "verify_sweep", items)
    assert first.digest() == second.digest()
    assert first.counts == second.counts and first.counts["sim.branch_gates"] > 0
    assert dict(tracer1.calls) == dict(tracer2.calls)
    assert first.digest() == bench.run_loop(P, workloads.WORKLOADS["verify_sweep"], items, 0).digest()


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "verify_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
