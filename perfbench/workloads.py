"""The benchmark's workloads: seeded inputs, the item each one runs, and the
checks every item must pass.

Each workload is a list of items made from the seed in set-up. The runner
repeats the list in order; one item is one unit of user-visible work:

- verify_sweep: a seeded regeneration of the criterion-1 sweep (about 910
  small circuits, at most 64 branches). Building the circuit is about a
  third of the time, so build-stage changes show here and a
  branch-parallel simulator gains the least.
- verify_wide: twelve circuits with 1,024 branches (n_e = 10, a 10-bit
  modulus, windows (3, 3)) cycling through the six circuit variants. The
  simulator is almost all of the time, so branch-parallel kernels show in
  full and build-side changes barely show.
- estimate_grid: ``wmodexp estimate`` called in-process through cli.main
  for the four published sizes and the eight cost variants, alternating
  CSV and JSON output. It runs costs, estimator and cli and never touches
  builders or sim.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# Circuit variants as optimisation-flag bits: 1 deferred unlookup,
# 2 selective lookup, 4 initial lookup, 8 low-depth unary.
VARIANT_BITS = {"original": 0, "opt1": 1, "opt2": 2, "opt3": 4, "opt4": 8, "combined": 15}
COST_VARIANTS = (
    "original",
    "opt1",
    "opt2",
    "opt3",
    "opt4",
    "combined",
    "sliced_A",
    "sliced_B",
)
PUBLISHED_SIZES = ((1024, 1493), (2048, 3029), (3072, 4565), (4096, 6101))
GATE_KINDS = (
    "X",
    "CNOT",
    "Toffoli",
    "TempAndCompute",
    "TempAndUncompute",
    "CSwap",
    "MeasureXRegister",
    "ClassicalPhaseZ",
    "ModAddOracle",
)
# Criterion 6: the best row at (2048, original) as (value, relative tolerance).
PUBLISHED_BEST = {"B Tofs": (2.698, 0.05), "Mqb": (19.249, 0.15), "E[hrs]": (7.313, 0.25)}
WIDE_ITEMS = 12


def expected_result(base: int, x: int, modulus: int) -> int:
    """The value the result register must hold for exponent x."""
    return pow(base, x, modulus)


def read_bits(key: int, qubits: tuple[int, ...]) -> int:
    value = 0
    for pos, q in enumerate(qubits):
        value |= (key >> q & 1) << pos
    return value


@dataclass(frozen=True)
class VerifyItem:
    cfg: object  # a wmodexp ModexpConfig
    sim_seed: int


@dataclass(frozen=True)
class EstimateItem:
    n: int
    n_e: int
    variant: str
    fmt: str
    cli_seed: int


@dataclass
class Outcome:
    """What one item produced. calls maps a traced call name to the number
    of calls the item must have made, derived from its inputs and outputs;
    counts holds exact counters. Both are filled only when counting."""

    errors: list[str]
    digest: bytes = b""
    calls: dict[str, int] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)


# ---------------------------------------------------------------------------
# Inputs.


def _options(P, bits: int, nep: int):
    return P.builders.ModexpOptions(
        deferred_unlookup=bool(bits & 1),
        selective_lookup=bool(bits & 2),
        initial_lookup_bits=nep if bits & 4 else 0,
        lowdepth_unary=bool(bits & 8),
    )


def _verify_item(P, modulus, base, n_e, w_e, w_m, bits, nep, sim_seed) -> VerifyItem:
    inst = P.numerics.ProblemInstance(modulus, base, n_e)
    wp = P.numerics.WindowParams(w_e, w_m)
    return VerifyItem(P.builders.ModexpConfig(inst, wp, _options(P, bits, nep)), sim_seed)


def _balanced(rng: random.Random, values, count: int) -> list:
    """count draws in random order that use each value equally often (to
    within one), so every seed carries the same mix."""
    draws = [values[i % len(values)] for i in range(count)]
    rng.shuffle(draws)
    return draws


def sweep_items(P, seed: int) -> list[VerifyItem]:
    """The criterion-1 sweep: all 16 flag subsets on two fixed shapes,
    every odd modulus up to 63 with every coprime base under a seeded shape
    and flag subset, and every (n_e, w_e, w_m) shape at N = 35 under a
    seeded flag subset. The seeded draws are balanced, since the item cost
    grows steeply with n_e, and the list is shuffled."""
    rng = random.Random(seed)
    specs = []
    for bits in range(16):
        specs.append((15, 7, 4, 2, 2, bits, 2))
        specs.append((21, 2, 6, 3, 2, bits, 3))
    pairs = [(m, b) for m in range(3, 64, 2) for b in range(1, m) if math.gcd(b, m) == 1]
    shapes = zip(
        _balanced(rng, range(1, 7), len(pairs)),
        _balanced(rng, (1, 2, 3), len(pairs)),
        _balanced(rng, (1, 2, 3), len(pairs)),
        _balanced(rng, range(16), len(pairs)),
    )
    for (modulus, base), (n_e, w_e, w_m, bits) in zip(pairs, shapes):
        specs.append((modulus, base, n_e, w_e, w_m, bits, rng.randint(1, n_e)))
    grid = [(n_e, w_e, w_m) for n_e in range(1, 7) for w_e in (1, 2, 3) for w_m in (1, 2, 3)]
    for (n_e, w_e, w_m), bits in zip(grid, _balanced(rng, range(16), len(grid))):
        specs.append((35, 2, n_e, w_e, w_m, bits, min(2, n_e)))
    rng.shuffle(specs)
    return [_verify_item(P, *spec, rng.randrange(1 << 30)) for spec in specs]


def wide_items(P, seed: int) -> list[VerifyItem]:
    """WIDE_ITEMS circuits with 1,024 branches, each on its own 10-bit odd
    modulus and coprime base, cycling through the circuit variants."""
    rng = random.Random(seed)
    items = []
    for index in range(WIDE_ITEMS):
        modulus = rng.randrange(513, 1024, 2)
        base = rng.randrange(2, modulus)
        while math.gcd(base, modulus) != 1:
            base = rng.randrange(2, modulus)
        bits = list(VARIANT_BITS.values())[index % len(VARIANT_BITS)]
        items.append(_verify_item(P, modulus, base, 10, 3, 3, bits, 3, rng.randrange(1 << 30)))
    return items


def estimate_items(P, seed: int) -> list[EstimateItem]:
    """Every published size with every cost variant, in a seeded order;
    output alternates between CSV and JSON along the list."""
    rng = random.Random(seed)
    combos = [(n, n_e, v) for n, n_e in PUBLISHED_SIZES for v in COST_VARIANTS]
    rng.shuffle(combos)
    return [
        EstimateItem(n, n_e, variant, ("csv", "json")[index % 2], seed)
        for index, (n, n_e, variant) in enumerate(combos)
    ]


# ---------------------------------------------------------------------------
# Items.


def run_verify(P, item: VerifyItem, out_dir: Path, count: bool) -> Outcome:
    """build -> input state -> simulate -> check -> tally, then the meter
    against exact_cost, all through the program's public functions."""
    cfg = item.cfg
    circuit = P.builders.build_windowed_modexp(cfg)
    state = P.builders.modexp_input_state(circuit, seed=item.sim_seed)
    branches = len(state.branches)
    final = P.sim.run(circuit, state)
    errors = list(P.builders.check_modexp_output(circuit, cfg.inst, final))
    meter = P.circuit.tally(circuit)
    predicted = P.costs.exact_cost(cfg)
    errors += check_verify(cfg.inst, circuit, final, meter, predicted)
    canonical = (sorted(final.branches.items()), sorted(final.transcript.items()))
    outcome = Outcome(errors, hashlib.sha256(repr(canonical).encode()).digest())
    if count:
        kinds = Counter(gate.name for gate in circuit.gates)
        outcome.calls = {
            "sim.measure" if kind == "MeasureXRegister" else "sim.apply." + kind: calls
            for kind, calls in kinds.items()
        }
        for kind in GATE_KINDS:
            outcome.counts["circuit.gates." + kind] = kinds[kind]
        outcome.counts["circuit.gates"] = len(circuit.gates)
        outcome.counts["circuit.measurements"] = kinds["MeasureXRegister"]
        # Every gate keeps the branch count, so each one touches them all.
        outcome.counts["sim.branch_gates"] = len(circuit.gates) * branches
    return outcome


def check_verify(inst, circuit, final, meter, predicted) -> list[str]:
    """The benchmark's own check of a final state, beside the program's."""
    exp = circuit.register("exponent").qubits
    result = circuit.register(circuit.result_register).qubits
    errors = []
    seen = sorted(read_bits(key, exp) for key in final.branches)
    if seen != list(range(1 << inst.exp_bits)):
        errors.append("exponent values are not exactly range(2**n_e)")
    for key, phase in final.branches.items():
        x = read_bits(key, exp)
        want = expected_result(inst.base, x, inst.modulus)
        got = read_bits(key, result)
        if got != want or phase != 1:
            errors.append(f"x={x}: result {got} phase {phase:+d}, want {want} +1")
            break
    if meter.toffoli_count != predicted.total_tofs:
        errors.append(f"metered {meter.toffoli_count} Toffolis, exact_cost {predicted.total_tofs}")
    if meter.qubit_highwater != predicted.qubits:
        errors.append(f"metered {meter.qubit_highwater} qubits, exact_cost {predicted.qubits}")
    return errors


def grid_points(P, n: int) -> tuple[int, int]:
    """(grid size, points grid_search evaluates) for the default ranges:
    it skips L1 >= L2 and g_sep > n before estimating."""
    r = P.estimator.GridRanges()
    size = len(r.l1) * len(r.l2) * len(r.d_off) * len(r.g_exp) * len(r.g_mul) * len(r.g_sep)
    pairs = sum(1 for l1 in r.l1 for l2 in r.l2 if l1 < l2)
    seps = sum(1 for g_sep in r.g_sep if g_sep <= n)
    return size, pairs * len(r.d_off) * len(r.g_exp) * len(r.g_mul) * seps


def run_estimate(P, item: EstimateItem, out_dir: Path, count: bool) -> Outcome:
    """``wmodexp estimate`` through cli.main, writing under out_dir."""
    path = out_dir / f"estimate-{item.n}-{item.variant}.{item.fmt}"
    path.unlink(missing_ok=True)
    argv = [
        "estimate",
        "--n", str(item.n),
        "--ne", str(item.n_e),
        "--variant", item.variant,
        "--format", item.fmt,
        "--seed", str(item.cli_seed),
        "--out", str(path),
    ]  # fmt: skip
    code = P.cli.main(argv)
    if code != 0:
        return Outcome([f"wmodexp {' '.join(argv)} exited {code}"])
    data = path.read_bytes()
    size, evaluated = grid_points(P, item.n)
    outcome = Outcome(check_estimate(P, item, data), hashlib.sha256(data).digest())
    if count:
        ranges = P.estimator.GridRanges()
        outcome.calls = {
            "estimator.estimate": evaluated,
            "costs.cost": len(ranges.g_exp) * len(ranges.g_mul),
        }
        outcome.counts["estimator.points_evaluated"] = evaluated
        outcome.counts["estimator.points_skipped"] = size - evaluated
        outcome.counts["cli.bytes_out"] = len(data)
    return outcome


def check_estimate(P, item: EstimateItem, data: bytes) -> list[str]:
    """The output parses, and at (2048, original) the best row is the
    published point within the criterion-6 tolerances."""
    text = data.decode("utf-8")
    if item.fmt == "json":
        payload = json.loads(text)
        if "best" not in payload or not payload.get("frontier"):
            return ["JSON output lacks best or frontier"]
        best = payload["best"]
    else:
        body = [line for line in text.splitlines() if not line.startswith("#")]
        if not body or body[0] != P.cli.ESTIMATE_HEADER:
            return ["CSV header differs from ESTIMATE_HEADER"]
        keys = [key.strip() for key in body[0].split(",")]
        cells = [line.split(",") for line in body[1:]]
        if not cells or any(len(row) != len(keys) for row in cells):
            return ["CSV frontier is empty or ragged"]
        rows = [dict(zip(keys, map(float, row))) for row in cells]
        marks = [line for line in text.splitlines() if line.startswith("# best: ")]
        if len(marks) != 1:
            return ["CSV output lacks the best line"]
        fields = dict(part.split("=", 1) for part in marks[0][len("# best: ") :].split())
        point = {key: float(fields[key]) for key in ("L1", "L2", "d_off", "g_mul", "g_exp", "g_sep")}
        matches = [row for row in rows if all(row[k] == v for k, v in point.items())]
        if len(matches) != 1:
            return ["CSV best row is not on the frontier"]
        best = matches[0]
    if (item.n, item.variant) != (2048, "original"):
        return []
    errors = []
    for key, (want, rel) in PUBLISHED_BEST.items():
        if not abs(best[key] - want) <= rel * want:
            errors.append(f"best {key} = {best[key]}, published {want} within {rel:.0%}")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    make_items: object
    run_item: object


WORKLOADS = {
    "verify_sweep": Workload("verify_sweep", sweep_items, run_verify),
    "verify_wide": Workload("verify_wide", wide_items, run_verify),
    "estimate_grid": Workload("estimate_grid", estimate_items, run_estimate),
}
