"""Acceptance gate: eight end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASS/FAIL line
per criterion. The checks, in order:

1. functional equivalence of every circuit variant against classical
   modular exponentiation over a stratified sweep of small instances
2. measurement-based unlookup restores the pre-lookup state exactly
3. metered tallies equal the analytic cost formulas under divisibility,
   plus lookup/unary/low-depth-unary spot values
4. the combined optimizations land in the headline reduction band at the
   larger sizes, and match the cost formulas at n=1024
5. the estimate-row arithmetic identities, and the published-row numbers
6. the default grid search reproduces the published operating point to
   stated tolerances
7. matched-qubit-budget runtime reductions fall in the claimed band
8. the per-exponent-window crossover cost evaluates to the quoted value

Criterion 4 holds n=2048, 3072 and 4096 to the 1.5%-3.4% band and pins
the flat-exponent point at 3.24%. At n=1024 the reduction is 4.12%, and
the per-repetition formulas require it: deferred unlookup plus selective
lookup alone save 3.02% there, and the initial lookup at its crossover
width k=18 adds about 1.1%. No cost ledger meets both a 3.4% ceiling at
n=1024 and the flat-exponent pin, so n=1024 is checked against the
reduction derived by hand from the formulas, with a pin on the value
that catches drift in either direction.
"""

import math
import random
import time

import pytest

from wmodexp.builders import (
    ModexpConfig,
    ModexpOptions,
    build_windowed_modexp,
    check_modexp_output,
    modexp_input_state,
)
from wmodexp.circuit import tally
from wmodexp.costs import (
    cost,
    crossover_initial_lookup,
    grid_best_windows,
    per_window_cost,
)
from wmodexp.estimator import audit_row, grid_search, load_profile
from wmodexp.numerics import LookupTable, ProblemInstance, WindowParams
from wmodexp.sim import deposit, extract, run

from standalone_circuits import (
    build_qrom_lookup,
    build_unary,
    build_unary_lowdepth,
    build_unlookup,
    superposition,
)

PUBLISHED_NE = {1024: 1493, 2048: 3029, 3072: 4565, 4096: 6101}


@pytest.fixture(scope="module")
def profile():
    return load_profile()


@pytest.fixture(scope="module")
def grid_original(profile):
    return grid_search(2048, 3029, profile, variant="original")


@pytest.fixture(scope="module")
def grid_combined(profile):
    return grid_search(2048, 3029, profile, variant="combined")


# ---------------------------------------------------------------------------
# 1. Functional oracle equivalence


def _flag_opts(bits: int, nep: int) -> ModexpOptions:
    return ModexpOptions(
        deferred_unlookup=bool(bits & 1),
        selective_lookup=bool(bits & 2),
        initial_lookup_bits=nep if bits & 4 else 0,
        lowdepth_unary=bool(bits & 8),
    )


def _verify_modexp(inst, wp, opts, seed):
    cfg = ModexpConfig(inst, wp, opts)
    circuit = build_windowed_modexp(cfg)
    state = run(circuit, modexp_input_state(circuit, seed=seed))
    problems = check_modexp_output(circuit, inst, state)
    assert not problems, (inst, wp, opts, problems[:3])
    exponents = circuit.register("exponent").qubits
    seen = sorted(extract(key, exponents) for key in state.branches)
    assert seen == list(range(1 << inst.exp_bits)), (inst, wp, opts)


def test_criterion_1_functional_oracle_equivalence():
    start = time.perf_counter()

    # All 16 flag subsets on two window shapes.
    inst15 = ProblemInstance(15, 7, 4)
    inst21 = ProblemInstance(21, 2, 6)
    for bits in range(16):
        _verify_modexp(inst15, WindowParams(2, 2), _flag_opts(bits, 2), bits)
        _verify_modexp(inst21, WindowParams(3, 2), _flag_opts(bits, 3), bits)

    # Every odd modulus up to 63 with every coprime base, each under a
    # seeded random shape and flag subset.
    rng = random.Random(0xACCE55)
    for modulus in range(3, 64, 2):
        for base in range(1, modulus):
            if math.gcd(base, modulus) != 1:
                continue
            n_e = rng.randint(1, 6)
            wp = WindowParams(rng.randint(1, 3), rng.randint(1, 3))
            bits = rng.randrange(16)
            nep = rng.randint(1, n_e)
            _verify_modexp(
                ProblemInstance(modulus, base, n_e),
                wp,
                _flag_opts(bits, nep),
                rng.randrange(1 << 30),
            )

    # Every (n_e, w_e, w_m) shape at a fixed composite modulus.
    for n_e in range(1, 7):
        for w_e in (1, 2, 3):
            for w_m in (1, 2, 3):
                bits = rng.randrange(16)
                _verify_modexp(
                    ProblemInstance(35, 2, n_e),
                    WindowParams(w_e, w_m),
                    _flag_opts(bits, min(2, n_e)),
                    rng.randrange(1 << 30),
                )

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"criterion 1: PASS - exhaustive flag/base/shape sweep in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Unlookup exactness


def test_criterion_2_unlookup_exactness():
    for seed in range(100):
        rng = random.Random(seed)
        addr_bits = rng.randint(1, 6)
        word_bits = rng.randint(1, 8)
        table = LookupTable(
            "multiply",
            addr_bits,
            word_bits,
            tuple(rng.randrange(1 << word_bits) for _ in range(1 << addr_bits)),
        )
        addresses = rng.sample(
            range(1 << addr_bits), rng.randint(1, 1 << addr_bits)
        )
        phases = {address: rng.choice((1, -1)) for address in addresses}

        lookup = build_qrom_lookup(table)
        l_addr = lookup.register("address").qubits
        l_dest = lookup.register("dest").qubits
        before = {deposit(0, l_addr, a): phase for a, phase in phases.items()}
        loaded = run(
            lookup, superposition(lookup.num_qubits, before, seed)
        )

        unlookup = build_unlookup(table)
        u_addr = unlookup.register("address").qubits
        u_dest = unlookup.register("dest").qubits
        ported = {
            deposit(
                deposit(0, u_addr, extract(key, l_addr)),
                u_dest,
                extract(key, l_dest),
            ): phase
            for key, phase in loaded.branches.items()
        }
        final = run(
            unlookup, superposition(unlookup.num_qubits, ported, seed)
        )
        want = {deposit(0, u_addr, a): phase for a, phase in phases.items()}
        assert final.branches == want, (seed, addr_bits, word_bits)
    print("criterion 2: PASS - 100 seeded lookup/unlookup round trips, exact")


# ---------------------------------------------------------------------------
# 3. Cost-formula fidelity


def test_criterion_3_cost_formula_fidelity():
    # Divisible windows on a six-bit modulus with the cost-booking adder:
    # the meter must equal the composed per-addition formulas exactly.
    inst = ProblemInstance(57, 2, 6)
    pad = 3
    for w_e in (1, 2, 3):
        for w_m in (1, 2, 3):
            cfg = ModexpConfig(inst, WindowParams(w_e, w_m), coset_pad=pad)
            counts = tally(build_windowed_modexp(cfg))
            additions = 2 * (6 // w_e) * (6 // w_m)
            ell = w_e + w_m
            per_lookup = 2**ell - 1
            per_add = 2 * (6 + pad)
            per_unlookup = 2 ** (ell // 2) + 2 ** (ell - ell // 2) - 2
            assert counts.toffoli_count == additions * (
                per_lookup + per_add + per_unlookup
            ), (w_e, w_m)

    # Spot values: lookup walk, unary conversion, low-depth unary.
    rng = random.Random(3)
    for ell in (3, 5, 6):
        table = LookupTable(
            "multiply", ell, 4, tuple(rng.randrange(16) for _ in range(1 << ell))
        )
        assert tally(build_qrom_lookup(table)).toffoli_count == 2**ell - 1
    for width in (2, 3, 4, 5):
        assert tally(build_unary(width)).toffoli_count == 2**width - 1
        routed = build_unary_lowdepth(width)
        counts = tally(routed)
        assert counts.toffoli_count == 2**width - 1
        assert counts.toffoli_depth == width
        space = len(routed.register("unary_out")) + len(routed.register("routing"))
        assert space == 2**width + 2 ** (width - 1) - 1
    print("criterion 3: PASS - meter equals analytic formulas and spot values")


# ---------------------------------------------------------------------------
# 4. Headline improvement band


def _hand_total_tofs(n, n_e, w_e, w_m, initial_bits, *, optimized):
    """Total Toffolis from the per-repetition formulas, written out by hand.

    One lookup-addition costs a lookup of 2^l, an adder of 2n and an
    immediate unlookup of 3 * 2^(l/2), with l = w_e + w_m. The optimized
    (combined) scheme skips the 2^w_e mult=0 rows of each table, replaces
    the unlookup by the deferred 2(w_m/n) * 2^w_e + 2^w_m, and may pay 2^k
    once for an initial lookup over k > 0 exponent bits, which leaves
    n_e - k bits to the 2n(n_e - k)/(w_e * w_m) windowed repetitions.
    """
    ell = w_e + w_m
    if optimized:
        lookup = 2.0**ell - 2.0**w_e
        unlookup = 2.0 * (w_m / n) * 2.0**w_e + 2.0**w_m
    else:
        lookup = 2.0**ell
        unlookup = 3.0 * 2.0 ** (ell / 2)
    initial = 2.0**initial_bits if initial_bits else 0.0
    reps = 2.0 * n * (n_e - initial_bits) / (w_e * w_m)
    return initial + reps * (lookup + 2.0 * n + unlookup)


def test_criterion_4_headline_improvement_band():
    reductions = {}
    for n, n_e in PUBLISHED_NE.items():
        original = cost("original", n, n_e, *grid_best_windows(n, n_e, "original")).total_tofs
        combined = cost("combined", n, n_e, *grid_best_windows(n, n_e, "combined")).total_tofs
        reductions[n] = (original - combined) / original

    flat_original = cost("original", 2048, 2048, *grid_best_windows(2048, 2048, "original"))
    flat_combined = cost("combined", 2048, 2048, *grid_best_windows(2048, 2048, "combined"))
    flat = (flat_original.total_tofs - flat_combined.total_tofs) / flat_original.total_tofs
    assert flat == pytest.approx(0.0324, abs=0.003), flat

    for n in (2048, 3072, 4096):
        assert 0.015 <= reductions[n] <= 0.034, (n, reductions[n])

    # n=1024 sits above the band because the cost formulas put it there
    # (see the module docstring), so it is checked against them instead.
    assert reductions[1024] == pytest.approx(0.041220, abs=5e-4), reductions[1024]
    windows = (
        grid_best_windows(1024, 1493, "original"),
        grid_best_windows(1024, 1493, "combined"),
        crossover_initial_lookup(1024, 5, 5),
    )
    assert windows == ((5, 5, 0), (5, 5, 18), 18), (
        f"n=1024 grid optimum {windows} left windows (5,5) with the initial "
        "lookup at its crossover width k=18, which the derivation assumes"
    )
    hand_original = _hand_total_tofs(1024, 1493, 5, 5, 0, optimized=False)
    hand_combined = _hand_total_tofs(1024, 1493, 5, 5, 18, optimized=True)
    hand = (hand_original - hand_combined) / hand_original
    per_rep = 1 - _hand_total_tofs(1024, 1493, 5, 5, 0, optimized=True) / hand_original
    assert reductions[1024] == pytest.approx(hand, rel=1e-9), (
        f"n=1024 reduction {reductions[1024]:.6%} departs from the "
        f"{hand:.6%} the per-repetition formulas give ({per_rep:.2%} from "
        f"opt1+opt2, {hand - per_rep:.2%} from opt3 at k=18)"
    )

    sizes = sorted(reductions)
    assert all(reductions[a] > reductions[b] for a, b in zip(sizes, sizes[1:])), (
        "reductions must shrink as n grows: "
        + ", ".join(f"n={n}: {reductions[n]:.4%}" for n in sizes)
    )
    print(
        "criterion 4: PASS - reductions "
        + ", ".join(f"n={n}: {reductions[n]:.4%}" for n in sizes)
        + f"; flat-exponent point {flat:.4%}; n=1024 matches the formulas "
        f"({per_rep:.2%} from opt1+opt2, {hand - per_rep:.2%} from opt3 at k=18)"
    )


# ---------------------------------------------------------------------------
# 5. Estimate-row arithmetic identities


def test_criterion_5_table_identities(grid_original, grid_combined):
    emitted = 0
    for result in (grid_original, grid_combined):
        rows = [result.best, *result.frontier]
        rows.extend(row for _, row in result.by_budget if row is not None)
        for row in rows:
            audit_row(row)
        emitted += len(rows)

    # Published-row arithmetic from the quoted figures themselves.
    hours, risk, mqb = 5.046, 0.31, 19.249
    assert hours / (1 - risk) == pytest.approx(7.313, abs=5e-4)
    volume_per_run = mqb * hours / 24
    assert volume_per_run == pytest.approx(4.047, abs=5e-4)
    assert volume_per_run / (1 - risk) == pytest.approx(5.865, abs=5e-4)
    print(f"criterion 5: PASS - identities hold on {emitted} rows at 1e-9")


# ---------------------------------------------------------------------------
# 6. Published-point reproduction by the full grid


def test_criterion_6_grid_reproduces_published_point(profile):
    start = time.perf_counter()
    result = grid_search(2048, 3029, profile, variant="original")
    elapsed = time.perf_counter() - start
    best = result.best
    assert best.b_tofs == pytest.approx(2.698, rel=0.05), best.b_tofs
    assert best.mqb == pytest.approx(19.249, rel=0.15), best.mqb
    assert best.expected_hours == pytest.approx(7.313, rel=0.25), best.expected_hours
    assert elapsed < 600.0, f"grid search took {elapsed:.1f}s"
    print(
        f"criterion 6: PASS - best row b_tofs={best.b_tofs:.4g} "
        f"Mqb={best.mqb:.4g} E[hrs]={best.expected_hours:.4g} in {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# 7. Matched-budget runtime improvement


def test_criterion_7_matched_budget_improvements(grid_original, grid_combined):
    seen = []
    for (budget, original), (_, combined) in zip(
        grid_original.by_budget, grid_combined.by_budget
    ):
        assert original is not None and combined is not None, budget
        reduction = (
            original.expected_hours - combined.expected_hours
        ) / original.expected_hours
        assert 0.01 <= reduction <= 0.08, (budget, reduction)
        seen.append(reduction)
    print(
        f"criterion 7: PASS - {len(seen)} budgets, reductions "
        f"{min(seen):.2%}..{max(seen):.2%} within [1%, 8%]"
    )


# ---------------------------------------------------------------------------
# 8. Crossover formula


def test_criterion_8_crossover_formula():
    value = per_window_cost(2048, 5, 5)
    assert value == pytest.approx(4.247e6, rel=0.005), value
    print(f"criterion 8: PASS - per-window cost {value:,.1f} Toffolis")
