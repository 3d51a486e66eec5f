"""End-to-end windowed modular exponentiation, under every flag combination."""

import itertools
import math
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

from wmodexp import builders
from wmodexp.builders import (
    ModexpConfig,
    ModexpOptions,
    build_windowed_modexp,
    check_modexp_output,
    modexp_input_state,
)
from wmodexp.circuit import tally
from wmodexp.costs import CIRCUIT_VARIANTS, VARIANT_TABLE, exact_cost
from wmodexp.numerics import ProblemInstance, WindowParams
from wmodexp.sim import ContractViolation, SparseState, deposit, extract, run

from standalone_circuits import superposition, unreduced

INST15 = ProblemInstance(15, 7, 4)


def flag_subsets(initial_bits):
    for deferred, selective, initial, lowdepth in itertools.product(
        [False, True], [False, True], [0, initial_bits], [False, True]
    ):
        yield ModexpOptions(
            deferred_unlookup=deferred,
            selective_lookup=selective,
            initial_lookup_bits=initial,
            lowdepth_unary=lowdepth,
        )


def assert_exact(cfg, seed=3):
    circuit = build_windowed_modexp(cfg)
    state = run(circuit, modexp_input_state(circuit, seed=seed))
    errors = check_modexp_output(circuit, cfg.inst, state)
    assert not errors, errors[:4]
    return circuit, state


@pytest.mark.parametrize("opts", list(flag_subsets(2)))
def test_all_flag_subsets_agree_mod15(opts):
    # every optimization is functionally transparent: each of the 16 subsets
    # produces exactly the ideal output state
    assert_exact(ModexpConfig(INST15, WindowParams(2, 2), opts))


@pytest.mark.parametrize(
    "we,wm", [(1, 1), (1, 3), (2, 3), (3, 2), (3, 3)]
)
def test_window_shapes_mod15(we, wm):
    for opts in (ModexpOptions(), ModexpOptions(True, True, 2, True)):
        assert_exact(ModexpConfig(INST15, WindowParams(we, wm), opts))


def test_other_moduli():
    assert_exact(ModexpConfig(ProblemInstance(21, 2, 3), WindowParams(2, 2)))
    assert_exact(ModexpConfig(ProblemInstance(33, 10, 5), WindowParams(3, 3)))
    assert_exact(
        ModexpConfig(
            ProblemInstance(33, 10, 5),
            WindowParams(2, 3),
            ModexpOptions(True, True, 3, False),
        )
    )


def wide_sweep_configs():
    """24 seeded configs of 256 branches: odd moduli in 129-255 with a
    coprime base, n_e = 8, windows from {2, 3, 4}, the six circuit variants
    in turn."""
    variants = [VARIANT_TABLE[name] for name in CIRCUIT_VARIANTS]
    assert len(variants) == 6
    rng = random.Random(0x8A5E)
    configs = []
    for index in range(24):
        modulus = rng.randrange(129, 256, 2)
        base = rng.randrange(2, modulus)
        while math.gcd(base, modulus) != 1:
            base = rng.randrange(2, modulus)
        inst = ProblemInstance(modulus, base, 8)
        wp = WindowParams(rng.choice((2, 3, 4)), rng.choice((2, 3, 4)))
        configs.append(ModexpConfig(inst, wp, variants[index % 6].options(rng.randint(1, 4))))
    return configs


def test_wide_oracle_sweep():
    for index, cfg in enumerate(wide_sweep_configs()):
        circuit = build_windowed_modexp(cfg)
        state = run(circuit, modexp_input_state(circuit, seed=index))
        assert check_modexp_output(circuit, cfg.inst, state) == [], cfg
        exponents = circuit.register("exponent").qubits
        assert sorted(extract(key, exponents) for key in state.branches) == list(range(256))


def test_input_state_matches_the_branch_superposition():
    # The exponent planes are written directly as counting patterns; they
    # must give the state that depositing every x into its own branch gives,
    # and they are declared as the planes that tell the branches apart.
    configs = wide_sweep_configs() + [
        ModexpConfig(ProblemInstance(1021, 3, n_e), WindowParams(3, 3)) for n_e in range(1, 13)
    ]
    for seed, cfg in enumerate(configs):
        circuit = build_windowed_modexp(cfg)
        exp = circuit.register("exponent").qubits
        got = modexp_input_state(circuit, seed)
        want = superposition(
            circuit.num_qubits, {deposit(0, exp, x): 1 for x in range(1 << len(exp))}, seed
        )
        assert (got.planes, got.phase, got.ones) == (want.planes, want.phase, want.ones), cfg
        assert got.rng.getstate() == want.rng.getstate()
        assert got.branches == want.branches
        assert got.values(exp) == list(range(1 << len(exp)))
        assert got.separating == {q: got.planes[q] for q in exp}
        assert len(set(got.values(tuple(got.separating)))) == 1 << len(exp)


def test_single_exponent_value():
    cfg = ModexpConfig(INST15, WindowParams(2, 2))
    circuit = build_windowed_modexp(cfg)
    state = run(circuit, superposition(circuit.num_qubits, {0: 1}))
    (key,) = state.branches
    result = circuit.register(circuit.result_register).qubits
    assert extract(key, result) == 1
    assert key == deposit(0, result, 1)  # exponent 0, workspace clear


@pytest.mark.parametrize(
    ("register", "phase", "message"),
    [
        ("multiplicand", 0, "x=0: result 0 (want 1)"),
        ("walk", 0, "x=0: workspace not cleared (assignment 0x"),
        (None, 1, "x=0: phase -1 (want +1)"),
    ],
    ids=["result", "workspace", "phase"],
)
def test_check_reports_a_corrupted_branch(register, phase, message):
    # Branch 0 holds x = 0, whose result 7**0 mod 15 = 1 ends in multiplicand.
    circuit, state = assert_exact(ModexpConfig(INST15, WindowParams(2, 2)))
    planes = list(state.planes)
    if register is not None:
        planes[circuit.register(register).qubits[0]] ^= 1
    bad = SparseState(planes, state.phase ^ phase, state.ones)
    (error,) = check_modexp_output(circuit, INST15, bad)
    assert error.startswith(message)


def reference_check(circuit, inst, state):
    """check_modexp_output's messages, read branch by branch."""
    exp = circuit.register("exponent").qubits
    result = circuit.register(circuit.result_register).qubits
    errors = []
    for key, phase in sorted(state.branches.items()):
        x = extract(key, exp)
        want = pow(inst.base, x, inst.modulus)
        if key != deposit(deposit(0, exp, x), result, want):
            got = extract(key, result)
            if got != want:
                errors.append(f"x={x}: result {got} (want {want})")
            else:
                errors.append(f"x={x}: workspace not cleared (assignment {key:#x})")
        if phase != 1:
            errors.append(f"x={x}: phase {phase:+d} (want +1)")
    return errors


def test_check_reports_faults_on_a_wide_state():
    # 1,024 branches with faults planted on several of them at once: every
    # message, and their order, must be the per-branch reading's.
    inst = ProblemInstance(1021, 3, 10)
    cfg = ModexpConfig(inst, WindowParams(3, 3), VARIANT_TABLE["combined"].options(3))
    circuit, state = assert_exact(cfg)
    planes = list(state.planes)
    faults = {
        circuit.register(circuit.result_register).qubits[4]: (3, 517, 1000),
        circuit.register("walk").qubits[2]: (64, 517),
        circuit.register("fanout").qubits[1]: (200, 1023),
        circuit.register("lookup").qubits[0]: (0,),
    }
    for q, branches in faults.items():
        for branch in branches:
            planes[q] ^= 1 << branch
    phase = state.phase ^ (1 << 3 | 1 << 64 | 1 << 777)
    bad = SparseState(planes, phase, state.ones)
    errors = check_modexp_output(circuit, inst, bad)
    assert errors == reference_check(circuit, inst, bad)
    kinds = [error.split(": ")[1].split()[0] for error in errors]
    assert sorted(kinds) == ["phase"] * 3 + ["result"] * 3 + ["workspace"] * 4


def test_check_on_a_wide_exponent_with_few_branches():
    # 16 of the 2^40 exponents: the check must size its work by the branches
    # held, not by 2^n_e. The child runs under a 1 GiB address-space limit,
    # so a check that builds the 2^40-bit counting planes fails at once.
    child = (
        "import random, resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from wmodexp.builders import ModexpConfig, build_windowed_modexp, check_modexp_output\n"
        "from wmodexp.numerics import ProblemInstance, WindowParams\n"
        "from wmodexp.sim import deposit, run\n"
        "from standalone_circuits import superposition\n"
        "inst = ProblemInstance(1021, 3, 40)\n"
        "circuit = build_windowed_modexp(ModexpConfig(inst, WindowParams(4, 4)))\n"
        "exp = circuit.register('exponent').qubits\n"
        "xs = random.Random(40).sample(range(1 << 40), 16)\n"
        "start = {deposit(0, exp, x): 1 for x in xs}\n"
        "state = run(circuit, superposition(circuit.num_qubits, start))\n"
        "began = time.perf_counter()\n"
        "print(check_modexp_output(circuit, inst, state))\n"
        "print(time.perf_counter() - began)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    problems, seconds = proc.stdout.splitlines()
    assert problems == "[]"
    assert float(seconds) < 1.0


def test_deferred_output_independent_of_measurement_seed():
    cfg = ModexpConfig(INST15, WindowParams(2, 2), ModexpOptions(deferred_unlookup=True))
    circuit = build_windowed_modexp(cfg)
    reference = None
    for seed in range(10):
        state = run(circuit, modexp_input_state(circuit, seed=seed))
        if reference is None:
            reference = tuple(sorted(state.branches.items()))
        assert tuple(sorted(state.branches.items())) == reference


def test_forced_zero_outcomes_disable_every_fixup():
    # outcome 0 makes every fixup mask parity even, so no phase gate fires,
    # yet the output is still exact
    cfg = ModexpConfig(INST15, WindowParams(2, 2), ModexpOptions(deferred_unlookup=True))
    circuit = build_windowed_modexp(cfg)
    state = modexp_input_state(circuit)
    state.rng = SimpleNamespace(getrandbits=lambda bits: 0)
    state = run(circuit, state)
    assert not check_modexp_output(circuit, INST15, state)


def test_pure_initial_lookup():
    cfg = ModexpConfig(INST15, WindowParams(2, 2), ModexpOptions(initial_lookup_bits=4))
    circuit, _ = assert_exact(cfg)
    counts = tally(circuit)
    assert counts.toffoli_count == 15  # one 4-bit walk, nothing else
    assert counts.measurement_depth == 0
    assert circuit.result_register == "multiplicand"


def test_initial_bits_out_of_range():
    with pytest.raises(ValueError):
        ModexpConfig(INST15, WindowParams(2, 2), ModexpOptions(initial_lookup_bits=5))


def test_result_register_tracks_window_parity():
    # one swap per exponent window: even window count ends in "multiplicand"
    even = build_windowed_modexp(ModexpConfig(INST15, WindowParams(2, 2)))
    assert even.result_register == "multiplicand"
    odd = build_windowed_modexp(ModexpConfig(INST15, WindowParams(4, 2)))
    assert odd.result_register == "target"


def test_every_table_holds_its_windows_multiple(monkeypatch):
    # Ragged windows on both axes: the 13 exponent bits split 4 + 4 + 4 + 1,
    # or 2 initial bits and then 4 + 4 + 3; the 12 modulus bits 5 + 5 + 2.
    # Whatever multiplier the builder carries, each table it asks for, in
    # its order (per exponent window, the forward sweep, then the inverse
    # sweep, each over the multiplicand windows), must hold
    # base**(e * 2**weight) * 2**offset * m mod N, inverted base inverse.
    inst, wp = ProblemInstance(4093, 3, 13), WindowParams(4, 5)
    modulus, inverse = inst.modulus, pow(inst.base, -1, inst.modulus)
    built, unpatched = [], builders.build_mul_table

    def record(*args):
        built.append(unpatched(*args))
        return built[-1]

    monkeypatch.setattr(builders, "build_mul_table", record)
    assert len(CIRCUIT_VARIANTS) == 6
    for name in CIRCUIT_VARIANTS:
        cfg = ModexpConfig(inst, wp, VARIANT_TABLE[name].options(2))
        built.clear()
        build_windowed_modexp(cfg)
        want, weight = [], cfg.opts.initial_lookup_bits
        while weight < inst.exp_bits:
            exp_width = min(wp.exp_window, inst.exp_bits - weight)
            for base in (inst.base, inverse):
                for offset in range(0, inst.mod_bits, wp.mul_window):
                    mul_width = min(wp.mul_window, inst.mod_bits - offset)
                    want.append(tuple(
                        pow(base, e << weight, modulus) * pow(2, offset, modulus) * m % modulus
                        for m in range(1 << mul_width)
                        for e in range(1 << exp_width)
                    ))
            weight += exp_width
        assert [table.entries for table in built] == want, name


def test_frozen_toffoli_counts_mod15():
    # desk-checked totals for n=4, n_e=4, windows (2,2): per lookup-addition
    # the walk costs 15 and the split unlookup 6, times 8 lookup-additions
    table = {
        ModexpOptions(): 168,
        ModexpOptions(deferred_unlookup=True): 156,
        ModexpOptions(selective_lookup=True): 144,
        ModexpOptions(initial_lookup_bits=2): 87,
        ModexpOptions(lowdepth_unary=True): 168,
        ModexpOptions(True, True, 2, True): 69,
    }
    for opts, expected in table.items():
        circuit = build_windowed_modexp(ModexpConfig(INST15, WindowParams(2, 2), opts))
        assert tally(circuit).toffoli_count == expected, opts


@pytest.mark.parametrize(
    "variant, initial_bits, toffolis, depth",
    [("original", 0, 3232, 2413), ("opt4", 0, 3232, 2409), ("combined", 3, 2137, 1944)],
)
def test_metered_depth_at_n4093(variant, initial_bits, toffolis, depth):
    # Table payloads are CNOTs, which carry layers, so the depth depends on
    # the table values and hence on the base: base 7 gives 2417 / 2417 / 1947.
    opts = VARIANT_TABLE[variant].options(initial_bits)
    cfg = ModexpConfig(ProblemInstance(4093, 2, 12), WindowParams(3, 3), opts, coset_pad=0)
    counts = tally(build_windowed_modexp(cfg))
    assert (counts.toffoli_count, counts.toffoli_depth) == (toffolis, depth)


def test_coset_backend_books_ripple_adders():
    plain = ModexpConfig(INST15, WindowParams(2, 2))
    coset = ModexpConfig(INST15, WindowParams(2, 2), coset_pad=2)
    base = tally(build_windowed_modexp(plain)).toffoli_count
    full = tally(build_windowed_modexp(coset)).toffoli_count
    # 8 lookup-additions, each adding a width-6 ripple of 12 Toffolis
    assert full == base + 8 * 2 * 6


def test_coset_pad_alone_picks_the_ripple_adder():
    # A pad with no other setting builds the padded Cuccaro circuit: value
    # registers 4 + 3 bits wide, a carry ancilla, and 8 ripples of 14 Toffolis
    # on top of the exact circuit's 168 Toffolis and 25 qubits.
    cfg = ModexpConfig(INST15, WindowParams(2, 2), coset_pad=3)
    counts = tally(build_windowed_modexp(cfg))
    assert (counts.toffoli_count, counts.qubit_highwater) == (280, 35)
    predicted = exact_cost(cfg)
    assert (predicted.total_tofs, predicted.qubits) == (280, 35)


def test_coset_backend_simulates_without_contract_breaks():
    cfg = ModexpConfig(
        INST15,
        WindowParams(2, 2),
        ModexpOptions(deferred_unlookup=True),
        coset_pad=2,
    )
    circuit = build_windowed_modexp(cfg)
    state = run(circuit, modexp_input_state(circuit, seed=9))
    assert len(state.branches) == 16


def test_negative_coset_pad():
    with pytest.raises(ValueError, match="coset_pad must be >= 0"):
        ModexpConfig(INST15, WindowParams(2, 2), coset_pad=-1)


@pytest.mark.parametrize("modulus", [643, 1021])
@pytest.mark.parametrize("variant", CIRCUIT_VARIANTS)
def test_unreduced_table_entries_break_the_adder_contract(monkeypatch, modulus, variant):
    # Every multiplication-table entry that fits its word gets N added. An
    # adder that reduced its source mod N absorbed this fault: original,
    # opt1, opt3 and opt4 then passed the output check with the meter
    # matching exact_cost. The exact adder takes only reduced operands.
    monkeypatch.setattr(builders, "build_mul_table", unreduced(builders.build_mul_table))
    opts = VARIANT_TABLE[variant].options(2)
    circuit = build_windowed_modexp(
        ModexpConfig(ProblemInstance(modulus, 3, 8), WindowParams(3, 3), opts)
    )
    with pytest.raises(ContractViolation, match=f"ModAddOracle source not below N={modulus}"):
        run(circuit, modexp_input_state(circuit))


def test_check_reads_each_x_once_the_exponent_planes_stop_counting():
    # Swapping two exponent planes of a correct final state relabels the
    # branches' x, so the running-product shortcut no longer applies: the
    # check must read x per branch and report every branch whose result
    # then disagrees.
    inst = ProblemInstance(1021, 3, 10)
    cfg = ModexpConfig(inst, WindowParams(3, 3), VARIANT_TABLE["combined"].options(3))
    circuit, state = assert_exact(cfg)
    exp = circuit.register("exponent").qubits
    planes = list(state.planes)
    planes[exp[0]], planes[exp[3]] = planes[exp[3]], planes[exp[0]]
    bad = SparseState(planes, state.phase, state.ones)
    errors = check_modexp_output(circuit, inst, bad)
    assert errors == reference_check(circuit, inst, bad)
    assert len(errors) == 512
    assert all(": result " in error for error in errors)
