"""End-to-end windowed modular exponentiation, under every flag combination."""

import itertools

import pytest

from wmodexp.builders import (
    COSET,
    EXACT_MODULAR,
    ModexpConfig,
    ModexpOptions,
    build_lookup_add,
    build_windowed_modexp,
    check_modexp_output,
    modexp_input_state,
)
from wmodexp.circuit import tally
from wmodexp.numerics import (
    ProblemInstance,
    WindowParams,
    build_mul_table,
)
from wmodexp.sim import SparseState, deposit, extract, run

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
    state = run(circuit, modexp_input_state(circuit, seed=seed), seed=seed)
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


def test_single_exponent_value():
    cfg = ModexpConfig(INST15, WindowParams(2, 2))
    circuit = build_windowed_modexp(cfg)
    state = run(circuit, modexp_input_state(circuit, exponents=[0]))
    (key,) = state.branches
    result = circuit.register(circuit.result_register).qubits
    assert extract(key, result) == 1
    assert key == deposit(0, result, 1)  # exponent 0, workspace clear


def test_deferred_output_independent_of_measurement_seed():
    cfg = ModexpConfig(INST15, WindowParams(2, 2), ModexpOptions(deferred_unlookup=True))
    circuit = build_windowed_modexp(cfg)
    reference = None
    for seed in range(10):
        state = run(circuit, modexp_input_state(circuit, seed=seed), seed=seed)
        if reference is None:
            reference = state.canonical()
        assert state.canonical() == reference


def test_forced_zero_outcomes_disable_every_fixup():
    # outcome 0 makes every fixup mask parity even, so no phase gate fires,
    # yet the output is still exact
    cfg = ModexpConfig(INST15, WindowParams(2, 2), ModexpOptions(deferred_unlookup=True))
    circuit = build_windowed_modexp(cfg)
    forced = {slot: 0 for slot in circuit.slots}
    state = run(circuit, modexp_input_state(circuit), forced_outcomes=forced)
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


def test_coset_backend_books_ripple_adders():
    plain = ModexpConfig(INST15, WindowParams(2, 2))
    coset = ModexpConfig(INST15, WindowParams(2, 2), adder=COSET, coset_pad=2)
    base = tally(build_windowed_modexp(plain)).toffoli_count
    full = tally(build_windowed_modexp(coset)).toffoli_count
    # 8 lookup-additions, each adding a width-6 ripple of 12 Toffolis
    assert full == base + 8 * 2 * 6


def test_coset_backend_simulates_without_contract_breaks():
    cfg = ModexpConfig(
        INST15,
        WindowParams(2, 2),
        ModexpOptions(deferred_unlookup=True),
        adder=COSET,
        coset_pad=2,
    )
    circuit = build_windowed_modexp(cfg)
    state = run(circuit, modexp_input_state(circuit, seed=9), seed=9)
    assert len(state.branches) == 16


def test_lookup_add_matches_table():
    cfg = ModexpConfig(INST15, WindowParams(2, 2))
    circuit = build_lookup_add(cfg, 0, 1)
    table = build_mul_table(INST15, WindowParams(2, 2), 0, 1)
    exp = circuit.register("exponent").qubits
    acc = circuit.register("multiplicand").qubits
    tgt = circuit.register("target").qubits
    for e in range(4):
        for m in range(4):
            key = deposit(deposit(0, exp, e), acc, m << 2)
            state = run(
                circuit, SparseState.superposition(circuit.num_qubits, {key: 1}), seed=1
            )
            (out,) = state.branches
            assert extract(out, tgt) == table[(m << 2) | e]
            assert extract(out, circuit.register("lookup").qubits) == 0


def test_lookup_add_zero_mult_window_adds_nothing():
    for selective in (False, True):
        cfg = ModexpConfig(
            INST15, WindowParams(2, 2), ModexpOptions(selective_lookup=selective)
        )
        circuit = build_lookup_add(cfg, 0, 0)
        exp = circuit.register("exponent").qubits
        tgt = circuit.register("target").qubits
        state = run(
            circuit,
            SparseState.superposition(
                circuit.num_qubits, {deposit(0, exp, e): 1 for e in range(4)}
            ),
            seed=2,
        )
        assert all(extract(k, tgt) == 0 for k in state.branches)


def test_lookup_add_selective_zero_exponent_is_shifted_copy():
    # with exponent window 0 the table entry is just mult * 2^(j*wm) mod N
    cfg = ModexpConfig(INST15, WindowParams(2, 2), ModexpOptions(selective_lookup=True))
    circuit = build_lookup_add(cfg, 0, 1)
    acc = circuit.register("multiplicand").qubits
    tgt = circuit.register("target").qubits
    for m in range(1, 4):
        state = run(
            circuit,
            SparseState.superposition(
                circuit.num_qubits, {deposit(0, acc, m << 2): 1}
            ),
            seed=4,
        )
        (out,) = state.branches
        assert extract(out, tgt) == (m << 2) % 15


def test_lookup_add_rejects_all_initial():
    cfg = ModexpConfig(INST15, WindowParams(2, 2), ModexpOptions(initial_lookup_bits=4))
    with pytest.raises(ValueError):
        build_lookup_add(cfg, 0, 0)


def test_bad_adder_name():
    with pytest.raises(ValueError):
        ModexpConfig(INST15, WindowParams(2, 2), adder="lookup")
