import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from wmodexp.circuit import (
    CNOT,
    CSWAP,
    MOD_ADD,
    TOFFOLI,
    X,
    Circuit,
    Gate,
    Register,
    invert_gates,
)
from wmodexp.sim import ContractViolation, SparseState, apply, extract, measure_x, run


def state_of(width, branches, seed=0):
    return SparseState.superposition(width, branches, seed)


def forcing(state, outcome):
    """state with its RNG replaced so that every measurement draws outcome."""
    state.rng = SimpleNamespace(getrandbits=lambda bits: outcome)
    return state


class TestGateSemantics:
    def test_toffoli_fires(self):
        s = state_of(3, {0b011: 1})
        apply(s, Gate(TOFFOLI, (0, 1, 2)))
        assert s.branches == {0b111: 1}

    def test_toffoli_idle(self):
        s = state_of(3, {0b001: 1})
        apply(s, Gate(TOFFOLI, (0, 1, 2)))
        assert s.branches == {0b001: 1}

    def test_cswap_control_zero(self):
        s = state_of(3, {0b010: 1})
        apply(s, Gate(CSWAP, (0, 1, 2)))
        assert s.branches == {0b010: 1}

    def test_cswap_control_one(self):
        s = state_of(3, {0b011: 1})
        apply(s, Gate(CSWAP, (0, 1, 2)))
        assert s.branches == {0b101: 1}

    def test_temp_and_contract(self):
        s = state_of(3, {0b111: 1})
        with pytest.raises(ContractViolation):
            apply(s, Gate("TempAndCompute", (0, 1, 2)))

    def test_temp_and_undo_contract(self):
        s = state_of(3, {0b100: 1})  # target set but controls are 00
        with pytest.raises(ContractViolation):
            apply(s, Gate("TempAndUncompute", (0, 1, 2)))

    def test_phase_z_unconditioned(self):
        s = state_of(2, {0b11: 1, 0b01: 1})
        apply(s, Gate("ClassicalPhaseZ", (0, 1)))
        assert s.branches == {0b11: -1, 0b01: 1}

    def test_phase_z_conditioned_on_transcript(self):
        s = state_of(1, {0b1: 1})
        s.transcript["m"] = 0b10
        apply(s, Gate("ClassicalPhaseZ", (0,), slot="m", mask=0b10))
        assert s.branches == {0b1: -1}
        apply(s, Gate("ClassicalPhaseZ", (0,), slot="m", mask=0b01))
        assert s.branches == {0b1: -1}  # even parity: no flip

    def test_mod_add_wraps(self):
        # dest qubits 0..3 hold 9, src 4..7 hold 13, modulus 15 -> 7
        s = state_of(8, {9 | 13 << 4: 1})
        apply(s, Gate(MOD_ADD, tuple(range(8)), modulus=15, sign=1, dest_len=4))
        assert extract(next(iter(s.branches)), (0, 1, 2, 3)) == 7

    def test_mod_add_identity_above_modulus(self):
        s = state_of(8, {15 | 2 << 4: 1})
        apply(s, Gate(MOD_ADD, tuple(range(8)), modulus=15, sign=1, dest_len=4))
        assert extract(next(iter(s.branches)), (0, 1, 2, 3)) == 15

    def test_mod_add_subtract_inverts(self):
        fwd = Gate(MOD_ADD, tuple(range(8)), modulus=13, sign=1, dest_len=4)
        back = Gate(MOD_ADD, tuple(range(8)), modulus=13, sign=-1, dest_len=4)
        for dest in range(13):
            for src in range(13):
                s = state_of(8, {dest | src << 4: 1})
                apply(apply(s, fwd), back)
                assert s.branches == {dest | src << 4: 1}


def random_reversible_gates(rng, width, count):
    gates = []
    for _ in range(count):
        kind = rng.choice([X, CNOT, TOFFOLI, CSWAP])
        qubits = tuple(rng.sample(range(width), {X: 1, CNOT: 2}.get(kind, 3)))
        gates.append(Gate(kind, qubits))
    return gates


class TestReversibility:
    @given(st.integers(0, 999))
    @settings(max_examples=40)
    def test_apply_then_inverse_is_identity(self, seed):
        rng = random.Random(seed)
        width = 6
        gates = random_reversible_gates(rng, width, 25)
        branches = {rng.getrandbits(width): rng.choice((1, -1)) for _ in range(8)}
        s = state_of(width, dict(branches))
        for g in gates:
            apply(s, g)
        for g in invert_gates(gates):
            apply(s, g)
        assert s.branches == branches

    def test_permutation_property(self):
        # A reversible circuit maps each basis input to exactly one output.
        rng = random.Random(7)
        gates = random_reversible_gates(rng, 5, 30)
        outputs = set()
        for value in range(32):
            s = state_of(5, {value: 1})
            for g in gates:
                apply(s, g)
            (out, phase), = s.branches.items()
            assert phase == 1
            outputs.add(out)
        assert outputs == set(range(32))


class TestMeasureX:
    def test_zero_register_any_seed(self):
        for seed in range(10):
            s = state_of(4, {0b0001: 1, 0b0010: -1}, seed=seed)
            measure_x(s, (2, 3), "m")
            assert s.branches == {0b0001: 1, 0b0010: -1}

    def test_single_branch_global_phase(self):
        s = forcing(state_of(3, {0b111: 1}), 0b11)
        measure_x(s, (1, 2), "m")
        ((key, phase),) = s.branches.items()
        assert key == 0b001  # register cleared
        assert phase in (1, -1)

    def test_two_branch_relative_phase(self):
        # Oracle: 4-dim matrix calculation. Register holds {00, 11}; forcing
        # outcome 11 leaves parity 0 on the 00 branch and parity 2 on 11 -> no
        # flips; forcing 01 or 10 flips only the 11 branch.
        for outcome, expected in [(0b11, 1), (0b01, -1), (0b10, -1)]:
            s = forcing(state_of(3, {0b000: 1, 0b111: 1}), outcome)
            measure_x(s, (1, 2), "m")
            assert s.branches[0b000] == 1
            assert s.branches[0b001] == expected

    def test_contract_violation(self):
        s = state_of(3, {0b000: 1, 0b100: 1})  # same non-reg bits, reg differs
        with pytest.raises(ContractViolation):
            measure_x(s, (2,), "m")

    def test_transcript_recorded(self):
        s = forcing(state_of(2, {0b00: 1}), 2)
        _, outcome = measure_x(s, (0, 1), "m")
        assert outcome == 2
        assert s.transcript["m"] == 2

    def test_seeded_outcomes_replay(self):
        def one_run(seed):
            s = state_of(4, {v | (v << 2 & 0b1100): 1 for v in range(4)}, seed=seed)
            _, outcome = measure_x(s, (2, 3), "m")
            return outcome

        assert one_run(123) == one_run(123)


class TestRun:
    def test_run_with_measurement(self):
        regs = (Register("a", (0,), "exponent"), Register("l", (1,), "lookup"))
        gates = (
            Gate(CNOT, (0, 1)),
            Gate("MeasureXRegister", (1,), slot="m.0"),
            Gate("ClassicalPhaseZ", (0,), slot="m.0", mask=1),
        )
        circuit = Circuit(gates, regs, ("m.0",))
        # Input: uniform over qubit 0. The CNOT copies it; measuring X with
        # outcome 1 phases the a=1 branch; the fixup phase undoes it exactly.
        s = forcing(state_of(2, {0: 1, 1: 1}), 1)
        run(circuit, s)
        assert s.canonical() == ((0, 1), (1, 1))

    def test_unknown_gate_rejected(self):
        s = state_of(1, {0: 1})
        with pytest.raises(ValueError):
            apply(s, Gate("Hadamard", (0,)))
