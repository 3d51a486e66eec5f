import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from wmodexp.circuit import (
    CNOT,
    GATE_ARITY,
    MEASURE_X,
    MOD_ADD,
    PHASE_Z,
    TEMP_AND,
    TEMP_AND_UNDO,
    TOFFOLI,
    X,
    Circuit,
    Gate,
    Register,
    invert_gates,
    mod_add_gate,
)
from wmodexp.sim import (
    ContractViolation,
    SparseState,
    _transpose,
    apply,
    extract,
    measure_x,
    run,
)

from standalone_circuits import superposition


def state_of(width, branches, seed=0):
    return superposition(width, branches, seed)


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

    def test_phase_z_before_its_measurement(self):
        s = state_of(1, {0b1: 1})
        with pytest.raises(ContractViolation, match="ClassicalPhaseZ before measurement m"):
            apply(s, Gate("ClassicalPhaseZ", (0,), slot="m", mask=0b1))

    def test_mod_add_wraps(self):
        # dest qubits 0..3 hold 9, src 4..7 hold 13, modulus 15 -> 7
        s = state_of(8, {9 | 13 << 4: 1})
        apply(s, Gate(MOD_ADD, tuple(range(8)), modulus=15, sign=1, dest_len=4))
        assert extract(next(iter(s.branches)), (0, 1, 2, 3)) == 7

    @pytest.mark.parametrize("sign", [1, -1], ids=["add", "subtract"])
    @pytest.mark.parametrize(
        "dest, src, operand",
        [(15, 2, "destination"), (3, 15, "source"), (15, 15, "destination")],
        ids=["dest", "src", "both"],
    )
    def test_mod_add_refuses_an_operand_at_or_above_modulus(self, dest, src, operand, sign):
        # Branch 0 is in the domain and branch 1 is not: the gate refuses
        # the whole state, names the operand and N, and writes nothing.
        s = state_of(8, {1 | 2 << 4: 1, dest | src << 4: -1})
        s.transcript["m"] = 1
        before = (list(s.planes), s.phase, dict(s.transcript))
        gate = Gate(MOD_ADD, tuple(range(8)), modulus=15, sign=sign, dest_len=4)
        with pytest.raises(ContractViolation, match=f"ModAddOracle {operand} .*N=15"):
            apply(s, gate)
        assert (s.planes, s.phase, s.transcript) == before

    @pytest.mark.parametrize("dest_len", [1, 2, 3])
    @pytest.mark.parametrize("src_len", [1, 2, 3])
    def test_mod_add_on_every_reduced_pair(self, dest_len, src_len):
        # One branch per reduced (dest, src) pair, every modulus that fits
        # dest, both signs; the source and the phases stay as they were.
        dest_qubits = tuple(range(dest_len))
        src_qubits = tuple(range(dest_len, dest_len + src_len))
        for modulus in range(2, (1 << dest_len) + 1):
            pairs = [
                (dest, src) for dest in range(modulus) for src in range(min(modulus, 1 << src_len))
            ]
            phases = {dest | src << dest_len: (-1) ** (dest + src) for dest, src in pairs}
            for sign in (1, -1):
                s = state_of(dest_len + src_len, phases)
                apply(s, mod_add_gate(dest_qubits, src_qubits, modulus, sign))
                assert s.branches == {
                    (dest + sign * src) % modulus | src << dest_len: phase
                    for (dest, src), phase in zip(pairs, phases.values())
                }

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
        kind = rng.choice([X, CNOT, TOFFOLI])
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

    @pytest.mark.parametrize(
        "gates, qubits",
        [((Gate(CNOT, (0, 2)), Gate(CNOT, (2, 0))), (2,)), ((), (0,))],
        ids=["planes-changed", "register-overlaps"],
    )
    def test_stale_separating_set_is_rechecked(self, gates, qubits):
        # Planes 0 and 1 tell the four branches apart, and the state declares
        # them, so the first measurement skips the check. Rewriting plane 0,
        # or measuring it, must send the next measurement through the check.
        s = state_of(3, {0b000: 1, 0b101: 1, 0b010: 1, 0b111: 1})
        s.separating = {0: s.planes[0], 1: s.planes[1]}
        measure_x(s, (2,), "m.0")
        for gate in gates:
            apply(s, gate)
        before = (list(s.planes), s.phase, dict(s.transcript), s.rng.getstate())
        with pytest.raises(ContractViolation):
            measure_x(s, qubits, "m.1")
        assert (s.planes, s.phase, s.transcript, s.rng.getstate()) == before

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
        circuit = Circuit(gates, regs)
        # Input: uniform over qubit 0. The CNOT copies it; measuring X with
        # outcome 1 phases the a=1 branch; the fixup phase undoes it exactly.
        s = forcing(state_of(2, {0: 1, 1: 1}), 1)
        run(circuit, s)
        assert s.branches == {0: 1, 1: 1}

    def test_unknown_gate_rejected(self):
        s = state_of(1, {0: 1})
        with pytest.raises(ValueError):
            apply(s, Gate("Hadamard", (0,)))

    def test_apply_refuses_a_measurement(self):
        s = state_of(1, {0: 1})
        with pytest.raises(ValueError, match="use measure_x"):
            apply(s, Gate(MEASURE_X, (0,), slot="m"))


class TestReads:
    def test_branches_at_reads_the_chosen_branches(self):
        # 70 branches span nine bytes of each plane; the top qubit is clear
        # on every branch, and indices may repeat and come in any order.
        rng = random.Random(3)
        branches = {key: rng.choice((1, -1)) for key in rng.sample(range(1 << 11), 70)}
        state = state_of(12, branches)
        items = list(branches.items())
        picks = [69, 3, 3, 0, 64, 8]
        assert state.branches_at(picks) == [items[i] for i in picks]
        assert state.branches_at([]) == []

    def test_branches_at_refuses_indices_outside_the_branches(self):
        # A negative index would wrap round to the last branch, and an index
        # past the last branch of 12 would read a plane's padding bits.
        eight = state_of(4, {key: 1 for key in range(8)})
        with pytest.raises(IndexError, match="-1"):
            eight.branches_at([-1])
        twelve = state_of(4, {key: 1 for key in range(12)})
        with pytest.raises(IndexError, match="12"):
            twelve.branches_at([12, 15])
        assert twelve.branches_at([11]) == [(11, 1)]


def string_transpose(rows, width):
    """The transpose as plain string handling: one binary string per row,
    read column by column."""
    if not rows or not width:
        return [0] * width
    digits = [format(row, f"0{width}b") for row in reversed(rows)]
    return [int("".join(column), 2) for column in zip(*digits)][::-1]


class TestTranspose:
    @pytest.mark.parametrize("count", [0, 1, 5, 63, 64, 65, 130])
    def test_matches_the_string_transpose(self, count):
        # About a fifth of the rows are zero and one row is all ones.
        # 2^14 + 65 columns cross the chunk boundary by one block and one
        # column.
        rng = random.Random(count)
        for width in (1, 2, 63, 64, 65, 1000, 1024, 4097, 20000, (1 << 14) + 65):
            rows = [0 if rng.random() < 0.2 else rng.getrandbits(width) for _ in range(count)]
            if rows:
                rows[rng.randrange(count)] = (1 << width) - 1
            assert _transpose(rows, width) == string_transpose(rows, width), width

    def test_many_narrow_rows(self):
        # The superposition helper's shape: thousands of branch keys as
        # rows, here with the first and a middle group of 64 rows zero.
        rng = random.Random(7)
        rows = [rng.getrandbits(70) for _ in range(3000)]
        rows[0:64] = [0] * 64
        rows[192:256] = [0] * 64
        assert _transpose(rows, 70) == string_transpose(rows, 70)
        assert _transpose([0] * 200, 3) == [0, 0, 0]

    def test_rows_past_a_zero_first_group_keep_their_place(self):
        assert _transpose([0] * 64 + [1], 1) == [1 << 64]
        assert _transpose([0] * 130 + [0b10], 2) == [0, 1 << 130]

    def test_superposition_phase_past_the_first_64_branches(self):
        # Only branch 100 of 101 has phase -1, so the phase transpose sees
        # a first group of 64 zero rows.
        values = {key: 1 for key in range(101)}
        values[100] = -1
        state = superposition(7, values)
        assert state.phase == 1 << 100
        assert state.signs() == [1] * 100 + [-1]

    def test_branches_with_the_low_64_qubits_zero(self):
        # 70 qubits; every branch leaves qubits 0-63 at zero.
        values = {(k + 1) << 64: 1 for k in range(3)}
        state = superposition(70, values)
        assert state.branches == values

    def test_refuses_a_row_that_does_not_fit(self):
        with pytest.raises(ValueError, match="row 0 .*width 2"):
            _transpose([0b101, 0b10], 2)
        with pytest.raises(ValueError, match="row 1 .*width 1"):
            _transpose([1, 2], 1)

    def test_signs_refuse_a_phase_plane_wider_than_the_branches(self):
        # Two branches but a phase bit at branch 2.
        with pytest.raises(ValueError, match="width 2"):
            SparseState([1, 0], 0b100, 0b11).signs()


# ---------------------------------------------------------------------------
# Differential test: sim.run against a per-branch reference interpreter.

WIDTH = 6
WIDE = 12


def reference_run(gates, branches, outcomes, width=WIDTH):
    """Run gates one branch at a time, bits as lists. Returns the branches,
    the transcript and the index of the gate whose contract broke (None if
    none did); on a break the state is the one before that gate."""
    state, transcript, draws = dict(branches), {}, iter(outcomes)
    for index, gate in enumerate(gates):
        name, qs = gate.name, gate.qubits
        if name == MEASURE_X:
            seen = {}
            for key in state:
                rest = tuple(key >> q & 1 for q in range(width) if q not in qs)
                value = [key >> q & 1 for q in qs]
                if seen.setdefault(rest, value) != value:
                    return state, transcript, index
            outcome = transcript[gate.slot] = next(draws)
            updated = {}
            for key, phase in state.items():
                parity = sum((outcome >> i & 1) & (key >> q & 1) for i, q in enumerate(qs)) % 2
                updated[key & ~sum(1 << q for q in qs)] = -phase if parity else phase
            state = updated
            continue
        if name == PHASE_Z and gate.slot is not None:
            if gate.slot not in transcript:
                return state, transcript, index
            if bin(transcript[gate.slot] & gate.mask).count("1") % 2 == 0:
                continue
        updated = {}
        for key, phase in state.items():
            b = [key >> q & 1 for q in range(width)]
            if name == X:
                b[qs[0]] ^= 1
            elif name in (CNOT, TOFFOLI):
                b[qs[-1]] ^= all(b[q] for q in qs[:-1])
            elif name == TEMP_AND:
                if b[qs[2]]:
                    return state, transcript, index
                b[qs[2]] = b[qs[0]] & b[qs[1]]
            elif name == TEMP_AND_UNDO:
                if b[qs[2]] != b[qs[0]] & b[qs[1]]:
                    return state, transcript, index
                b[qs[2]] = 0
            elif name == PHASE_Z and all(b[q] for q in qs):
                phase = -phase
            elif name == MOD_ADD:
                dest, src = qs[: gate.dest_len], qs[gate.dest_len :]
                value = sum(b[q] << i for i, q in enumerate(dest))
                addend = sum(b[q] << i for i, q in enumerate(src))
                if value >= gate.modulus or addend >= gate.modulus:
                    return state, transcript, index
                value += gate.sign * addend
                for i, q in enumerate(dest):
                    b[q] = value % gate.modulus >> i & 1
            updated[sum(bit << q for q, bit in enumerate(b))] = phase
        state = updated
    return state, transcript, None


def engine_run(gates, branches, outcomes, width=WIDTH):
    """sim.run on the circuit, with measurement outcomes forced. On a
    ContractViolation, the failing gate is the shortest prefix that raises."""
    work = (Register("work", tuple(range(width)), "ancilla"),)

    def attempt(count):
        state = state_of(width, branches)
        draws = iter(outcomes)
        state.rng = SimpleNamespace(getrandbits=lambda bits: next(draws))
        try:
            run(Circuit(tuple(gates[:count]), work), state)
        except ContractViolation:
            return state, True
        return state, False

    state, broke = attempt(len(gates))
    failed = next(k for k in range(len(gates)) if attempt(k + 1)[1]) if broke else None
    return state.branches, state.transcript, failed


@st.composite
def random_circuits(draw, width=WIDTH, value_bits=WIDTH // 2, branch_range=(1, 6)):
    """A valid gate list over all eight kinds on width qubits, one forced
    outcome per measurement, and a branch count in branch_range, each below
    2**value_bits; by default the high half starts at |0>, like the ancillas
    of a built circuit. TempAnd pairs and ModAddOracle operands may break
    their contracts on purpose, and a conditioned phase may name a slot
    that is never measured."""
    qubits = st.permutations(range(width))
    gates, outcomes = [], []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from([*GATE_ARITY, "pair", MEASURE_X, PHASE_Z, MOD_ADD]))
        order = draw(qubits)
        if kind == "pair":
            gates.append(Gate(TEMP_AND, tuple(order[:3])))
            between = draw(st.sampled_from([X, CNOT, TOFFOLI]))
            gates.append(Gate(between, tuple(draw(qubits)[: GATE_ARITY[between]])))
            gates.append(Gate(TEMP_AND_UNDO, tuple(order[:3])))
        elif kind in GATE_ARITY:
            gates.append(Gate(kind, tuple(order[: GATE_ARITY[kind]])))
        elif kind == MEASURE_X:
            size = draw(st.integers(1, 3))
            slot = f"m.{len(outcomes)}"
            gates.append(Gate(MEASURE_X, tuple(order[:size]), slot=slot))
            outcomes.append(draw(st.integers(0, (1 << size) - 1)))
            # A fixup conditioned on the outcome just drawn, as builders emit.
            gates.append(Gate(PHASE_Z, (order[size],), slot, draw(st.integers(1, 7))))
        elif kind == PHASE_Z:
            slot = draw(st.sampled_from([None, *(f"m.{k}" for k in range(len(outcomes)))]))
            if draw(st.integers(0, 9)) == 0:
                slot = "m.never"
            mask = draw(st.integers(0, 7))
            gates.append(Gate(PHASE_Z, tuple(order[: draw(st.integers(1, 3))]), slot, mask))
        else:
            dest_len = draw(st.integers(1, 3))
            src_len = draw(st.integers(1, width - dest_len))
            modulus = draw(st.integers(2, 1 << dest_len))
            sign = draw(st.sampled_from([1, -1]))
            gates.append(mod_add_gate(order[:dest_len], order[dest_len:][:src_len], modulus, sign))
    values = st.integers(0, (1 << value_bits) - 1)
    phases = st.sampled_from([1, -1])
    fewest, most = branch_range
    branches = draw(st.dictionaries(values, phases, min_size=fewest, max_size=most))
    return gates, branches, outcomes


class TestDifferential:
    @given(random_circuits())
    @settings(max_examples=200, deadline=None)
    def test_engine_matches_reference(self, case):
        gates, branches, outcomes = case
        assert engine_run(gates, branches, outcomes) == reference_run(gates, branches, outcomes)

    # 16 to 64 branches over all WIDE qubits: planes span several int digits,
    # measurement keys span many planes and often collide with two register
    # values, and most ModAddOracle gates meet an operand at or above the
    # modulus on some branch, so they test the refusal.
    @given(random_circuits(WIDE, WIDE, (16, 64)))
    @settings(max_examples=100, deadline=None)
    def test_engine_matches_reference_on_wide_states(self, case):
        gates, branches, outcomes = case
        assert engine_run(gates, branches, outcomes, WIDE) == reference_run(
            gates, branches, outcomes, WIDE
        )
