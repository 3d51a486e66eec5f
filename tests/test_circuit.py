import random
from dataclasses import replace

import pytest

from wmodexp.circuit import (
    CNOT,
    COUNTED,
    MEASURE_X,
    MOD_ADD,
    PHASE_Z,
    TEMP_AND,
    TEMP_AND_UNDO,
    TOFFOLI,
    X,
    Circuit,
    CircuitBuilder,
    Gate,
    Register,
    Tally,
    invert_gates,
    mod_add_gate,
    tally,
)

from standalone_circuits import dump_circuit


def circuit_over(width, gates, **kwargs):
    regs = (Register("work", tuple(range(width)), "ancilla"),)
    return Circuit(tuple(gates), regs, **kwargs)


class TestTally:
    def test_empty(self):
        t = tally(circuit_over(3, []))
        assert t == Tally(0, 0, 3, 0)

    def test_disjoint_toffolis_depth_one(self):
        gates = [Gate(TOFFOLI, (3 * k, 3 * k + 1, 3 * k + 2)) for k in range(4)]
        t = tally(circuit_over(12, gates))
        assert t.toffoli_count == 4
        assert t.toffoli_depth == 1

    def test_serial_chain(self):
        # Oracle: interval scheduling of gates sharing qubit 0 is strictly serial.
        gates = [Gate(TOFFOLI, (0, k + 1, k + 5)) for k in range(4)]
        t = tally(circuit_over(9, gates))
        assert t.toffoli_count == 4
        assert t.toffoli_depth == 4

    def test_temp_and_undo_is_free(self):
        gates = [Gate(TEMP_AND, (0, 1, 2)), Gate(TEMP_AND_UNDO, (0, 1, 2))]
        t = tally(circuit_over(3, gates))
        assert t.toffoli_count == 1
        assert t.toffoli_depth == 1

    def test_mod_add_books_zero(self):
        gate = Gate(MOD_ADD, (0, 1, 2, 3), modulus=3, sign=1, dest_len=2)
        t = tally(circuit_over(4, [gate]))
        assert t.toffoli_count == 0

    def test_uncounted_gates_carry_layers(self):
        # The second Toffoli reads what the first wrote, through a CNOT and a
        # ModAddOracle; an X between them changes nothing.
        gates = [
            Gate(TOFFOLI, (0, 1, 2)),
            Gate(CNOT, (2, 3)),
            mod_add_gate((4, 5), (3,), 3, 1),
            Gate(X, (5,)),
            Gate(TOFFOLI, (5, 6, 7)),
        ]
        t = tally(circuit_over(8, gates))
        assert (t.toffoli_count, t.toffoli_depth) == (2, 2)

    def test_depth_never_exceeds_count(self):
        gates = [Gate(TOFFOLI, (0, 1, 2)), Gate(TOFFOLI, (3, 4, 5)), Gate(TOFFOLI, (0, 3, 6))]
        t = tally(circuit_over(7, gates))
        assert t.toffoli_depth <= t.toffoli_count
        assert t.toffoli_depth == 2


def asap_reference(circuit):
    """The meter by definition: each non-X gate starts at the deepest layer
    on its qubits and leaves all of them there, one deeper if counted."""
    layer = {q: 0 for reg in circuit.registers for q in reg.qubits}
    count = 0
    for gate in circuit.gates:
        if gate.name != X:
            counted = gate.name in COUNTED
            at = max(layer[q] for q in gate.qubits) + counted
            count += counted
            for q in gate.qubits:
                layer[q] = at
    measured = sum(gate.name == MEASURE_X for gate in circuit.gates)
    return Tally(count, max(layer.values(), default=0), len(layer), measured)


def random_circuit(rng):
    """A well-formed circuit drawing every gate kind over two registers."""
    sizes = (rng.randint(1, 5), rng.randint(3, 6))
    regs = (
        Register("a", tuple(range(sizes[0])), "ancilla"),
        Register("b", tuple(range(sizes[0], sum(sizes))), "target"),
    )
    qubits = list(range(sum(sizes)))
    gates, slots = [], []
    for _ in range(rng.randint(0, 40)):
        kind = rng.choice([X, CNOT, TOFFOLI, TEMP_AND, TEMP_AND_UNDO, MEASURE_X, PHASE_Z, MOD_ADD])
        if kind in (X, CNOT, TOFFOLI, TEMP_AND, TEMP_AND_UNDO):
            arity = {X: 1, CNOT: 2}.get(kind, 3)
            gates.append(Gate(kind, tuple(rng.sample(qubits, arity))))
        elif kind == MEASURE_X:
            slots.append(f"m.{len(slots)}")
            picked = tuple(rng.sample(qubits, rng.randint(1, 3)))
            gates.append(Gate(MEASURE_X, picked, slot=slots[-1]))
        elif kind == PHASE_Z:
            slot = rng.choice(slots) if slots and rng.random() < 0.5 else None
            picked = tuple(rng.sample(qubits, rng.randint(1, 2)))
            gates.append(Gate(PHASE_Z, picked, slot=slot, mask=rng.randrange(8) if slot else 0))
        else:
            a, b, src = rng.sample(qubits, 3)
            sign = rng.choice((1, -1))
            gates.append(mod_add_gate((a, b), (src,), rng.randint(2, 4), sign))
    return Circuit(tuple(gates), regs)


class TestMeter:
    def test_matches_the_asap_reference(self):
        rng = random.Random(2024)
        kinds = set()
        for _ in range(200):
            circuit = random_circuit(rng)
            kinds.update(gate.name for gate in circuit.gates)
            assert tally(circuit) == asap_reference(circuit), dump_circuit(circuit)
        assert kinds == {X, CNOT, TOFFOLI, TEMP_AND, TEMP_AND_UNDO, MEASURE_X, PHASE_Z, MOD_ADD}

    def test_replaced_circuit_is_metered_afresh(self):
        circuit = circuit_over(4, [Gate(TOFFOLI, (0, 1, 2))])
        more = (Gate(MEASURE_X, (2,), slot="m"), Gate(TEMP_AND, (2, 3, 0)))
        longer = replace(circuit, gates=circuit.gates + more)
        assert tally(circuit) == Tally(1, 1, 4, 0)
        assert tally(longer) == Tally(2, 2, 4, 1)
        assert tally(replace(longer, gates=())) == Tally(0, 0, 4, 0)


class TestValidation:
    def test_unknown_qubit(self):
        with pytest.raises(ValueError, match="Toffoli acts on qubit 5, which is in no register"):
            circuit_over(2, [Gate(TOFFOLI, (0, 1, 5))])

    def test_duplicate_operand(self):
        with pytest.raises(ValueError):
            circuit_over(2, [Gate(TOFFOLI, (0, 0, 1))])

    @pytest.mark.parametrize(
        "gates",
        [
            pytest.param([Gate(X, (0, 1))], id="x-arity"),
            pytest.param([Gate(CNOT, (0,))], id="cnot-arity"),
            pytest.param([Gate(TOFFOLI, (0, 1))], id="toffoli-arity"),
            pytest.param([Gate(TEMP_AND, (0, 1, 2, 3))], id="temp-and-arity"),
            pytest.param([Gate(TEMP_AND_UNDO, (0,))], id="temp-and-undo-arity"),
            pytest.param([Gate(MEASURE_X, (0,))], id="measure-without-slot"),
            pytest.param([Gate(MEASURE_X, (), slot="m")], id="measure-without-qubits"),
            pytest.param([Gate(PHASE_Z, ())], id="empty-phase-z"),
            pytest.param([Gate(MOD_ADD, (0, 1), modulus=3, dest_len=0)], id="mod-add-no-dest"),
            pytest.param([Gate(MOD_ADD, (0, 1), modulus=3, dest_len=2)], id="mod-add-no-src"),
            pytest.param([Gate(MOD_ADD, (0, 1), modulus=1, dest_len=1)], id="mod-add-modulus"),
            pytest.param([Gate(MOD_ADD, (0, 1), modulus=3, sign=0, dest_len=1)], id="mod-add-sign"),
            pytest.param(
                [Gate(MOD_ADD, (0, 1, 2), modulus=5, dest_len=2)], id="mod-add-too-wide"
            ),
            pytest.param([Gate("Tofoli", (0, 1, 2))], id="unknown-kind"),
            pytest.param(
                [Gate(MEASURE_X, (0,), slot="m"), Gate(MEASURE_X, (1,), slot="m")],
                id="repeated-slot",
            ),
        ],
    )
    def test_bad_gate_rejected_at_assembly(self, gates):
        with pytest.raises(ValueError):
            circuit_over(4, gates)

    @pytest.mark.parametrize(
        ("gates", "error", "message"),
        [
            ([Gate(CNOT, (1, 1))], ValueError, "CNOT operands must be distinct: (1, 1)"),
            ([Gate(TEMP_AND, (0, 2, 2))], ValueError, "TempAndCompute operands must be distinct"),
            ([Gate(X, (1, 1))], ValueError, "X operands must be distinct: (1, 1)"),
            ([Gate(TOFFOLI, (0, 0))], ValueError, "Toffoli operands must be distinct: (0, 0)"),
            ([Gate(CNOT, (3, 3, 9))], ValueError, "CNOT operands must be distinct"),
            ([Gate(MEASURE_X, (2, 2), slot="m")], ValueError, "MeasureXRegister operands"),
            ([Gate("Tofoli", (0, 0, 1))], ValueError, "Tofoli operands must be distinct"),
            ([Gate(X, (0, 9))], ValueError, "X takes 1 qubits, got 2"),
            ([Gate(CNOT, (9,))], ValueError, "CNOT takes 2 qubits, got 1"),
            ([Gate(TEMP_AND_UNDO, (0, 1))], ValueError, "TempAndUncompute takes 3 qubits, got 2"),
            ([Gate(MEASURE_X, (9,))], ValueError, "MeasureXRegister needs qubits and a slot"),
            ([Gate(PHASE_Z, ())], ValueError, "ClassicalPhaseZ needs at least one qubit"),
            (
                [Gate(MOD_ADD, (0, 9), modulus=3, dest_len=2)],
                ValueError,
                "ModAddOracle needs dest and source qubits",
            ),
            (
                [Gate(MOD_ADD, (0, 9), modulus=3, sign=2, dest_len=1)],
                ValueError,
                "ModAddOracle needs modulus >= 2 and sign +/-1",
            ),
            (
                [Gate(MOD_ADD, (0, 1, 9), modulus=5, dest_len=2)],
                ValueError,
                "ModAddOracle modulus 5 exceeds 2**2",
            ),
            ([Gate("Tofoli", (9,))], ValueError, "unknown gate kind 'Tofoli'"),
            (
                [Gate(MEASURE_X, (0,), slot="m"), Gate(MEASURE_X, (9,), slot="m")],
                ValueError,
                "measurement slot m is used twice",
            ),
            ([Gate(X, (9,))], ValueError, "X acts on qubit 9, which is in no register"),
            ([Gate(X, (-1,))], ValueError, "X acts on qubit -1, which is in no register"),
            ([Gate(CNOT, (0, 7))], ValueError, "CNOT acts on qubit 7, which is in no register"),
            ([Gate(CNOT, (8, 7))], ValueError, "CNOT acts on qubit 8, which is in no register"),
            (
                [Gate(TEMP_AND, (0, 6, 5))],
                ValueError,
                "TempAndCompute acts on qubit 6, which is in no register",
            ),
            (
                [Gate(PHASE_Z, (1, 8), slot="m", mask=1)],
                ValueError,
                "ClassicalPhaseZ acts on qubit 8, which is in no register",
            ),
            (
                [Gate(MEASURE_X, (0, 5), slot="m")],
                ValueError,
                "MeasureXRegister acts on qubit 5, which is in no register",
            ),
            (
                [mod_add_gate((0, 1), (7,), 3, 1)],
                ValueError,
                "ModAddOracle acts on qubit 7, which is in no register",
            ),
            (
                [Gate(X, (9,)), Gate(CNOT, (1, 1))],
                ValueError,
                "X acts on qubit 9, which is in no register",
            ),
            ([Gate(CNOT, (0, 1)), Gate(TOFFOLI, (2, 2, 9))], ValueError, "Toffoli operands"),
        ],
    )
    def test_first_broken_rule_is_reported(self, gates, error, message):
        # Per gate: distinct operands, then arity or the kind's own rule,
        # then register ownership; the first bad gate wins.
        with pytest.raises(error) as caught:
            circuit_over(4, gates)
        assert type(caught.value) is error
        assert str(caught.value).startswith(message)

    def test_slots_follow_the_measurements(self):
        gates = [Gate(MEASURE_X, (1,), slot="b"), Gate(X, (0,)), Gate(MEASURE_X, (0,), slot="a")]
        assert circuit_over(2, gates).slots == ("b", "a")

    def test_overlapping_registers(self):
        regs = (
            Register("a", (0, 1), "ancilla"),
            Register("b", (1, 2), "ancilla"),
        )
        with pytest.raises(ValueError):
            Circuit((), regs)

    def test_bad_role(self):
        with pytest.raises(ValueError):
            Register("a", (0,), "scratch")

    def test_register_repeating_a_qubit(self):
        with pytest.raises(ValueError, match="register a repeats qubits"):
            Register("a", (0, 1, 0), "ancilla")

    def test_unknown_register_name(self):
        circuit = circuit_over(2, [])
        assert circuit.register("work").qubits == (0, 1)
        with pytest.raises(KeyError, match="nope"):
            circuit.register("nope")


class TestDumpFormat:
    def build_sample(self):
        cb = CircuitBuilder()
        a = cb.add_register("addr", 2, "exponent")
        d = cb.add_register("data", 3, "lookup")
        cb.emit(
            Gate(X, (a[0],)),
            Gate(TOFFOLI, (a[0], a[1], d[0])),
            Gate(TEMP_AND, (a[0], a[1], d[1])),
            Gate(MEASURE_X, d, slot=cb.new_slot("m")),
            Gate(PHASE_Z, (a[0],), slot="m.0", mask=0x5),
            Gate(PHASE_Z, (a[1],)),
            mod_add_gate((d[0], d[1]), (a[0], a[1]), 3, -1),
        )
        cb.result_register = "data"
        return cb.build()

    def test_round_trip(self):
        assert dump_circuit(self.build_sample()) == (
            "register addr exponent 0 1\n"
            "register data lookup 2 3 4\n"
            "result data\n"
            "X 0\n"
            "Toffoli 0 1 2\n"
            "TempAndCompute 0 1 3\n"
            "MeasureXRegister 2 3 4 slot=m.0\n"
            "ClassicalPhaseZ 0 cond=m.0:5\n"
            "ClassicalPhaseZ 1\n"
            "ModAddOracle 2 3 0 1 dest=2 mod=3 sign=-1\n"
        )

    def test_one_gate_per_line(self):
        circuit = self.build_sample()
        gate_lines = [
            line
            for line in dump_circuit(circuit).splitlines()
            if line and not line.startswith(("register", "result"))
        ]
        assert len(gate_lines) == len(circuit.gates)


class TestBuilderHelpers:
    def test_invert_gates(self):
        gates = [
            Gate(TEMP_AND_UNDO, (0, 1, 3)),
            Gate(TEMP_AND, (0, 1, 2)),
            Gate(TOFFOLI, (0, 1, 3)),
            Gate(MOD_ADD, (0, 1, 2, 3), modulus=3, sign=1, dest_len=2),
        ]
        inv = invert_gates(gates)
        assert inv[0].name == MOD_ADD and inv[0].sign == -1
        assert inv[2] == Gate(TEMP_AND_UNDO, (0, 1, 2))
        assert inv[3] == Gate(TEMP_AND, (0, 1, 3))

    def test_invert_refuses_measurement(self):
        with pytest.raises(ValueError):
            invert_gates([Gate("MeasureXRegister", (0,), slot="m")])
