"""Gate-level intermediate representation with Toffoli cost tallies.

Gates act on globally numbered qubits grouped into named registers. The cost
accounting follows the temp-AND convention: TempAndCompute and Toffoli each
count 1; TempAndUncompute is free because it is realized by measurement and
classical feedforward. Depth is ASAP layering along data dependencies, in
which only the counted gates take a layer. A Circuit checks its gates and
takes this meter in one walk, when it is made; tally reads the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

# Gate variant names; these strings are also the dump format's opcodes.
X = "X"
CNOT = "CNOT"
TOFFOLI = "Toffoli"
TEMP_AND = "TempAndCompute"
TEMP_AND_UNDO = "TempAndUncompute"
MEASURE_X = "MeasureXRegister"
PHASE_Z = "ClassicalPhaseZ"
# Gate-set extension: dest -> (dest +/- src) mod N, for the exact adder only
# (coset_pad=None); it books zero Toffolis. Its domain is checked like a
# temp-AND's: the simulator refuses it unless dest, src < N on every branch.
MOD_ADD = "ModAddOracle"

GATE_ARITY = {X: 1, CNOT: 2, TOFFOLI: 3, TEMP_AND: 3, TEMP_AND_UNDO: 3}
COUNTED = frozenset({TOFFOLI, TEMP_AND})
ROLES = ("exponent", "multiplicand", "lookup", "target", "unary", "ancilla", "pad")


class Gate(NamedTuple):
    """One gate. qubits are (controls..., target) for X/CNOT/Toffoli/TempAnd,
    the measured register (low bit first) for MeasureXRegister, and the
    conditioned-on-1 qubits for ClassicalPhaseZ.

    slot names a transcript entry: the outcome destination for a measurement,
    or with mask the parity condition parity(transcript[slot] & mask) gating a
    ClassicalPhaseZ. ModAddOracle uses dest_len/modulus/sign: the first
    dest_len qubits are the destination, the rest the source operand.
    """

    name: str
    qubits: tuple[int, ...]
    slot: str | None = None
    mask: int = 0
    modulus: int = 0
    sign: int = 1
    dest_len: int = 0


@dataclass(frozen=True)
class Register:
    name: str
    qubits: tuple[int, ...]
    role: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown register role {self.role!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"register {self.name} repeats qubits")

    def __len__(self) -> int:
        return len(self.qubits)


@dataclass(frozen=True)
class Tally:
    toffoli_count: int
    toffoli_depth: int
    qubit_highwater: int
    measurement_depth: int


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over named registers. Every gate is checked
    here, once, when the circuit is made, and the same walk takes the
    meter that tally returns. Per gate the checks run in a fixed order:
    distinct operands, then the arity or the kind's own rules, then
    register ownership; the first gate that breaks a rule raises.
    result_register, when set, names the register holding the
    computation's output (builders that rename registers record it here).
    """

    gates: tuple[Gate, ...]
    registers: tuple[Register, ...]
    result_register: str | None = None

    def __post_init__(self) -> None:
        layer: dict[int, int] = {}  # qubit -> deepest counted layer reached
        for reg in self.registers:
            for q in reg.qubits:
                if q in layer:
                    raise ValueError(f"qubit {q} appears in two registers")
                layer[q] = 0
        slots = set()
        count = 0
        try:
            for gate in self.gates:
                name, qubits = gate[0], gate[1]
                arity = GATE_ARITY.get(name)
                if arity == len(qubits):  # well-formed X, CNOT, Toffoli, temp-ANDs: unrolled
                    if arity == 2:
                        c, t = qubits
                        if c == t:
                            raise ValueError(f"{name} operands must be distinct: {qubits}")
                        if layer[c] > layer[t]:
                            layer[t] = layer[c]
                        else:
                            layer[c] = layer[t]
                    elif arity == 3:
                        a, b, t = qubits
                        if a == b or a == t or b == t:
                            raise ValueError(f"{name} operands must be distinct: {qubits}")
                        at = max(layer[a], layer[b], layer[t])
                        if name in COUNTED:
                            count += 1
                            at += 1
                        layer[a] = layer[b] = layer[t] = at
                    elif qubits[0] not in layer:  # an X leaves every layer as it is
                        raise ValueError(f"X acts on qubit {qubits[0]}, which is in no register")
                    continue
                if len(set(qubits)) != len(qubits):
                    raise ValueError(f"{name} operands must be distinct: {qubits}")
                if arity is not None:
                    raise ValueError(f"{name} takes {arity} qubits, got {len(qubits)}")
                if name == MEASURE_X:
                    slot = gate[2]
                    if not qubits or slot is None:
                        raise ValueError("MeasureXRegister needs qubits and a slot")
                    if slot in slots:
                        raise ValueError(f"measurement slot {slot} is used twice")
                    slots.add(slot)
                elif name == PHASE_Z:
                    if not qubits:
                        raise ValueError("ClassicalPhaseZ needs at least one qubit")
                elif name == MOD_ADD:
                    _, _, _, _, modulus, sign, dest_len = gate
                    if not 0 < dest_len < len(qubits):
                        raise ValueError("ModAddOracle needs dest and source qubits")
                    if modulus < 2 or sign not in (1, -1):
                        raise ValueError("ModAddOracle needs modulus >= 2 and sign +/-1")
                    if modulus > 1 << dest_len:
                        raise ValueError(f"ModAddOracle modulus {modulus} exceeds 2**{dest_len}")
                else:
                    raise ValueError(f"unknown gate kind {name!r}")
                at = max(map(layer.__getitem__, qubits))  # none of these is counted
                for q in qubits:
                    layer[q] = at
        except KeyError:
            q = next(q for q in qubits if q not in layer)
            raise ValueError(f"{name} acts on qubit {q}, which is in no register") from None
        meter = Tally(count, max(layer.values(), default=0), len(layer), len(slots))
        object.__setattr__(self, "_meter", meter)

    @property
    def slots(self) -> tuple[str, ...]:
        """Transcript slot names in the order their measurements appear."""
        return tuple(gate.slot for gate in self.gates if gate.name == MEASURE_X)

    @property
    def num_qubits(self) -> int:
        return sum(len(reg) for reg in self.registers)

    def register(self, name: str) -> Register:
        for reg in self.registers:
            if reg.name == name:
                return reg
        raise KeyError(name)


def tally(circuit: Circuit) -> Tally:
    """Cost tally of a circuit, metered once, in the walk that validates
    its gates when the circuit is made.

    toffoli_count sums the counted gates (Toffoli, TempAndCompute).
    toffoli_depth is ASAP layering along data dependencies: every gate
    starts at the deepest layer reached on any of its qubits and passes that
    layer on to all of them, and only counted gates add a layer. So a
    Toffoli that reads a register lands after the uncounted gates (CNOT,
    measurement, ModAddOracle, ...) that wrote it. qubit_highwater is the
    total register allocation (all registers live for the whole circuit).
    measurement_depth counts measurement events, which are inherently serial
    here: each feeds classical corrections consumed before the next.
    """
    return circuit._meter


class CircuitBuilder:
    """Mutable assembler for Circuits: allocates registers and names slots,
    collects the gate lists that builders.py produces, and builds."""

    def __init__(self) -> None:
        self._gates: list[Gate] = []
        self._registers: list[Register] = []
        self._slot_count = 0
        self._next_qubit = 0
        self.result_register: str | None = None

    def add_register(self, name: str, size: int, role: str) -> tuple[int, ...]:
        qubits = tuple(range(self._next_qubit, self._next_qubit + size))
        self._next_qubit += size
        self._registers.append(Register(name, qubits, role))
        return qubits

    def new_slot(self, prefix: str) -> str:
        self._slot_count += 1
        return f"{prefix}.{self._slot_count - 1}"

    def emit(self, *gates: Gate) -> None:
        self._gates.extend(gates)

    def build(self) -> Circuit:
        return Circuit(tuple(self._gates), tuple(self._registers), self.result_register)


def mod_add_gate(dest: tuple[int, ...], src: tuple[int, ...], modulus: int, sign: int) -> Gate:
    """ModAddOracle setting dest to (dest + sign * src) mod modulus."""
    return Gate(MOD_ADD, dest + src, modulus=modulus, sign=sign, dest_len=len(dest))


def invert_gates(gates: list[Gate] | tuple[Gate, ...]) -> list[Gate]:
    """Reverse a measurement-free gate sequence. X/CNOT/Toffoli and
    ClassicalPhaseZ are self-inverse; temp-ANDs swap compute/uncompute roles;
    ModAddOracle flips sign."""
    inverted = []
    for gate in reversed(gates):
        if gate.name == TEMP_AND:
            inverted.append(Gate(TEMP_AND_UNDO, gate.qubits))
        elif gate.name == TEMP_AND_UNDO:
            inverted.append(Gate(TEMP_AND, gate.qubits))
        elif gate.name == MOD_ADD:
            inverted.append(gate._replace(sign=-gate.sign))
        elif gate.name == MEASURE_X:
            raise ValueError("cannot invert across a measurement")
        else:
            inverted.append(gate)
    return inverted
