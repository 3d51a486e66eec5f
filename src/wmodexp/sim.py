"""Sparse phase-tracking simulator.

Every circuit in this package permutes computational basis states and applies
classically controlled phase flips, so a state is just a map from basis
assignments to phases in {+1, -1}. X-basis register measurement is the one
probabilistic element: outcomes are drawn from a seeded RNG (uniform over
bitstrings, which is exact because the measured register is always a
deterministic function of the others), each branch picks up
(-1)^parity(outcome AND register value), and the register is cleared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .circuit import (
    CNOT,
    CSWAP,
    MEASURE_X,
    MOD_ADD,
    PHASE_Z,
    TEMP_AND,
    TEMP_AND_UNDO,
    TOFFOLI,
    X,
    Circuit,
    Gate,
)


class ContractViolation(AssertionError):
    """A gate's precondition failed on some branch (e.g. temp-AND target not
    fresh, or a measured register not a function of the rest)."""


@dataclass
class SparseState:
    """branches maps basis assignment (int, bit q = qubit q) to phase +/-1.
    transcript records measurement outcomes by slot name."""

    num_qubits: int
    branches: dict[int, int]
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    transcript: dict[str, int] = field(default_factory=dict)

    @classmethod
    def superposition(
        cls, num_qubits: int, values: dict[int, int], seed: int = 0
    ) -> "SparseState":
        """State with the given branch assignments and phases."""
        if not values:
            raise ValueError("state needs at least one branch")
        return cls(num_qubits, dict(values), random.Random(seed))

    def canonical(self) -> tuple[tuple[int, int], ...]:
        """Branch list sorted by assignment, for exact state comparison."""
        return tuple(sorted(self.branches.items()))


def extract(key: int, qubits: tuple[int, ...]) -> int:
    """Value of the given qubits (low bit first) inside a basis assignment."""
    value = 0
    for pos, q in enumerate(qubits):
        value |= (key >> q & 1) << pos
    return value


def deposit(key: int, qubits: tuple[int, ...], value: int) -> int:
    """Basis assignment with the given qubits overwritten by value's bits."""
    for pos, q in enumerate(qubits):
        key = key & ~(1 << q) | ((value >> pos & 1) << q)
    return key


def apply(state: SparseState, gate: Gate) -> SparseState:
    """Apply one reversible gate in place and return the state. Measurement
    gates go through measure_x instead."""
    name = gate.name
    branches = state.branches
    if name == X:
        t = 1 << gate.qubits[0]
        state.branches = {key ^ t: phase for key, phase in branches.items()}
    elif name == CNOT:
        c, t = gate.qubits
        cm, tm = 1 << c, 1 << t
        state.branches = {
            (key ^ tm if key & cm else key): phase for key, phase in branches.items()
        }
    elif name in (TOFFOLI, TEMP_AND, TEMP_AND_UNDO):
        c1, c2, t = gate.qubits
        m1, m2, tm = 1 << c1, 1 << c2, 1 << t
        updated: dict[int, int] = {}
        for key, phase in branches.items():
            conjunction = bool(key & m1) and bool(key & m2)
            if name == TEMP_AND and key & tm:
                raise ContractViolation(f"TempAndCompute target {t} not |0> on a branch")
            if name == TEMP_AND_UNDO and bool(key & tm) != conjunction:
                raise ContractViolation(
                    f"TempAndUncompute target {t} does not hold the AND on a branch"
                )
            updated[key ^ tm if conjunction else key] = phase
        state.branches = updated
    elif name == CSWAP:
        c, a, b = gate.qubits
        cm, am, bm = 1 << c, 1 << a, 1 << b
        updated = {}
        for key, phase in branches.items():
            if key & cm and bool(key & am) != bool(key & bm):
                key ^= am | bm
            updated[key] = phase
        state.branches = updated
    elif name == PHASE_Z:
        if gate.slot is not None:
            outcome = state.transcript.get(gate.slot)
            if outcome is None:
                raise ContractViolation(f"ClassicalPhaseZ before measurement {gate.slot}")
            if (outcome & gate.mask).bit_count() & 1 == 0:
                return state
        mask = 0
        for q in gate.qubits:
            mask |= 1 << q
        state.branches = {
            key: (-phase if key & mask == mask else phase)
            for key, phase in branches.items()
        }
    elif name == MOD_ADD:
        dest = gate.qubits[: gate.dest_len]
        src = gate.qubits[gate.dest_len :]
        modulus, sign = gate.modulus, gate.sign
        updated = {}
        for key, phase in branches.items():
            value = extract(key, dest)
            if value < modulus:
                operand = extract(key, src) % modulus
                value = (value + sign * operand) % modulus
                key = deposit(key, dest, value)
            updated[key] = phase
        state.branches = updated
    elif name == MEASURE_X:
        raise ValueError("apply() does not handle measurements; use measure_x")
    else:
        raise ValueError(f"unknown gate {name}")
    return state


def measure_x(state: SparseState, qubits: tuple[int, ...], slot: str) -> tuple[SparseState, int]:
    """X-basis measurement of a register holding a deterministic function of
    the remaining qubits.

    The contract is checked exhaustively: any two branches agreeing outside
    the register must agree inside it. Under it, measuring in the X basis
    yields a uniformly random outcome s, multiplies each branch by
    (-1)^parity(s AND value), and resets the register to zero.
    """
    reg_mask = 0
    for q in qubits:
        reg_mask |= 1 << q
    seen: dict[int, int] = {}
    for key in state.branches:
        rest, value = key & ~reg_mask, key & reg_mask
        if seen.setdefault(rest, value) != value:
            raise ContractViolation(
                f"measured register is not a function of the other registers (slot {slot})"
            )
    outcome = state.rng.getrandbits(len(qubits)) if qubits else 0
    updated: dict[int, int] = {}
    for key, phase in state.branches.items():
        value = extract(key, qubits)
        if (outcome & value).bit_count() & 1:
            phase = -phase
        updated[key & ~reg_mask] = phase
    state.branches = updated
    state.transcript[slot] = outcome
    return state, outcome


def run(circuit: Circuit, state: SparseState) -> SparseState:
    """Run a circuit on the given state in place and return it."""
    for gate in circuit.gates:
        if gate.name == MEASURE_X:
            measure_x(state, gate.qubits, gate.slot)  # type: ignore[arg-type]
        else:
            apply(state, gate)
    return state
