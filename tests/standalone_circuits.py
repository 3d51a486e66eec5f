"""Standalone circuits and states for the unit and acceptance tests: the
unary converters, one table lookup and one unlookup, each on registers of
its own, a state holding chosen branches, the circuit text dump that the
gate-stream pins hash, and a table builder with a planted fault.

The modexp circuit emits the same gate producers inline, and
modexp_input_state makes its own state; these wrappers give the tests each
construction alone, so they live beside the tests.
"""

import random
from dataclasses import replace

from wmodexp.builders import (
    phase_fixup_gates,
    select_walk_gates,
    unary_forward_gates,
    xor_payload,
)
from wmodexp.circuit import MEASURE_X, MOD_ADD, PHASE_Z, Circuit, CircuitBuilder, Gate
from wmodexp.numerics import LookupTable
from wmodexp.sim import SparseState, _transpose


def superposition(num_qubits: int, values: dict[int, int], seed: int = 0) -> SparseState:
    """State with the given branch assignments and phases."""
    if not values:
        raise ValueError("state needs at least one branch")
    if any(key < 0 or key >> num_qubits for key in values):
        raise ValueError(f"a branch assignment does not fit {num_qubits} qubits")
    if any(phase not in (1, -1) for phase in values.values()):
        raise ValueError("branch phases must be +1 or -1")
    planes = _transpose(list(values), num_qubits)
    (phase,) = _transpose([int(p < 0) for p in values.values()], 1)
    return SparseState(planes, phase, (1 << len(values)) - 1, random.Random(seed))


def unreduced(build_mul_table):
    """build_mul_table with N added to every entry that still fits the
    table's word: the tables of a builder that forgot to reduce mod N."""

    def build(modulus, *args):
        table = build_mul_table(modulus, *args)
        top = 1 << table.word_bits
        entries = tuple(e + modulus if e + modulus < top else e for e in table.entries)
        return replace(table, entries=entries)

    return build


def build_unary(width: int) -> Circuit:
    """Binary-to-unary converter over `width` input bits by temp-AND
    doubling, as the unlookups build it. Pre: the output register's qubit 0
    is |1>."""
    cb = CircuitBuilder()
    value = cb.add_register("input", width)
    out = cb.add_register("unary_out", 1 << width)
    cb.emit(*unary_forward_gates(value, out))
    cb.result_register = "unary_out"
    return cb.build()


def build_unary_lowdepth(width: int) -> Circuit:
    """Binary-to-unary converter with fanned-out controls: depth equals the
    input width, at the price of 2^(w-1) - 1 routing ancillas. Pre: output
    qubit 0 is |1>."""
    cb = CircuitBuilder()
    value = cb.add_register("input", width)
    out = cb.add_register("unary_out", 1 << width)
    routing = cb.add_register("routing", max(0, (1 << max(width - 1, 0)) - 1))
    cb.emit(*unary_forward_gates(value, out, routing if routing else None))
    cb.result_register = "unary_out"
    return cb.build()


def build_qrom_lookup(table: LookupTable, skip_below: int = 0) -> Circuit:
    """Table lookup: dest ^= table[address] on every branch."""
    cb = CircuitBuilder()
    addr = cb.add_register("address", table.addr_bits)
    dest = cb.add_register("dest", table.word_bits)
    spine = cb.add_register("walk", table.addr_bits + 1)
    cb.emit(*select_walk_gates(addr, spine, xor_payload(table, dest), skip_below))
    cb.result_register = "dest"
    return cb.build()


def build_unlookup(table: LookupTable, lowdepth_unary: bool = False) -> Circuit:
    """Uncompute a dest register holding table[address] back to zero, bit- and
    phase-exactly, as the modexp circuit's immediate unlookup does: X-measure
    dest, then run the phase fixup with the floor(l/2) low address bits
    unarized and one walk over the high bits. Metered cost: 2^u + 2^(l-u) - 2
    temp-ANDs. Pre: dest holds the looked-up entry on every branch."""
    cb = CircuitBuilder()
    addr = cb.add_register("address", table.addr_bits)
    dest = cb.add_register("dest", table.word_bits)
    low_bits = table.addr_bits // 2
    unary = cb.add_register("unary", 1 << low_bits)
    spine = cb.add_register("walk", table.addr_bits - low_bits + 1)
    copies = None
    if lowdepth_unary and low_bits >= 2:
        copies = cb.add_register("routing", (1 << (low_bits - 1)) - 1)
    slot = cb.new_slot("unlook")
    cb.emit(Gate(MEASURE_X, dest, slot=slot))
    walk = [(addr[low_bits:], table, slot)]
    cb.emit(*phase_fixup_gates(addr[:low_bits], unary, spine, copies, walk))
    return cb.build()


def dump_circuit(circuit: Circuit) -> str:
    """One line per gate: `Variant q1 q2 ... [key=value ...]`, preceded by
    register header lines."""
    lines = []
    for reg in circuit.registers:
        ids = " ".join(str(q) for q in reg.qubits)
        lines.append(f"register {reg.name} {ids}")
    if circuit.result_register:
        lines.append(f"result {circuit.result_register}")
    for gate in circuit.gates:
        parts = [gate.name] + [str(q) for q in gate.qubits]
        if gate.name == MEASURE_X:
            parts.append(f"slot={gate.slot}")
        elif gate.name == PHASE_Z:
            parts.append(f"cond={gate.slot}:{gate.mask:x}")
        elif gate.name == MOD_ADD:
            parts.append(f"dest={gate.dest_len}")
            parts.append(f"mod={gate.modulus}")
            parts.append(f"sign={gate.sign:+d}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
