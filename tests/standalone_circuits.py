"""Standalone circuits for the unit and acceptance tests: the unary
converters, one table lookup and one unlookup, each on registers of its own.

The modexp circuit emits the same gate producers inline; these wrappers give
the tests each construction alone, so they live beside the tests.
"""

from wmodexp.builders import select_walk_gates, unary_forward_gates, unlookup_gates, xor_payload
from wmodexp.circuit import Circuit, CircuitBuilder
from wmodexp.numerics import LookupTable


def build_unary(width: int) -> Circuit:
    """Binary-to-unary converter over `width` input bits by temp-AND
    doubling, as the unlookups build it. Pre: the output register's qubit 0
    is |1>."""
    cb = CircuitBuilder()
    value = cb.add_register("input", width, "exponent")
    out = cb.add_register("unary_out", 1 << width, "unary")
    cb.emit(*unary_forward_gates(value, out))
    cb.result_register = "unary_out"
    return cb.build()


def build_unary_lowdepth(width: int) -> Circuit:
    """Binary-to-unary converter with fanned-out controls: depth equals the
    input width, at the price of 2^(w-1) - 1 routing ancillas. Pre: output
    qubit 0 is |1>."""
    cb = CircuitBuilder()
    value = cb.add_register("input", width, "exponent")
    out = cb.add_register("unary_out", 1 << width, "unary")
    routing = cb.add_register("routing", max(0, (1 << max(width - 1, 0)) - 1), "ancilla")
    cb.emit(*unary_forward_gates(value, out, routing if routing else None))
    cb.result_register = "unary_out"
    return cb.build()


def build_qrom_lookup(table: LookupTable, skip_below: int = 0) -> Circuit:
    """Table lookup: dest ^= table[address] on every branch."""
    cb = CircuitBuilder()
    addr = cb.add_register("address", table.addr_bits, "exponent")
    dest = cb.add_register("dest", table.word_bits, "lookup")
    spine = cb.add_register("walk", table.addr_bits + 1, "ancilla")
    cb.emit(*select_walk_gates(addr, spine, xor_payload(table, dest), skip_below))
    cb.result_register = "dest"
    return cb.build()


def build_unlookup(table: LookupTable, lowdepth_unary: bool = False) -> Circuit:
    """Uncompute a dest register holding table[address] back to zero, bit- and
    phase-exactly. Pre: dest holds the looked-up entry on every branch."""
    cb = CircuitBuilder()
    addr = cb.add_register("address", table.addr_bits, "exponent")
    dest = cb.add_register("dest", table.word_bits, "lookup")
    low_bits = table.addr_bits // 2
    unary = cb.add_register("unary", 1 << low_bits, "unary")
    spine = cb.add_register("walk", table.addr_bits - low_bits + 1, "ancilla")
    copies = None
    if lowdepth_unary and low_bits >= 2:
        copies = cb.add_register("routing", (1 << (low_bits - 1)) - 1, "ancilla")
    slot = cb.new_slot("unlook")
    cb.emit(*unlookup_gates(addr, table, dest, unary, spine, slot, copies))
    return cb.build()
