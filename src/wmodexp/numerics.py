"""Problem parameters and classical precomputation of lookup tables.

Modular arithmetic is Python's own (``pow``, ``math.gcd``). The tables
produced are the classical data consumed by the circuit builders: windowed
multiplication tables, each built from the multiplier its exponent window
needs, their pruned variants (for the copy-then-lookup trick), phase fixup
tables derived from X-basis measurement outcomes, and direct exponentiation
tables for the initial-lookup shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _brief(number: int) -> str:
    """number in full below 2**64, else its leading hex digits and bit length,
    so that a message about a cryptographic-size modulus stays one line."""
    if abs(number) < 1 << 64:
        return str(number)
    return f"{number:#x}"[:10] + f"... ({number.bit_length()} bits)"


@dataclass(frozen=True)
class ProblemInstance:
    """Parameters of one modular-exponentiation problem.

    Parameters
    ----------
    modulus:
        Odd modulus N >= 3. Its bit length fixes the width of the value
        registers.
    base:
        Base of the exponentiation, coprime to the modulus.
    exp_bits:
        Number of exponent bits (the exponent register width).
    """

    modulus: int
    base: int
    exp_bits: int

    def __post_init__(self) -> None:
        if self.modulus < 3 or self.modulus % 2 == 0:
            raise ValueError(f"modulus must be odd and >= 3, got {self.modulus}")
        if not 1 <= self.base < self.modulus:
            raise ValueError(f"base must lie in [1, modulus), got {self.base}")
        if math.gcd(self.base, self.modulus) != 1:
            raise ValueError(
                f"base {_brief(self.base)} shares a factor with {_brief(self.modulus)}"
            )
        if self.exp_bits < 1:
            raise ValueError("exp_bits must be positive")

    @property
    def mod_bits(self) -> int:
        """Bit length of the modulus (register width for residues)."""
        return self.modulus.bit_length()


@dataclass(frozen=True)
class WindowParams:
    """Window sizes: exp_window bits of exponent and mul_window bits of
    multiplicand are consumed per table lookup."""

    exp_window: int
    mul_window: int

    def __post_init__(self) -> None:
        if self.exp_window < 1 or self.mul_window < 1:
            raise ValueError("window sizes must be >= 1")


@dataclass(frozen=True)
class LookupTable:
    """A flat table of classical values addressed by addr_bits qubits.

    kind is one of "multiply", "pruned", "phase_fixup", "direct_exp".
    Entries are stored least address first; every entry fits in word_bits.
    """

    kind: str
    addr_bits: int
    word_bits: int
    entries: tuple[int, ...]

    KINDS = ("multiply", "pruned", "phase_fixup", "direct_exp")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown table kind {self.kind!r}")
        if len(self.entries) != 1 << self.addr_bits:
            raise ValueError(
                f"table has {len(self.entries)} entries, expected {1 << self.addr_bits}"
            )
        limit = 1 << self.word_bits
        for addr, value in enumerate(self.entries):
            if not 0 <= value < limit:
                raise ValueError(f"entry {addr} = {value} exceeds {self.word_bits} bits")

    def __len__(self) -> int:
        return len(self.entries)


def window_count(total_bits: int, window: int) -> int:
    """Number of windows covering total_bits, the last one possibly short."""
    return -(-total_bits // window)


def window_width(total_bits: int, window: int, index: int) -> int:
    """Actual width of window `index`; the final window absorbs the remainder."""
    width = min(window, total_bits - index * window)
    if width <= 0 or index < 0:
        raise ValueError(f"window index {index} out of range for {total_bits} bits")
    return width


def build_mul_table(
    modulus: int, step: int, exp_width: int, mul_width: int, offset: int
) -> LookupTable:
    """Windowed multiplication table for one (exponent, multiplicand) window pair.

    The address is the concatenation mult || expn, with the exp_width-bit
    exponent window in the low bits and the mul_width-bit multiplicand window
    above it. step is the multiplier of one unit of the exponent window,
    base**(2**k) for a window that starts at exponent bit k, and offset is
    the multiplicand window's first bit. Entry value:

        step**expn * 2**offset * mult  (mod modulus)
    """
    shift = pow(2, offset, modulus)
    # step**expn for every expn, by a running product shared by every row.
    powers = [1]
    for _ in range(1, 1 << exp_width):
        powers.append(powers[-1] * step % modulus)
    entries = []
    for mult in range(1 << mul_width):
        shifted_mult = mult * shift % modulus
        entries.extend([power * shifted_mult % modulus for power in powers])
    return LookupTable("multiply", exp_width + mul_width, modulus.bit_length(), tuple(entries))


def build_pruned_table(plain: LookupTable, exp_width: int, offset: int) -> LookupTable:
    """Multiplication table with the plain copy pattern XORed out.

    plain is a build_mul_table table whose exponent window has exp_width
    bits and whose multiplicand window starts at bit offset. A CNOT fan
    copies mult (shifted into its window position) into the lookup register
    first; looking up this pruned table on top of that copy reconstructs the
    plain table value, entry by entry:

        pruned[mult || expn] XOR (mult << offset) == plain[mult || expn]
    """
    entries = []
    for addr, value in enumerate(plain.entries):
        mult = addr >> exp_width
        entries.append(value ^ (mult << offset))
    return LookupTable("pruned", plain.addr_bits, plain.word_bits, tuple(entries))


def build_phase_fixup_table(table: LookupTable, outcome: int, low_bits: int) -> LookupTable:
    """Phase fixup table for uncomputing a lookup after X-basis measurement.

    The address bits of `table` are split: the low_bits low ones become the
    unarized target of the fixup lookup, the rest its address. Row `high` has
    bit `low` set exactly when parity(outcome AND table[high || low]) is odd,
    i.e. when that address picked up a (-1) from the measurement.
    """
    if not 0 <= low_bits <= table.addr_bits:
        raise ValueError(f"low_bits {low_bits} out of range for {table.addr_bits} address bits")
    high_bits = table.addr_bits - low_bits
    rows = []
    for high in range(1 << high_bits):
        row = 0
        for low in range(1 << low_bits):
            if (outcome & table.entries[(high << low_bits) | low]).bit_count() & 1:
                row |= 1 << low
        rows.append(row)
    return LookupTable("phase_fixup", high_bits, 1 << low_bits, tuple(rows))


def build_direct_exp_table(inst: ProblemInstance, initial_bits: int) -> LookupTable:
    """Table of base**e mod N for every e below 2**initial_bits."""
    if not 0 <= initial_bits <= inst.exp_bits:
        raise ValueError(f"initial_bits must lie in [0, {inst.exp_bits}]")
    entries = tuple(pow(inst.base, e, inst.modulus) for e in range(1 << initial_bits))
    return LookupTable("direct_exp", initial_bits, inst.mod_bits, entries)


def dump_table(table: LookupTable) -> str:
    """Serialize to the line-oriented text format: a header line
    `table <kind> <addr_bits> <word_bits>` followed by one hex entry per line."""
    lines = [f"table {table.kind} {table.addr_bits} {table.word_bits}"]
    lines.extend(format(value, "x") for value in table.entries)
    return "\n".join(lines) + "\n"

