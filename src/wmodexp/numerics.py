"""Problem parameters and classical precomputation of lookup tables.

Modular arithmetic is Python's own (``pow``, ``math.gcd``); mod_inverse only
adds the NotInvertible contract. The tables produced are the classical data
consumed by the circuit builders: windowed multiplication tables, their
pruned variants (for the copy-then-lookup trick), phase fixup tables derived
from X-basis measurement outcomes, and direct exponentiation tables for the
initial-lookup shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class NotInvertible(ValueError):
    """The value shares a factor with the modulus, so no inverse exists."""


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
            raise NotInvertible(f"base {self.base} shares a factor with {self.modulus}")
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

    def __getitem__(self, addr: int) -> int:
        return self.entries[addr]

    def __len__(self) -> int:
        return len(self.entries)


def mod_inverse(value: int, modulus: int) -> int:
    """Inverse of value mod modulus.

    Raises NotInvertible when gcd(value, modulus) != 1; in the factoring
    setting that gcd is itself a nontrivial factor.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return pow(value, -1, modulus)
    except ValueError:
        factor = math.gcd(value, modulus)
        raise NotInvertible(f"{value} has no inverse mod {modulus} (gcd {factor})") from None


def window_count(total_bits: int, window: int) -> int:
    """Number of windows covering total_bits, the last one possibly short."""
    return -(-total_bits // window)


def window_width(total_bits: int, window: int, index: int) -> int:
    """Actual width of window `index`; the final window absorbs the remainder."""
    width = min(window, total_bits - index * window)
    if width <= 0:
        raise ValueError(f"window index {index} out of range for {total_bits} bits")
    return width


def build_mul_table(
    inst: ProblemInstance,
    wp: WindowParams,
    exp_index: int,
    mul_index: int,
    base: int | None = None,
) -> LookupTable:
    """Windowed multiplication table for one (exponent, multiplicand) window pair.

    The address is the concatenation mult || expn with the exponent window in
    the low bits. Entry value:

        base**(expn * 2**(exp_index * exp_window)) * 2**(mul_index * mul_window) * mult  (mod N)

    Boundary windows are shorter when the window size does not divide the
    register, so the table shrinks accordingly.
    """
    if base is None:
        base = inst.base
    modulus = inst.modulus
    if math.gcd(base, modulus) != 1:
        raise NotInvertible(f"table base {base} not coprime to {modulus}")
    exp_width = window_width(inst.exp_bits, wp.exp_window, exp_index)
    mul_width = window_width(inst.mod_bits, wp.mul_window, mul_index)
    step = pow(base, 1 << (exp_index * wp.exp_window), modulus)
    shift = (1 << (mul_index * wp.mul_window)) % modulus
    entries = []
    for mult in range(1 << mul_width):
        shifted_mult = mult * shift % modulus
        for expn in range(1 << exp_width):
            entries.append(pow(step, expn, modulus) * shifted_mult % modulus)
    return LookupTable("multiply", exp_width + mul_width, inst.mod_bits, tuple(entries))


def build_pruned_table(
    inst: ProblemInstance,
    wp: WindowParams,
    exp_index: int,
    mul_index: int,
    base: int | None = None,
) -> LookupTable:
    """Multiplication table with the plain copy pattern XORed out.

    A CNOT fan copies mult (shifted into its window position) into the lookup
    register first; looking up this pruned table on top of that copy
    reconstructs the plain table value, entry by entry:

        pruned[mult || expn] XOR (mult << mul_index*mul_window) == plain[mult || expn]
    """
    plain = build_mul_table(inst, wp, exp_index, mul_index, base)
    exp_width = plain.addr_bits - window_width(inst.mod_bits, wp.mul_window, mul_index)
    offset = mul_index * wp.mul_window
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


def load_table(text: str) -> LookupTable:
    """Parse the dump_table format back into an identical LookupTable.

    Blank lines and `#` comment lines are skipped, so dumped files may
    carry provenance headers.
    """
    lines = [
        line
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty table text")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "table":
        raise ValueError(f"bad table header: {lines[0]!r}")
    kind, addr_bits, word_bits = header[1], int(header[2]), int(header[3])
    entries = tuple(int(line, 16) for line in lines[1:])
    return LookupTable(kind, addr_bits, word_bits, entries)
