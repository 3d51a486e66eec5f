"""Bit-sliced phase-tracking simulator.

Every circuit in this package permutes computational basis states and applies
classically controlled phase flips, so a state is a set of branches, each a
basis assignment with a phase in {+1, -1}. The state is stored bit-sliced:
one int per qubit (a plane) whose bit i is that qubit on branch i, plus a
phase plane whose bit i is set when branch i has phase -1. Each gate is a few
whole-int operations that act on every branch at once, and a branch keeps its
index for the life of the state. Every per-branch read (branches, values,
signs, and measure_x's contract check) turns planes into per-branch keys
with one bit-matrix transpose that swaps bits inside 64x64 blocks of words,
a few whole-int operations per 64 branches.

X-basis register measurement is the one probabilistic element: outcomes are
drawn from a seeded RNG (uniform over bitstrings, which is exact because the
measured register is always a deterministic function of the others), each
branch picks up (-1)^parity(outcome AND register value), and the register is
cleared. A state may declare planes that tell all its branches apart, and
needs no new check of that contract while they stay unchanged.
"""

from __future__ import annotations

import random
import struct
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import zip_longest
from types import MappingProxyType

from .circuit import (
    CNOT,
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
    fresh, a ModAddOracle operand not below N, or a measured register not a
    function of the rest). The state is left as it was before the gate."""


@dataclass
class SparseState:
    """planes[q] holds qubit q with bit i for branch i; bit i of phase is set
    when branch i has phase -1; ones has one bit per branch. transcript
    records measurement outcomes by slot name. separating, declared by the
    state's maker, maps qubits to planes that tell every branch apart;
    measure_x trusts it while those qubits still hold those planes."""

    planes: list[int]
    phase: int
    ones: int
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    transcript: dict[str, int] = field(default_factory=dict)
    _view: Mapping[int, int] | None = field(default=None, init=False, repr=False, compare=False)
    separating: dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    @property
    def branches(self) -> Mapping[int, int]:
        """Read-only map of basis assignment (bit q = qubit q) to phase +/-1,
        in branch order. Built from the planes on the first read after a
        gate."""
        if self._view is None:
            keys = _transpose(self.planes, self.ones.bit_length())
            self._view = MappingProxyType(dict(zip(keys, self.signs())))
        return self._view

    def branches_at(self, indices: list[int]) -> list[tuple[int, int]]:
        """(basis assignment, phase +/-1) of each given branch, in the order
        given, read from the planes without building the whole view. Each
        index must lie in range(branch count)."""
        count = self.ones.bit_length()
        for i in indices:
            if not 0 <= i < count:
                raise IndexError(f"branch {i} is outside range({count})")
        size = -(-count // 8)
        rows = [0] * len(indices)  # bit q is qubit q; the bit above them, the phase
        for q, plane in enumerate(self.planes + [self.phase]):
            if plane:
                raw = plane.to_bytes(size, "little")
                for k, i in enumerate(indices):
                    if raw[i >> 3] >> (i & 7) & 1:
                        rows[k] |= 1 << q
        top = 1 << len(self.planes)
        return [(row & ~top, -1 if row & top else 1) for row in rows]

    def values(self, qubits: tuple[int, ...]) -> list[int]:
        """Value of the given qubits (low bit first) on each branch, in order."""
        return _transpose([self.planes[q] for q in qubits], self.ones.bit_length())

    def signs(self) -> list[int]:
        """Phase (+1 or -1) of each branch, in order."""
        return [-1 if s else 1 for s in _transpose([self.phase], self.ones.bit_length())]


assert array("Q").itemsize == 8, "_transpose needs 64-bit array words"
# Packing only moves bytes, so the host's byte order matters only when the
# transposed words are read back as numbers, which struct does little-endian.
_CHUNK_BLOCKS = 256  # 2^14 columns: 128 KB per temporary


@lru_cache(maxsize=8)
def _swap_steps(count: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each of _transpose's six swaps over `count` 64x64
    blocks. Swap j (32, 16, ..., 1) exchanges bit (r, c) of a block with
    bit (r + j, c - j), 63 * j positions higher, wherever bit j of r is
    clear and bit j of c is set."""
    steps = []
    for j in (32, 16, 8, 4, 2, 1):
        columns = sum(1 << c for c in range(64) if c & j)
        block = sum(columns << 64 * r for r in range(64) if not r & j)
        steps.append((63 * j, int.from_bytes(block.to_bytes(512, "little") * count, "little")))
    return tuple(steps)


def _transpose(rows: list[int], width: int) -> list[int]:
    """Transpose a bit matrix: bit j of result[i] is bit i of rows[j]. Every
    row must be below 2**width.

    Word-parallel (Hacker's Delight, section 7-3): each group of 64 rows is
    packed so that word 64*b + r holds row r's bits for columns 64*b to
    64*b + 63, the words are read as one int, and six masked swaps transpose
    every 64x64 block at once. Word 64*b + c then holds column 64*b + c.
    Columns go through in chunks of _CHUNK_BLOCKS blocks, so the packed
    words and the int made from them stay within 128 KB whatever the width;
    the group's rows as bytes take as much room as the rows themselves."""
    for r, row in enumerate(rows):
        if row >> width:
            raise ValueError(f"row {r} does not fit in width {width}")
    blocks = -(-width // 64)
    result: list[int] = []
    for g in range(0, len(rows), 64):
        raw = [row.to_bytes(8 * blocks, "little") for row in rows[g : g + 64]]
        keys: list[int] = []
        for start in range(0, blocks, _CHUNK_BLOCKS):
            count = min(_CHUNK_BLOCKS, blocks - start)
            words = array("Q", bytes(512 * count))
            for r, row in enumerate(raw):
                words[r::64] = array("Q", row[8 * start : 8 * (start + count)])
            x = int.from_bytes(words, "little")
            for shift, mask in _swap_steps(count):
                t = (x ^ x >> shift) & mask
                x ^= t ^ t << shift
            keys += struct.unpack(f"<{64 * count}Q", x.to_bytes(512 * count, "little"))
        del keys[width:]
        result = [a | b << g for a, b in zip(result, keys)] if g else keys
    return result if rows else [0] * width


def counting_planes(bits: int) -> list[int]:
    """Plane of each counter bit over 2^bits branches such that branch i
    holds i: bit pos repeats 2^pos clear, 2^pos set (one block, doubled)."""
    planes = []
    for pos in range(bits):
        half = 1 << pos
        plane, width = (1 << half) - 1 << half, 2 * half
        while width < 1 << bits:
            plane, width = plane | plane << width, 2 * width
        planes.append(plane)
    return planes


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
    gates go through measure_x instead. A ClassicalPhaseZ reads the outcome
    in its slot, which a Circuit guarantees an earlier measurement filled."""
    name = gate.name
    p = state.planes
    if name == CNOT:
        c, t = gate.qubits
        p[t] ^= p[c]
    elif name == TEMP_AND:
        a, b, t = gate.qubits
        if p[t]:
            raise ContractViolation(f"TempAndCompute target {t} not |0> on a branch")
        p[t] = p[a] & p[b]
    elif name == TEMP_AND_UNDO:
        a, b, t = gate.qubits
        if p[t] != p[a] & p[b]:
            raise ContractViolation(
                f"TempAndUncompute target {t} does not hold the AND on a branch"
            )
        p[t] = 0
    elif name == X:
        p[gate.qubits[0]] ^= state.ones
    elif name == TOFFOLI:
        a, b, t = gate.qubits
        p[t] ^= p[a] & p[b]
    elif name == PHASE_Z:
        if (state.transcript[gate.slot] & gate.mask).bit_count() & 1 == 0:
            return state
        hit = state.ones
        for q in gate.qubits:
            hit &= p[q]
        state.phase ^= hit
    elif name == MOD_ADD:
        _mod_add(p, state.ones, gate)
    elif name == MEASURE_X:
        raise ValueError("apply() does not handle measurements; use measure_x")
    else:
        raise ValueError(f"unknown gate {name}")
    state._view = None
    return state


def _mod_add(p: list[int], ones: int, gate: Gate) -> None:
    """dest <- (dest + sign * src) mod N, bit-sliced: one add, then N taken
    off where the sum reaches it; sign -1 adds N - src. Unless dest < N and
    src < N on every branch, raises ContractViolation and writes nothing."""
    dest_qubits = gate.qubits[: gate.dest_len]
    dest = [p[q] for q in dest_qubits]
    src = [p[q] for q in gate.qubits[gate.dest_len :]]
    n = gate.modulus
    modulus = [ones if n >> i & 1 else 0 for i in range(n.bit_length())]
    for operand, planes in (("destination", dest), ("source", src)):
        if _sub(planes, modulus)[1] != ones:
            raise ContractViolation(f"ModAddOracle {operand} not below N={n} on a branch")
    if gate.sign < 0:
        src = _sub(modulus, src)[0]
    for q, plane in zip(dest_qubits, _sub_where_fits(_add(dest, src), modulus)):
        p[q] = plane


def _add(a: list[int], b: list[int]) -> list[int]:
    """Bit-sliced a + b, one plane wider than the wider operand."""
    total, carry = [], 0
    for x, y in zip_longest(a, b, fillvalue=0):
        half = x ^ y
        total.append(half ^ carry)
        carry = x & y | carry & half
    total.append(carry)
    return total


def _sub(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """Bit-sliced a - b modulo 2**width, and the mask of branches where a < b."""
    diff, borrow = [], 0
    for x, y in zip_longest(a, b, fillvalue=0):
        half = x ^ y
        diff.append(half ^ borrow)
        borrow = y & ~x | borrow & ~half
    return diff, borrow


def _sub_where_fits(a: list[int], b: list[int]) -> list[int]:
    """a - b on the branches where a >= b, a elsewhere."""
    diff, below = _sub(a, b)
    return [x ^ (x ^ d) & ~below for x, d in zip_longest(a, diff, fillvalue=0)]


def measure_x(state: SparseState, qubits: tuple[int, ...], slot: str) -> tuple[SparseState, int]:
    """X-basis measurement of a register holding a deterministic function of
    the remaining qubits.

    The contract is checked exhaustively in one linear pass: each branch's
    non-constant planes outside the register form its key, and no key may
    come with two register values. The check is skipped while the state's
    declared separating planes are all unchanged and none is measured: they
    still tell every branch apart. measure_x never declares planes itself,
    so a state whose maker declared none pays the full check on every
    measurement (a 2^14-branch modexp circuit runs about 50 times slower
    that way). Under the contract, measuring in the X basis yields a
    uniformly random outcome s, multiplies each branch by
    (-1)^parity(s AND value), and resets the register to zero.
    """
    p, ones = state.planes, state.ones
    measured = set(qubits)
    known = state.separating
    holds = bool(known) and measured.isdisjoint(known) and all(
        p[q] == plane for q, plane in known.items()
    )
    if not holds:
        rest = [plane for q, plane in enumerate(p) if q not in measured and plane not in (0, ones)]
        seen: dict[int, int] = {}
        for key, value in zip(_transpose(rest, ones.bit_length()), state.values(qubits)):
            if seen.setdefault(key, value) != value:
                raise ContractViolation(
                    f"measured register is not a function of the other registers (slot {slot})"
                )
    outcome = state.rng.getrandbits(len(qubits))
    for pos, q in enumerate(qubits):
        if outcome >> pos & 1:
            state.phase ^= p[q]
        p[q] = 0
    state.transcript[slot] = outcome
    state._view = None
    return state, outcome


def run(circuit: Circuit, state: SparseState) -> SparseState:
    """Run a circuit on the given state in place and return it."""
    for gate in circuit.gates:
        if gate.name == MEASURE_X:
            measure_x(state, gate.qubits, gate.slot)  # type: ignore[arg-type]
        else:
            apply(state, gate)
    return state
