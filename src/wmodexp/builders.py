"""Circuit synthesis: unary conversion, table lookup, measurement-based
unlookup, and the windowed modular exponentiation circuit. Its one
lookup-addition builds a table from its exponent window's running multiplier,
adds through cuccaro_gates or circuit.mod_add_gate and X-measures the lookup
register once; the phase fixup follows at once or, deferred, once per sweep.

The lookup engine is a serial select walk: a binary tree of temp-AND gates
descends the address bits most-significant first, keeping one "this prefix
matches" line per level. Each internal node costs exactly one counted
temp-AND (the uncompute leg is free), so a full walk over L addresses costs
L - 1 Toffolis. Leaves either XOR a table entry into a destination register
or apply classically conditioned phase flips; subtrees whose addresses are
known never to matter can be skipped entirely. A node at depth d only ever
emits one of four gates on its address bit and spine lines, so each walk
builds those 4 per depth once and lays them out from a walk shape, cached
per (address width, skip bound), instead of recursing per lookup; the XOR
leaves likewise reuse one CNOT fan.

Uncomputing a lookup is measurement-based: the destination is measured in the
X basis, which trades its contents for address-dependent phases, and a
quadratically smaller phase-fixup walk removes them. The low half of the
address is converted to unary first so each fixup phase needs only a
two-qubit conditioned flip.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from .circuit import (
    CNOT,
    MEASURE_X,
    PHASE_Z,
    TEMP_AND,
    TEMP_AND_UNDO,
    TOFFOLI,
    X,
    Circuit,
    CircuitBuilder,
    Gate,
    invert_gates,
    mod_add_gate,
)
from .numerics import (
    LookupTable,
    ProblemInstance,
    WindowParams,
    build_direct_exp_table,
    build_mul_table,
    build_pruned_table,
    window_count,
    window_width,
)
from .sim import SparseState, counting_planes, deposit, extract


@dataclass(frozen=True)
class ModexpOptions:
    """Independent, composable optimization flags.

    deferred_unlookup: postpone all lookup uncomputations in a sweep to one
        shared fixup block per exponent window.
    selective_lookup: copy the multiplicand window into the lookup register
        with CNOTs and look up the pruned table, skipping the mult=0 subtree.
    initial_lookup_bits: handle this many low exponent bits with a single
        direct exponentiation table before the windowed loop.
    lowdepth_unary: fan the unary-conversion controls out through routing
        ancillas so each doubling level is one Toffoli layer deep.
    """

    deferred_unlookup: bool = False
    selective_lookup: bool = False
    initial_lookup_bits: int = 0
    lowdepth_unary: bool = False


@dataclass(frozen=True)
class ModexpConfig:
    inst: ProblemInstance
    wp: WindowParams
    opts: ModexpOptions = field(default_factory=ModexpOptions)
    # The adder: None adds through the exact ModAddOracle gate, a pad p >= 0
    # through a Cuccaro ripple on value registers p bits wider, which
    # plan_modexp sizes.
    coset_pad: int | None = None

    def __post_init__(self) -> None:
        if self.coset_pad is not None and self.coset_pad < 0:
            raise ValueError("coset_pad must be >= 0")
        if not 0 <= self.opts.initial_lookup_bits <= self.inst.exp_bits:
            raise ValueError(
                f"initial_lookup_bits = {self.opts.initial_lookup_bits} must lie in "
                f"[0, exp_bits = {self.inst.exp_bits}]"
            )


# ---------------------------------------------------------------------------
# Gate-list producers. These are pure: they return gates over caller-supplied
# qubits and never allocate.


def select_walk_gates(
    addr_lsb: tuple[int, ...],
    spine: tuple[int, ...],
    payload,
    skip_below: int = 0,
) -> list[Gate]:
    """Serial select walk over all addresses, most significant bit first.

    spine provides len(addr_lsb) + 1 zeroed ancillas; spine[d] carries the
    "prefix matches" flag at depth d and every ancilla is returned to zero.
    payload(address, line) must return the gates to run at that leaf,
    controlled on `line`, which is spine[len(addr_lsb)] at every leaf.
    Addresses below skip_below are pruned: any subtree lying entirely under
    the bound is skipped at zero gate cost, which removes one temp-AND per
    skipped internal node. The gates come from this walk's per-depth gates
    laid out by the cached _walk_shape.
    """
    width = len(addr_lsb)
    if len(spine) < width + 1:
        raise ValueError("walk spine too short for the address width")
    per_depth = [Gate(X, (spine[0],))]
    for depth, bit in enumerate(reversed(addr_lsb)):
        parent, child = spine[depth], spine[depth + 1]
        per_depth += (
            Gate(X, (bit,)),
            Gate(TEMP_AND, (parent, bit, child)),
            Gate(CNOT, (parent, child)),
            Gate(TEMP_AND_UNDO, (parent, bit, child)),
        )
    gates: list[Gate] = []
    line, address = spine[width], max(skip_below, 0)
    for code in _walk_shape(width, skip_below):
        if code < 0:
            gates += payload(address, line)
            address += 1
        else:
            gates.append(per_depth[code])
    return gates


@lru_cache(maxsize=64)
def _walk_shape(width: int, skip_below: int) -> tuple[int, ...]:
    """Layout of a select walk over width address bits, as codes into the
    walk's gates: 0 is X on spine[0], 4d + 1 .. 4d + 4 are X(bit), TempAnd,
    CNOT and TempAndUndo at depth d, and -1 marks each visited leaf (the
    addresses from skip_below up, in order)."""
    codes = [0]

    def descend(depth: int, prefix: int) -> None:
        span = 1 << (width - depth)
        if (prefix + 1) * span <= skip_below:
            return
        if depth == width:
            codes.append(-1)
            return
        x, temp_and, cnot, undo = range(4 * depth + 1, 4 * depth + 5)
        if prefix * span + span // 2 <= skip_below:  # left subtree pruned
            codes.append(temp_and)
            descend(depth + 1, 2 * prefix + 1)
        else:
            codes.extend((x, temp_and, x))
            descend(depth + 1, 2 * prefix)
            codes.append(cnot)
            descend(depth + 1, 2 * prefix + 1)
        codes.append(undo)

    descend(0, 0)
    codes.append(0)
    return tuple(codes)


def xor_payload(table: LookupTable, dest: tuple[int, ...]):
    """Leaf payload XOR-ing table entries into dest via CNOT fans. The fan
    from each control line is built once and its gates reused."""
    if len(dest) < table.word_bits:
        raise ValueError(
            f"dest has {len(dest)} qubits for {table.word_bits}-bit entries"
        )
    fans: dict[int, list[Gate]] = {}

    def payload(address: int, line: int) -> list[Gate]:
        fan = fans.get(line) or fans.setdefault(line, [Gate(CNOT, (line, q)) for q in dest])
        entry = table.entries[address]
        out = []
        position = 0
        while entry:
            if entry & 1:
                out.append(fan[position])
            entry >>= 1
            position += 1
        return out

    return payload


def phase_payload(table: LookupTable, low_bits: int, unary: tuple[int, ...], slot: str):
    """Leaf payload for a phase-fixup walk over the high address bits.

    At leaf `row`, each unarized low value x gets a phase flip conditioned
    (at simulation time) on parity(outcome[slot] AND table[row || x]); zero
    masks can never fire and are not emitted.
    """

    def payload(row: int, line: int) -> list[Gate]:
        out = []
        for x in range(1 << low_bits):
            mask = table.entries[(row << low_bits) | x]
            if mask:
                out.append(Gate(PHASE_Z, (line, unary[x]), slot=slot, mask=mask))
        return out

    return payload


def unary_forward_gates(
    bits_lsb: tuple[int, ...],
    out: tuple[int, ...],
    copies: tuple[int, ...] | None = None,
) -> list[Gate]:
    """One-hot conversion by repeated doubling with temp-ANDs.

    Precondition: out[0] is |1> and the rest of out is zero. After the gates,
    out is one-hot at the value of bits_lsb. Cost is 2^w - 1 temp-ANDs; the
    reverse (via invert_gates) uncomputes for free. With `copies` (fanout
    ancillas, zeroed), each doubling level uses its own control copies and the
    whole conversion is only w Toffoli layers deep.
    """
    width = len(bits_lsb)
    if len(out) < 1 << width:
        raise ValueError(f"unary register needs {1 << width} qubits")
    gates: list[Gate] = []
    for level, bit in enumerate(bits_lsb):
        block = 1 << level
        if copies is not None and block > 1:
            controls = [bit] + list(copies[: block - 1])
            fan = [Gate(CNOT, (bit, c)) for c in copies[: block - 1]]
            gates.extend(fan)
        else:
            controls = [bit] * block
            fan = []
        for j in range(block):
            gates.append(Gate(TEMP_AND, (out[j], controls[j], out[j + block])))
            gates.append(Gate(CNOT, (out[j + block], out[j])))
        gates.extend(fan)  # CNOT fans are self-inverse: this uncopies
    return gates


def cuccaro_gates(
    src: tuple[int, ...], dest: tuple[int, ...], carry: int
) -> list[Gate]:
    """Ripple-carry addition dest += src mod 2^m (no carry-out), with a
    single borrowed carry ancilla. 2m Toffolis, 2m layers; the reversed gate
    list subtracts."""
    if len(src) != len(dest):
        raise ValueError("adder operands must have equal width")
    m = len(src)
    chain = (carry,) + src[:-1]
    gates = []
    for i in range(m):  # MAJ ladder
        c, b, a = chain[i], dest[i], src[i]
        gates.append(Gate(CNOT, (a, b)))
        gates.append(Gate(CNOT, (a, c)))
        gates.append(Gate(TOFFOLI, (c, b, a)))
    for i in reversed(range(m)):  # UMA ladder
        c, b, a = chain[i], dest[i], src[i]
        gates.append(Gate(TOFFOLI, (c, b, a)))
        gates.append(Gate(CNOT, (a, c)))
        gates.append(Gate(CNOT, (c, b)))
    return gates


def phase_fixup_gates(
    low: tuple[int, ...],
    unary: tuple[int, ...],
    spine: tuple[int, ...],
    copies: tuple[int, ...] | None,
    walks: list[tuple[tuple[int, ...], LookupTable, str]],
) -> list[Gate]:
    """Cancel the phases that X-measuring looked-up entries left behind.

    Unarizes the low address bits shared by every walk, then for each
    (high bits, table, slot) in walks runs a phase walk over the high bits
    whose leaves flip exactly the phases measurement `slot` left on `table`'s
    entries, then tears the unary down again. Metered cost: 2^len(low) - 1
    temp-ANDs for the unary plus 2^len(high) - 1 per walk, the teardown
    being free.
    """
    init = [Gate(X, (unary[0],))] + unary_forward_gates(low, unary[: 1 << len(low)], copies)
    gates = list(init)
    for high, table, slot in walks:
        gates.extend(select_walk_gates(high, spine, phase_payload(table, len(low), unary, slot)))
    gates.extend(invert_gates(init))
    return gates


# ---------------------------------------------------------------------------
# Windowed modular exponentiation.


@dataclass(frozen=True)
class ModexpPlan:
    """Window and workspace sizing of one modexp circuit, read by the
    circuit builder, by costs.exact_cost and by the simulate gate cap.

    Register order: exponent | multiplicand | target | lookup | unary |
    fanout | walk spine | carry. value_width is the multiplicand, target and
    lookup width: the modulus bits plus any coset pad, whose Cuccaro adder
    needs the carry. initial_bits is the initial lookup's width (0 when
    absent); exp_windows and mul_windows hold the actual window widths,
    ragged boundary windows included; walk_bits and unary_bits are the
    widest walk and unary zone used anywhere in the circuit, and fanout is
    the width of the low-depth unary's control copies (0 when absent).
    """

    value_width: int
    initial_bits: int
    exp_windows: tuple[int, ...]
    mul_windows: tuple[int, ...]
    walk_bits: int
    unary_bits: int
    fanout: int
    carry: bool

    @property
    def unary_size(self) -> int:
        """Width of the unary register; there is none without exponent
        windows."""
        return 1 << self.unary_bits if self.exp_windows else 0

    @property
    def lookup_entries(self) -> int:
        """Table entries the lookups address: 2^initial_bits (2^0 stands for the X
        seeding the accumulator) plus 2^(exp + mul width) per window pair and sweep."""
        pairs = sum(1 << w for w in self.exp_windows) * sum(1 << w for w in self.mul_windows)
        return (1 << self.initial_bits) + 2 * pairs


def plan_modexp(cfg: ModexpConfig) -> ModexpPlan:
    """Size the windows and the shared workspace of cfg's circuit."""
    inst, wp, opts = cfg.inst, cfg.wp, cfg.opts
    nep = opts.initial_lookup_bits
    reduced_exp_bits = inst.exp_bits - nep
    exp_windows = tuple(
        window_width(reduced_exp_bits, wp.exp_window, i)
        for i in range(window_count(reduced_exp_bits, wp.exp_window))
    )
    mul_windows = tuple(
        window_width(inst.mod_bits, wp.mul_window, j)
        for j in range(window_count(inst.mod_bits, wp.mul_window))
    )
    walk_bits, unary_bits = nep, 0
    if exp_windows:
        we, wm = max(exp_windows), max(mul_windows)
        walk_bits = max(nep, we + wm)
        unary_bits = we if opts.deferred_unlookup else (we + wm) // 2
    fanout = (1 << (unary_bits - 1)) - 1 if opts.lowdepth_unary and unary_bits >= 2 else 0
    width, carry = inst.mod_bits + (cfg.coset_pad or 0), cfg.coset_pad is not None
    return ModexpPlan(width, nep, exp_windows, mul_windows, walk_bits, unary_bits, fanout, carry)


def build_windowed_modexp(cfg: ModexpConfig) -> Circuit:
    """The full windowed modular exponentiation circuit for cfg, honoring
    every optimization flag.

    Input contract: all registers |0>, with the exponent register holding (a
    superposition of) x. Output: the result register (see result_register)
    holds base**x mod N, the exponent is unchanged, and every workspace
    register is back to zero, all phases +1, under the exact adder
    (coset_pad=None). A coset pad books realistic gate counts instead and
    only approximates modular reduction.

    Registers follow plan_modexp(cfg). Per exponent window the accumulator is
    multiplied in via a forward sweep of lookup-additions, the multiplicand
    and target registers swap roles (a free renaming), and an inverse sweep
    with the inverted base uncomputes the stale value.
    """
    inst, wp, opts = cfg.inst, cfg.wp, cfg.opts
    plan = plan_modexp(cfg)
    nep, width = plan.initial_bits, plan.value_width
    cb = CircuitBuilder()
    exp = cb.add_register("exponent", inst.exp_bits)
    acc = cb.add_register("multiplicand", width)
    tgt = cb.add_register("target", width)
    look = cb.add_register("lookup", width)
    unary = cb.add_register("unary", plan.unary_size) if plan.unary_size else ()
    copies = cb.add_register("fanout", plan.fanout) if plan.fanout else None
    spine = cb.add_register("walk", plan.walk_bits + 1)
    carry = cb.add_register("carry", 1) if plan.carry else ()

    # Seed the accumulator: |1>, or the direct-exp entry of the nep low bits.
    if nep:
        table = build_direct_exp_table(inst, nep)
        cb.emit(*select_walk_gates(exp[:nep], spine, xor_payload(table, acc)))
    else:
        cb.emit(Gate(X, (acc[0],)))
    cb.result_register = ("multiplicand", "target")[len(plan.exp_windows) % 2]
    if not plan.exp_windows:
        return cb.build()

    def lookup_add(multiplier, forward, j, exp_qubits, acc, tgt):
        """Lookup-addition of multiplicand window j: look up multiplier**expn
        * 2**offset * mult into the lookup register, add or subtract it into
        tgt, X-measure the register and, unless the sweep defers it, run its
        phase fixup at once. Returns the phase walk a deferred fixup needs."""
        offset = j * wp.mul_window
        mul_qubits = acc[offset : offset + plan.mul_windows[j]]
        addr = exp_qubits + mul_qubits
        table = build_mul_table(
            inst.modulus, multiplier, len(exp_qubits), len(mul_qubits), offset
        )
        if opts.selective_lookup:
            pruned = build_pruned_table(table, len(exp_qubits), offset)
            cb.emit(*(Gate(CNOT, (q, look[offset + t])) for t, q in enumerate(mul_qubits)))
            skip = 1 << len(exp_qubits)
            cb.emit(*select_walk_gates(addr, spine, xor_payload(pruned, look), skip))
        else:
            cb.emit(*select_walk_gates(addr, spine, xor_payload(table, look)))
        if carry:
            gates = cuccaro_gates(look, tgt, carry[0])
            cb.emit(*(gates if forward else invert_gates(gates)))
        else:
            cb.emit(mod_add_gate(tgt, look, inst.modulus, 1 if forward else -1))
        slot = cb.new_slot("m")
        cb.emit(Gate(MEASURE_X, look, slot=slot))
        if not opts.deferred_unlookup:
            # Unarize the low half of the address, walk the high half.
            low = table.addr_bits // 2
            walk = [(addr[low:], table, slot)]
            cb.emit(*phase_fixup_gates(addr[:low], unary, spine, copies, walk))
        return mul_qubits, table, slot

    # The windowed recursion continues from base**(2**nep). step multiplies
    # one unit of exponent window i: the forward sweep's tables are powers
    # of it, the inverse sweep's of its inverse.
    step = pow(inst.base, 1 << nep, inst.modulus)
    for i, exp_width in enumerate(plan.exp_windows):
        start = nep + i * wp.exp_window
        exp_qubits = exp[start : start + exp_width]
        for multiplier, forward in ((step, True), (pow(step, -1, inst.modulus), False)):
            walks = [
                lookup_add(multiplier, forward, j, exp_qubits, acc, tgt)
                for j in range(len(plan.mul_windows))
            ]
            # Deferred unlookup: one fixup block per sweep, a single unary of
            # the exponent window and one phase walk per multiplication window.
            if opts.deferred_unlookup:
                cb.emit(*phase_fixup_gates(exp_qubits, unary, spine, copies, walks))
            if forward:
                acc, tgt = tgt, acc
        step = pow(step, 1 << exp_width, inst.modulus)
    return cb.build()


# ---------------------------------------------------------------------------
# Verification helpers.


def modexp_input_state(circuit: Circuit, seed: int = 0) -> SparseState:
    """All-zero workspace with the exponent register in a uniform positive
    superposition over every value. Branch i holds x = i, so the exponent
    planes tell every branch apart and are declared the separating set."""
    exp = circuit.register("exponent").qubits
    planes = [0] * circuit.num_qubits
    for q, plane in zip(exp, counting_planes(len(exp))):
        planes[q] = plane
    ones, rng = (1 << (1 << len(exp))) - 1, random.Random(seed)
    separating = {q: planes[q] for q in exp}
    return SparseState(planes, 0, ones, rng, separating=separating)


def check_modexp_output(circuit: Circuit, inst: ProblemInstance, state: SparseState) -> list[str]:
    """Compare a final simulator state against {(x, base**x mod N)} with all
    phases +1. Returns human-readable mismatch lines; empty means exact.
    Only meaningful for circuits built with coset_pad=None. Reads x
    per branch only once the exponent planes stop counting (branch i holding
    x = i), and whole branches only where the result, workspace or phase
    planes show a mismatch."""
    exp = circuit.register("exponent").qubits
    result = circuit.register(circuit.result_register).qubits
    # ones is all-ones over the branches, so its length is the branch count.
    # Test it first: counting_planes holds n_e planes of 2^n_e bits each.
    every_x = state.ones.bit_length() == 1 << len(exp)
    if every_x and [state.planes[q] for q in exp] == counting_planes(len(exp)):
        want, power = [], 1 % inst.modulus
        for _ in range(1 << len(exp)):
            want.append(power)
            power = power * inst.base % inst.modulus
    else:
        want = [pow(inst.base, x, inst.modulus) for x in state.values(exp)]
    got = state.values(result)
    flagged = state.phase
    for q in set(range(len(state.planes))) - set(exp) - set(result):
        flagged |= state.planes[q]
    if got == want and not flagged:
        return []
    flags = format(flagged, "b")[::-1].ljust(len(got), "0")
    bad = [i for i, (g, w, f) in enumerate(zip(got, want, flags)) if g != w or f == "1"]
    errors = []
    for key, phase in sorted(state.branches_at(bad)):
        x = extract(key, exp)
        expected_value = pow(inst.base, x, inst.modulus)
        if extract(key, result) != expected_value:
            errors.append(f"x={x}: result {extract(key, result)} (want {expected_value})")
        elif key != deposit(deposit(0, exp, x), result, expected_value):
            errors.append(f"x={x}: workspace not cleared (assignment {key:#x})")
        if phase != 1:
            errors.append(f"x={x}: phase {phase:+d} (want +1)")
    return errors
