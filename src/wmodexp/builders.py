"""Circuit synthesis: unary conversion, table lookup, measurement-based
unlookup, ripple adders, and the windowed modular exponentiation family.

The lookup engine is a serial select walk: a binary tree of temp-AND gates
descends the address bits most-significant first, keeping one "this prefix
matches" line per level. Each internal node costs exactly one counted
temp-AND (the uncompute leg is free), so a full walk over L addresses costs
L - 1 Toffolis. Leaves either XOR a table entry into a destination register
or apply classically conditioned phase flips; subtrees whose addresses are
known never to matter can be skipped entirely.

Uncomputing a lookup is measurement-based: the destination is measured in the
X basis, which trades its contents for address-dependent phases, and a
quadratically smaller phase-fixup walk removes them. The low half of the
address is converted to unary first so each fixup phase needs only a
two-qubit conditioned flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import (
    CNOT,
    CSWAP,
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
)
from .numerics import (
    LookupTable,
    ProblemInstance,
    WindowParams,
    build_direct_exp_table,
    build_mul_table,
    build_pruned_table,
    mod_inverse,
    window_count,
    window_width,
)


class SizeMismatch(ValueError):
    """Register widths do not fit the requested construction."""


EXACT_MODULAR = "exact_modular"
COSET = "coset"


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
    adder: str = EXACT_MODULAR
    coset_pad: int = 0

    def __post_init__(self) -> None:
        if self.adder not in (EXACT_MODULAR, COSET):
            raise ValueError(f"unknown adder backend {self.adder!r}")
        if self.coset_pad < 0:
            raise ValueError("coset_pad must be >= 0")
        if not 0 <= self.opts.initial_lookup_bits <= self.inst.exp_bits:
            raise ValueError("initial_lookup_bits must lie in [0, exp_bits]")

    @property
    def value_width(self) -> int:
        """Width of the value registers: the modulus width, plus coset
        padding when the cost-booking adder is selected."""
        if self.adder == COSET:
            return self.inst.mod_bits + self.coset_pad
        return self.inst.mod_bits


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
    controlled on `line`. Addresses below skip_below are pruned: any subtree
    lying entirely under the bound is skipped at zero gate cost, which removes
    one temp-AND per skipped internal node.
    """
    depth_total = len(addr_lsb)
    if len(spine) < depth_total + 1:
        raise SizeMismatch("walk spine too short for the address width")
    addr_msb = addr_lsb[::-1]
    gates: list[Gate] = [Gate(X, (spine[0],))]

    def descend(depth: int, prefix: int, parent: int) -> None:
        span = 1 << (depth_total - depth)
        if (prefix + 1) * span <= skip_below:
            return
        if depth == depth_total:
            gates.extend(payload(prefix, parent))
            return
        bit = addr_msb[depth]
        child = spine[depth + 1]
        left_pruned = prefix * span + span // 2 <= skip_below
        if left_pruned:
            gates.append(Gate(TEMP_AND, (parent, bit, child)))
            descend(depth + 1, 2 * prefix + 1, child)
            gates.append(Gate(TEMP_AND_UNDO, (parent, bit, child)))
        else:
            gates.append(Gate(X, (bit,)))
            gates.append(Gate(TEMP_AND, (parent, bit, child)))
            gates.append(Gate(X, (bit,)))
            descend(depth + 1, 2 * prefix, child)
            gates.append(Gate(CNOT, (parent, child)))
            descend(depth + 1, 2 * prefix + 1, child)
            gates.append(Gate(TEMP_AND_UNDO, (parent, bit, child)))

    descend(0, 0, spine[0])
    gates.append(Gate(X, (spine[0],)))
    return gates


def xor_payload(table: LookupTable, dest: tuple[int, ...]):
    """Leaf payload XOR-ing table entries into dest via CNOT fans."""
    if len(dest) < table.word_bits:
        raise SizeMismatch(
            f"dest has {len(dest)} qubits for {table.word_bits}-bit entries"
        )

    def payload(address: int, line: int) -> list[Gate]:
        entry = table.entries[address]
        out = []
        position = 0
        while entry:
            if entry & 1:
                out.append(Gate(CNOT, (line, dest[position])))
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
        raise SizeMismatch(f"unary register needs {1 << width} qubits")
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


def unary_cswap_gates(bits_lsb: tuple[int, ...], out: tuple[int, ...]) -> list[Gate]:
    """One-hot conversion by controlled swaps: the marker starting at out[0]
    is routed to index value(bits_lsb). 2^w - 1 CSwaps, depth 2^w - 1.

    Levels alternate sweep direction so that each level's first swap shares an
    output line with the previous level's last one; the whole ladder is then a
    single serial chain, which is the honest schedule for marker routing.
    """
    width = len(bits_lsb)
    if len(out) < 1 << width:
        raise SizeMismatch(f"unary register needs {1 << width} qubits")
    gates = []
    for level, bit in enumerate(bits_lsb):
        block = 1 << level
        order = range(block) if level % 2 == 0 else reversed(range(block))
        for j in order:
            gates.append(Gate(CSWAP, (bit, out[j], out[j + block])))
    return gates


def cuccaro_gates(
    src: tuple[int, ...], dest: tuple[int, ...], carry: int
) -> list[Gate]:
    """Ripple-carry addition dest += src mod 2^m (no carry-out), with a
    single borrowed carry ancilla. 2m Toffolis, 2m layers; the reversed gate
    list subtracts."""
    if len(src) != len(dest):
        raise SizeMismatch("adder operands must have equal width")
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


def unlookup_gates(
    addr_lsb: tuple[int, ...],
    table: LookupTable,
    dest: tuple[int, ...],
    unary: tuple[int, ...],
    spine: tuple[int, ...],
    slot: str,
    copies: tuple[int, ...] | None = None,
) -> list[Gate]:
    """Measurement-based uncomputation of dest, which holds table[address].

    X-measures dest (clearing it, phasing each branch by the parity of the
    outcome against its former value), unarizes the floor(l/2) low address
    bits, then runs a phase-fixup walk over the high bits whose leaves cancel
    exactly those phases. Metered cost: 2^u + 2^(l-u) - 2 temp-ANDs, the
    unary teardown being free.
    """
    low_bits = table.addr_bits // 2
    low, high = addr_lsb[:low_bits], addr_lsb[low_bits:]
    gates: list[Gate] = [Gate(MEASURE_X, dest, slot=slot)]
    init = [Gate(X, (unary[0],))] + unary_forward_gates(low, unary[: 1 << low_bits], copies)
    gates.extend(init)
    gates.extend(select_walk_gates(high, spine, phase_payload(table, low_bits, unary, slot)))
    gates.extend(invert_gates(init))
    return gates


# ---------------------------------------------------------------------------
# Standalone circuits.


def build_unary(width: int) -> Circuit:
    """Binary-to-unary converter over `width` input bits, marker-routing
    style. Pre: the output register's qubit 0 is |1>."""
    cb = CircuitBuilder()
    value = cb.add_register("input", width, "exponent")
    out = cb.add_register("unary_out", 1 << width, "unary")
    for gate in unary_cswap_gates(value, out):
        cb.emit(gate)
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
    for gate in unary_forward_gates(value, out, routing if routing else None):
        cb.emit(gate)
    cb.result_register = "unary_out"
    return cb.build()


def build_qrom_lookup(table: LookupTable, skip_below: int = 0) -> Circuit:
    """Table lookup: dest ^= table[address] on every branch."""
    cb = CircuitBuilder()
    addr = cb.add_register("address", table.addr_bits, "exponent")
    dest = cb.add_register("dest", table.word_bits, "lookup")
    spine = cb.add_register("walk", table.addr_bits + 1, "ancilla")
    for gate in select_walk_gates(addr, spine, xor_payload(table, dest), skip_below):
        cb.emit(gate)
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
    for gate in unlookup_gates(addr, table, dest, unary, spine, slot, copies):
        cb.emit(gate)
    return cb.build()


def build_adder(mode: str, modulus: int, pad: int = 0, subtract: bool = False) -> Circuit:
    """Standalone adder: dest += src (or -=).

    exact_modular: a single oracle gate with modular semantics over
    modulus-width registers, booked at zero Toffolis (functional backend).
    coset: a Cuccaro ripple over modulus-width + pad registers, 2(n+pad)
    Toffolis (cost-booking backend).
    """
    cb = CircuitBuilder()
    n = modulus.bit_length()
    if mode == EXACT_MODULAR:
        dest = cb.add_register("dest", n, "target")
        src = cb.add_register("src", n, "lookup")
        cb.mod_add(dest, src, modulus, -1 if subtract else 1)
    elif mode == COSET:
        width = n + pad
        dest = cb.add_register("dest", width, "target")
        src = cb.add_register("src", width, "lookup")
        carry = cb.add_register("carry", 1, "ancilla")
        gates = cuccaro_gates(src, dest, carry[0])
        if subtract:
            gates = invert_gates(gates)
        for gate in gates:
            cb.emit(gate)
    else:
        raise ValueError(f"unknown adder mode {mode!r}")
    cb.result_register = "dest"
    return cb.build()


# ---------------------------------------------------------------------------
# Windowed modular exponentiation.


@dataclass(frozen=True)
class ModexpPlan:
    """Window and workspace sizing of one modexp circuit, read by the
    circuit builder and by costs.exact_cost.

    Register order: exponent | multiplicand | target | lookup | unary |
    fanout | walk spine | carry. exp_windows and mul_windows hold the actual
    window widths, ragged boundary windows included; walk_bits and
    unary_bits are the widest walk and unary zone used anywhere in the
    circuit, and fanout is the width of the low-depth unary's control
    copies (0 when absent).
    """

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
    return ModexpPlan(exp_windows, mul_windows, walk_bits, unary_bits, fanout, cfg.adder == COSET)


class _ModexpEmitter:
    """Stateful assembler shared by the modexp builders and build_lookup_add.

    Registers follow the ModexpPlan. The multiplicand/target registers trade
    logical roles after each exponent window (a free renaming); self.acc and
    self.tgt track the current assignment and result_register records where
    the output ends up.
    """

    def __init__(self, cfg: ModexpConfig):
        self.cfg = cfg
        inst = cfg.inst
        plan = plan_modexp(cfg)
        self.modulus = inst.modulus
        width = cfg.value_width
        nep = cfg.opts.initial_lookup_bits
        self.exp_windows, self.mul_windows = plan.exp_windows, plan.mul_windows

        cb = CircuitBuilder()
        self.cb = cb
        self.exp = cb.add_register("exponent", inst.exp_bits, "exponent")
        self.acc = cb.add_register("multiplicand", width, "multiplicand")
        self.tgt = cb.add_register("target", width, "target")
        self.look = cb.add_register("lookup", width, "lookup")
        self.unary = cb.add_register("unary", plan.unary_size, "unary") if plan.unary_size else ()
        self.copies: tuple[int, ...] | None = (
            cb.add_register("fanout", plan.fanout, "ancilla") if plan.fanout else None
        )
        self.spine = cb.add_register("walk", plan.walk_bits + 1, "ancilla")
        self.carry = cb.add_register("carry", 1, "ancilla") if plan.carry else ()
        self.swaps = 0

        # Classical bases for the windowed part. When an initial lookup eats
        # nep bits, the windowed recursion continues from base**(2**nep).
        self.window_base = pow(inst.base, 1 << nep, self.modulus)
        self.window_base_inv = mod_inverse(self.window_base, self.modulus)
        self.reduced_inst = (
            ProblemInstance(self.modulus, self.window_base, sum(self.exp_windows))
            if self.exp_windows
            else None
        )

    # -- small helpers ------------------------------------------------------

    def emit_all(self, gates) -> None:
        for gate in gates:
            self.cb.emit(gate)

    def exp_window_qubits(self, index: int) -> tuple[int, ...]:
        start = self.cfg.opts.initial_lookup_bits + index * self.cfg.wp.exp_window
        return self.exp[start : start + self.exp_windows[index]]

    def acc_window_qubits(self, index: int) -> tuple[int, ...]:
        start = index * self.cfg.wp.mul_window
        return self.acc[start : start + self.mul_windows[index]]

    def swap_value_registers(self) -> None:
        self.acc, self.tgt = self.tgt, self.acc
        self.swaps += 1

    # -- emission -----------------------------------------------------------

    def emit_initialization(self) -> None:
        """Seed the accumulator: |1>, or the direct-exp table entry for the
        low initial_lookup_bits exponent bits."""
        nep = self.cfg.opts.initial_lookup_bits
        if nep == 0:
            self.cb.x(self.acc[0])
            return
        table = build_direct_exp_table(self.cfg.inst, nep)
        self.emit_all(
            select_walk_gates(self.exp[:nep], self.spine, xor_payload(table, self.acc))
        )

    def emit_lookup_add(
        self, exp_index: int, mul_index: int, forward: bool
    ) -> tuple[str, LookupTable]:
        """One lookup-addition: table lookup into the lookup register, add or
        subtract into the target, then uncompute (immediately, or by deferred
        measurement). Returns the measurement slot and the plain table, which
        deferred fixups need."""
        cfg = self.cfg
        base = self.window_base if forward else self.window_base_inv
        table = build_mul_table(self.reduced_inst, cfg.wp, exp_index, mul_index, base)
        addr = self.exp_window_qubits(exp_index) + self.acc_window_qubits(mul_index)

        if cfg.opts.selective_lookup:
            pruned = build_pruned_table(self.reduced_inst, cfg.wp, exp_index, mul_index, base)
            offset = mul_index * cfg.wp.mul_window
            for t, q in enumerate(self.acc_window_qubits(mul_index)):
                self.cb.cnot(q, self.look[offset + t])
            skip = 1 << self.exp_windows[exp_index]
            self.emit_all(
                select_walk_gates(addr, self.spine, xor_payload(pruned, self.look), skip)
            )
        else:
            self.emit_all(select_walk_gates(addr, self.spine, xor_payload(table, self.look)))

        if cfg.adder == EXACT_MODULAR:
            self.cb.mod_add(self.tgt, self.look, self.modulus, 1 if forward else -1)
        else:
            gates = cuccaro_gates(self.look, self.tgt, self.carry[0])
            self.emit_all(gates if forward else invert_gates(gates))

        slot = self.cb.new_slot("m")
        if cfg.opts.deferred_unlookup:
            self.cb.measure_x(self.look, slot)
        else:
            self.emit_all(
                unlookup_gates(addr, table, self.look, self.unary, self.spine, slot, self.copies)
            )
        return slot, table

    def emit_deferred_fixups(self, exp_index: int, recorded: list[tuple[str, LookupTable]]) -> None:
        """Shared fixup block for one sweep: a single unary conversion of the
        exponent window, one phase walk per multiplication window, teardown."""
        we = self.exp_windows[exp_index]
        exp_qubits = self.exp_window_qubits(exp_index)
        init = [Gate(X, (self.unary[0],))] + unary_forward_gates(
            exp_qubits, self.unary[: 1 << we], self.copies
        )
        self.emit_all(init)
        for mul_index, (slot, table) in enumerate(recorded):
            mult_qubits = self.acc_window_qubits(mul_index)
            self.emit_all(
                select_walk_gates(
                    mult_qubits, self.spine, phase_payload(table, we, self.unary, slot)
                )
            )
        self.emit_all(invert_gates(init))

    def emit_sweep(self, exp_index: int, forward: bool) -> None:
        recorded = []
        for mul_index in range(len(self.mul_windows)):
            recorded.append(self.emit_lookup_add(exp_index, mul_index, forward))
        if self.cfg.opts.deferred_unlookup:
            self.emit_deferred_fixups(exp_index, recorded)

    def build(self) -> Circuit:
        self.emit_initialization()
        for exp_index in range(len(self.exp_windows)):
            self.emit_sweep(exp_index, forward=True)
            self.swap_value_registers()
            self.emit_sweep(exp_index, forward=False)
        self.cb.result_register = "multiplicand" if self.swaps % 2 == 0 else "target"
        return self.cb.build()


def build_windowed_modexp(cfg: ModexpConfig) -> Circuit:
    """The full windowed modular exponentiation circuit for cfg, honoring
    every optimization flag.

    Input contract: all registers |0>, with the exponent register holding (a
    superposition of) x. Output: the result register (see result_register)
    holds base**x mod N, the exponent is unchanged, and every workspace
    register is back to zero, all phases +1, under the exact_modular adder.
    The coset adder books realistic gate counts instead and only approximates
    modular reduction.

    Per exponent window the accumulator is multiplied in via a forward sweep
    of lookup-additions, the registers swap roles (free renaming), and an
    inverse sweep with the inverted base uncomputes the stale value.
    """
    return _ModexpEmitter(cfg).build()


def build_lookup_add(cfg: ModexpConfig, exp_index: int, mul_index: int) -> Circuit:
    """A single lookup-addition at window (exp_index, mul_index) over the full
    modexp register plan. With deferred_unlookup the lookup register is
    measured and left to a later fixup block, otherwise it is uncomputed in
    place."""
    emitter = _ModexpEmitter(cfg)
    if not emitter.exp_windows:
        raise ValueError("no exponent windows: every bit is initial-lookup")
    emitter.emit_lookup_add(exp_index, mul_index, forward=True)
    emitter.cb.result_register = "target"
    return emitter.cb.build()


# ---------------------------------------------------------------------------
# Verification helpers.


def modexp_input_state(circuit: Circuit, exponents=None, seed: int = 0):
    """All-zero workspace with the exponent register in a uniform positive
    superposition over `exponents` (default: every value)."""
    from .sim import SparseState, deposit

    exp = circuit.register("exponent").qubits
    if exponents is None:
        exponents = range(1 << len(exp))
    branches = {deposit(0, exp, x): 1 for x in exponents}
    return SparseState.superposition(circuit.num_qubits, branches, seed)


def check_modexp_output(circuit: Circuit, inst: ProblemInstance, state) -> list[str]:
    """Compare a final simulator state against {(x, base**x mod N)} with all
    phases +1. Returns human-readable mismatch lines; empty means exact.
    Only meaningful for circuits built with the exact_modular adder."""
    from .sim import deposit, extract

    exp = circuit.register("exponent").qubits
    result = circuit.register(circuit.result_register).qubits
    errors = []
    for key, phase in sorted(state.branches.items()):
        x = extract(key, exp)
        expected_value = pow(inst.base, x, inst.modulus)
        expected_key = deposit(deposit(0, exp, x), result, expected_value)
        if key != expected_key:
            got = extract(key, result)
            if got != expected_value:
                errors.append(f"x={x}: result {got} (want {expected_value})")
            else:
                errors.append(f"x={x}: workspace not cleared (assignment {key:#x})")
        if phase != 1:
            errors.append(f"x={x}: phase {phase:+d} (want +1)")
    return errors
