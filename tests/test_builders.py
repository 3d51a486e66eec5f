"""Unary converters, table lookup, unlookup, and the adder gate producers."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmodexp.builders import (
    ModexpConfig,
    ModexpOptions,
    build_windowed_modexp,
    _walk_shape,
    cuccaro_gates,
    select_walk_gates,
    unary_forward_gates,
    xor_payload,
)
from wmodexp.circuit import (
    CNOT,
    COUNTED,
    PHASE_Z,
    TEMP_AND,
    TEMP_AND_UNDO,
    X,
    CircuitBuilder,
    Gate,
    invert_gates,
    mod_add_gate,
    tally,
)
from wmodexp.numerics import (
    LookupTable,
    ProblemInstance,
    WindowParams,
    build_mul_table,
    build_pruned_table,
)
from wmodexp.sim import ContractViolation, deposit, extract, run

from standalone_circuits import (
    build_qrom_lookup,
    build_unary,
    build_unary_lowdepth,
    build_unlookup,
    dump_circuit,
    superposition,
)


def single_branch(circuit, assignments, seed=0):
    """State with one branch, assignments = {register name: value}."""
    key = 0
    for name, value in assignments.items():
        key = deposit(key, circuit.register(name).qubits, value)
    return superposition(circuit.num_qubits, {key: 1}, seed)


def only_branch(state):
    (key,) = state.branches
    return key


def random_table(addr_bits, word_bits, seed):
    rng = random.Random(seed)
    entries = tuple(rng.randrange(1 << word_bits) for _ in range(1 << addr_bits))
    return LookupTable("multiply", addr_bits, word_bits, entries)


# -- unary conversion -------------------------------------------------------


@pytest.mark.parametrize("width", [1, 2, 3])
def test_unary_routes_marker_to_value(width):
    circuit = build_unary(width)
    out = circuit.register("unary_out").qubits
    for value in range(1 << width):
        state = run(circuit, single_branch(circuit, {"input": value, "unary_out": 1}))
        key = only_branch(state)
        assert extract(key, out) == 1 << value
        assert extract(key, circuit.register("input").qubits) == value


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_unary_cost_is_serial(width):
    counts = tally(build_unary(width))
    assert counts.toffoli_count == (1 << width) - 1


@pytest.mark.parametrize("width", [1, 2, 3])
def test_unary_lowdepth_same_function(width):
    circuit = build_unary_lowdepth(width)
    out = circuit.register("unary_out").qubits
    for value in range(1 << width):
        state = run(circuit, single_branch(circuit, {"input": value, "unary_out": 1}))
        assert extract(only_branch(state), out) == 1 << value


def test_unary_lowdepth_desk_numbers():
    circuit = build_unary_lowdepth(3)
    counts = tally(circuit)
    assert counts.toffoli_count == 7
    assert counts.toffoli_depth == 3
    # working space: one-hot output plus routing copies
    space = len(circuit.register("unary_out")) + len(circuit.register("routing"))
    assert space == 11
    assert counts.qubit_highwater == 14


def test_unary_teardown_costs_nothing():
    cb = CircuitBuilder()
    bits = cb.add_register("bits", 3)
    out = cb.add_register("out", 8)
    forward = unary_forward_gates(bits, out)
    for gate in forward:
        cb.emit(gate)
    for gate in invert_gates(forward):
        cb.emit(gate)
    circuit = cb.build()
    assert tally(circuit).toffoli_count == 7  # forward only
    for value in range(8):
        state = run(circuit, single_branch(circuit, {"bits": value, "out": 1}))
        assert extract(only_branch(state), out) == 1  # back where it started


def test_unary_register_too_small():
    with pytest.raises(ValueError, match="unary register needs 4 qubits"):
        unary_forward_gates((0, 1), (2, 3, 4))


# -- table lookup -----------------------------------------------------------


def test_lookup_two_bit_address_costs_three():
    counts = tally(build_qrom_lookup(random_table(2, 4, 1)))
    assert counts.toffoli_count == 3
    assert counts.toffoli_depth == 3


@pytest.mark.parametrize("addr_bits", [1, 2, 3, 4])
def test_lookup_writes_entry(addr_bits):
    table = random_table(addr_bits, 5, addr_bits)
    circuit = build_qrom_lookup(table)
    dest = circuit.register("dest").qubits
    for addr in range(len(table)):
        state = run(circuit, single_branch(circuit, {"address": addr}))
        key = only_branch(state)
        assert extract(key, dest) == table.entries[addr]
        # everything else, walk spine included, is back to zero
        assert key == deposit(
            deposit(0, circuit.register("address").qubits, addr), dest, table.entries[addr]
        )


def test_lookup_xors_into_nonzero_dest():
    table = random_table(3, 4, 9)
    circuit = build_qrom_lookup(table)
    dest = circuit.register("dest").qubits
    state = run(circuit, single_branch(circuit, {"address": 5, "dest": 0b1010}))
    assert extract(only_branch(state), dest) == table.entries[5] ^ 0b1010


def test_lookup_superposed_address():
    table = random_table(3, 4, 2)
    circuit = build_qrom_lookup(table)
    addr = circuit.register("address").qubits
    dest = circuit.register("dest").qubits
    start = {deposit(0, addr, a): 1 for a in range(8)}
    state = run(circuit, superposition(circuit.num_qubits, start))
    expected = {deposit(k, dest, table.entries[extract(k, addr)]): 1 for k in start}
    assert state.branches == expected


@pytest.mark.parametrize("skip_bits", [0, 1, 2])
def test_selective_lookup_skips_low_addresses(skip_bits):
    table = random_table(3, 4, 3)
    skip = 1 << skip_bits if skip_bits else 0
    circuit = build_qrom_lookup(table, skip_below=skip)
    dest = circuit.register("dest").qubits
    assert tally(circuit).toffoli_count == 8 - max(skip, 1)
    for addr in range(8):
        state = run(circuit, single_branch(circuit, {"address": addr}))
        want = 0 if addr < skip else table.entries[addr]
        assert extract(only_branch(state), dest) == want


def test_walk_count_scales_with_addresses():
    counts = tally(build_qrom_lookup(random_table(4, 3, 4)))
    assert counts.toffoli_count == 15
    # layering may overlap disjoint subtrees, but never beats the count
    assert counts.toffoli_depth <= counts.toffoli_count


def test_walk_spine_too_short():
    with pytest.raises(ValueError, match="walk spine too short for the address width"):
        select_walk_gates((0, 1), (2, 3), lambda a, line: [])


def test_payload_dest_narrower_than_the_entries():
    with pytest.raises(ValueError, match="dest has 2 qubits for 3-bit entries"):
        xor_payload(LookupTable("multiply", 1, 3, (0, 5)), (0, 1))


def test_adder_operands_of_unequal_width():
    with pytest.raises(ValueError, match="equal width"):
        cuccaro_gates((0, 1), (2,), 3)


def reference_walk(addr_lsb, spine, payload, skip_below):
    """The select walk as a direct recursion over the address tree."""
    width = len(addr_lsb)
    addr_msb = addr_lsb[::-1]
    gates = [Gate(X, (spine[0],))]

    def descend(depth, prefix, parent):
        span = 1 << (width - depth)
        if (prefix + 1) * span <= skip_below:
            return
        if depth == width:
            gates.extend(payload(prefix, parent))
            return
        bit, child = addr_msb[depth], spine[depth + 1]
        if prefix * span + span // 2 <= skip_below:
            gates.append(Gate(TEMP_AND, (parent, bit, child)))
            descend(depth + 1, 2 * prefix + 1, child)
        else:
            gates.extend([Gate(X, (bit,)), Gate(TEMP_AND, (parent, bit, child)), Gate(X, (bit,))])
            descend(depth + 1, 2 * prefix, child)
            gates.append(Gate(CNOT, (parent, child)))
            descend(depth + 1, 2 * prefix + 1, child)
        gates.append(Gate(TEMP_AND_UNDO, (parent, bit, child)))

    descend(0, 0, spine[0])
    gates.append(Gate(X, (spine[0],)))
    return gates


def leaf_marker(log):
    """Payload that logs (address, line) and marks its place in the stream."""

    def payload(address, line):
        log.append((address, line))
        return [Gate(PHASE_Z, (line,), mask=address)]

    return payload


def test_walk_matches_the_recursive_reference():
    # Every address width up to 6 under every skip bound (and a negative
    # one, which skips nothing), with scrambled address and spine qubits and
    # a spine longer than needed.
    for width in range(7):
        qubits = random.Random(width).sample(range(100), 2 * width + 2)
        addr, spine = tuple(qubits[:width]), tuple(qubits[width:])
        for skip in range(-1, (1 << width) + 1):
            got_leaves, want_leaves = [], []
            got = select_walk_gates(addr, spine, leaf_marker(got_leaves), skip)
            want = reference_walk(addr, spine, leaf_marker(want_leaves), skip)
            assert got == want, (width, skip)
            assert got_leaves == want_leaves, (width, skip)
    info = _walk_shape.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


# -- measurement-based unlookup --------------------------------------------


@pytest.mark.parametrize("addr_bits,expected_tofs", [(1, 1), (2, 2), (3, 4), (4, 6)])
def test_unlookup_cost_split(addr_bits, expected_tofs):
    # 2^(l//2) + 2^(l - l//2) - 2 temp-ANDs, one transcript measurement
    counts = tally(build_unlookup(random_table(addr_bits, 4, addr_bits)))
    assert counts.toffoli_count == expected_tofs
    assert counts.measurement_depth == 1


@pytest.mark.parametrize("addr_bits", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(10))
def test_unlookup_restores_prelookup_state(addr_bits, seed):
    table = random_table(addr_bits, 5, 31 * addr_bits)
    circuit = build_unlookup(table)
    addr = circuit.register("address").qubits
    dest = circuit.register("dest").qubits
    before = {deposit(0, addr, a): 1 for a in range(len(table))}
    loaded = {deposit(k, dest, table.entries[extract(k, addr)]): 1 for k in before}
    state = superposition(circuit.num_qubits, loaded, seed)
    state = run(circuit, state)
    # bit- and phase-exact, not merely up to global phase
    assert state.branches == before


def test_unlookup_lowdepth_variant_matches():
    table = random_table(4, 4, 77)
    plain = build_unlookup(table)
    routed = build_unlookup(table, lowdepth_unary=True)
    assert tally(plain).toffoli_count == tally(routed).toffoli_count
    addr = routed.register("address").qubits
    dest = routed.register("dest").qubits
    before = {deposit(0, addr, a): 1 for a in range(16)}
    loaded = {deposit(k, dest, table.entries[extract(k, addr)]): 1 for k in before}
    state = run(routed, superposition(routed.num_qubits, loaded, 3))
    assert state.branches == before


def test_unlookup_rejects_tampered_dest():
    # dest must be a function of the address; break one branch and the
    # measurement contract check has to fire
    table = random_table(3, 4, 8)
    circuit = build_unlookup(table)
    addr = circuit.register("address").qubits
    dest = circuit.register("dest").qubits
    loaded = {
        deposit(deposit(0, addr, a), dest, table.entries[a] if a else table.entries[a] ^ 1): 1
        for a in range(8)
    }
    # two branches with identical non-dest bits need identical dest values;
    # address 0 appears once, so give it a colliding twin
    loaded[deposit(deposit(0, addr, 0), dest, table.entries[0])] = 1
    state = superposition(circuit.num_qubits, loaded)
    with pytest.raises(ContractViolation):
        run(circuit, state)


# -- adders -----------------------------------------------------------------


def adder_circuit(modulus, pad=None, subtract=False):
    """dest += src (or -=) from the gates build_windowed_modexp emits: one
    modular oracle gate when pad is None, else a Cuccaro ripple over
    modulus-width + pad registers with a carry ancilla."""
    cb = CircuitBuilder()
    width = modulus.bit_length() + (pad or 0)
    dest = cb.add_register("dest", width)
    src = cb.add_register("src", width)
    if pad is None:
        cb.emit(mod_add_gate(dest, src, modulus, -1 if subtract else 1))
    else:
        carry = cb.add_register("carry", 1)
        gates = cuccaro_gates(src, dest, carry[0])
        cb.emit(*(invert_gates(gates) if subtract else gates))
    return cb.build()


def test_exact_adder_full_table():
    circuit = adder_circuit(13)
    dest = circuit.register("dest").qubits
    for a in range(13):
        for b in range(13):
            state = run(circuit, single_branch(circuit, {"dest": a, "src": b}))
            assert extract(only_branch(state), dest) == (a + b) % 13
    assert tally(circuit).toffoli_count == 0


def test_exact_adder_subtract():
    circuit = adder_circuit(13, subtract=True)
    dest = circuit.register("dest").qubits
    state = run(circuit, single_branch(circuit, {"dest": 3, "src": 9}))
    assert extract(only_branch(state), dest) == (3 - 9) % 13


@settings(max_examples=60, deadline=None)
@given(
    pad=st.integers(0, 2),
    a=st.integers(0, 31),
    b=st.integers(0, 31),
    subtract=st.booleans(),
)
def test_coset_adder_wraps_power_of_two(pad, a, b, subtract):
    width = 3 + pad
    a, b = a % (1 << width), b % (1 << width)
    circuit = adder_circuit(5, pad=pad, subtract=subtract)
    dest = circuit.register("dest").qubits
    state = run(circuit, single_branch(circuit, {"dest": a, "src": b}))
    key = only_branch(state)
    want = (a - b if subtract else a + b) % (1 << width)
    assert extract(key, dest) == want
    assert extract(key, circuit.register("src").qubits) == b
    assert extract(key, circuit.register("carry").qubits) == 0


@pytest.mark.parametrize("pad", [0, 2])
def test_coset_adder_cost(pad):
    circuit = adder_circuit(5, pad=pad)
    counts = tally(circuit)
    assert counts.toffoli_count == 2 * (3 + pad)
    assert counts.toffoli_depth == 2 * (3 + pad)
    assert all(g.name in ("CNOT", "Toffoli") for g in circuit.gates)


def test_counted_gate_set_is_what_costing_assumes():
    assert COUNTED == {"Toffoli", "TempAndCompute"}


# ---------------------------------------------------------------------------
# Gate-stream pin: the first 16 hex digits of sha256(dump_circuit(...)) of
# each circuit below. A refactoring of the builders must leave them alone;
# a change to any gate, operand or register of these circuits shows up here
# by name, and a deliberate one updates the digest.


def _pinned_circuits():
    """(name, zero-argument builder) for every pinned circuit."""
    shapes = {
        "15": (ProblemInstance(15, 7, 4), WindowParams(2, 2), 2),
        "21": (ProblemInstance(21, 2, 6), WindowParams(3, 2), 3),
    }
    circuits = []
    for tag, (inst, wp, nep) in shapes.items():
        for bits in range(16):
            opts = ModexpOptions(
                deferred_unlookup=bool(bits & 1),
                selective_lookup=bool(bits & 2),
                initial_lookup_bits=nep if bits & 4 else 0,
                lowdepth_unary=bool(bits & 8),
            )
            cfg = ModexpConfig(inst, wp, opts)
            circuits.append((f"modexp{tag}.flags{bits}", lambda c=cfg: build_windowed_modexp(c)))
    coset = ModexpConfig(
        ProblemInstance(21, 2, 6),
        WindowParams(3, 2),
        ModexpOptions(True, True, 0, True),
        coset_pad=1,
    )
    circuits.append(("modexp21.coset", lambda: build_windowed_modexp(coset)))
    for w in range(1, 5):
        circuits.append((f"unary{w}", lambda w=w: build_unary(w)))
        circuits.append((f"unary_lowdepth{w}", lambda w=w: build_unary_lowdepth(w)))
    wp = WindowParams(2, 2)
    table = build_mul_table(15, 7, wp.exp_window, wp.mul_window, wp.mul_window)
    pruned = build_pruned_table(table, wp.exp_window, wp.mul_window)
    circuits += [
        ("qrom", lambda: build_qrom_lookup(table)),
        ("qrom_skip", lambda: build_qrom_lookup(pruned, 1 << wp.exp_window)),
        ("unlookup", lambda: build_unlookup(table)),
        ("unlookup_lowdepth", lambda: build_unlookup(table, lowdepth_unary=True)),
    ]
    return circuits


PINNED_DIGESTS = {
    "modexp15.flags0": "6ceedc1658d4c2b7",
    "modexp15.flags1": "44fcf4f7826043e3",
    "modexp15.flags2": "68408f5c633d6514",
    "modexp15.flags3": "0d87557b1a3b3b16",
    "modexp15.flags4": "82d48a187c74cb4b",
    "modexp15.flags5": "2c4e3adc03656940",
    "modexp15.flags6": "884474510b0c3d37",
    "modexp15.flags7": "ac27901c308a15dd",
    "modexp15.flags8": "a1f0bc49e0482765",
    "modexp15.flags9": "efd1d077cac3bd52",
    "modexp15.flags10": "3c1ea09ba9799b39",
    "modexp15.flags11": "659afda205cb8483",
    "modexp15.flags12": "bdb2c88f0ba8b8c2",
    "modexp15.flags13": "9dc8bad429c953d1",
    "modexp15.flags14": "5f33df550f5810ec",
    "modexp15.flags15": "ad3b8e64740f360c",
    "modexp21.flags0": "0bc7a128634d3aae",
    "modexp21.flags1": "277728102640694f",
    "modexp21.flags2": "42411cbd14837e5c",
    "modexp21.flags3": "6bbfa6b387a6f01a",
    "modexp21.flags4": "4939feb6e9f0c19b",
    "modexp21.flags5": "4d6e4a691e4ad3bf",
    "modexp21.flags6": "0d074cc69a557d67",
    "modexp21.flags7": "98117a67fa85d5ea",
    "modexp21.flags8": "89fa75ef18ea44b9",
    "modexp21.flags9": "3995250e1608a6bd",
    "modexp21.flags10": "b0e771ca4fe397b0",
    "modexp21.flags11": "428fee1503667f0e",
    "modexp21.flags12": "3dfac418c85ded5a",
    "modexp21.flags13": "3057b705756fab6a",
    "modexp21.flags14": "e48eebea9b3597bf",
    "modexp21.flags15": "8530c36b842a173f",
    "modexp21.coset": "808e387f9ac6c422",
    "unary1": "e5e6e85ffa23f5f0",
    "unary_lowdepth1": "8c0b9e910fe834ab",
    "unary2": "15e6cc06d55aec2a",
    "unary_lowdepth2": "db0531318c212c47",
    "unary3": "48ef33b229363345",
    "unary_lowdepth3": "c4499b6151f06195",
    "unary4": "52a4db64d72b2449",
    "unary_lowdepth4": "73e5a174dc9ab028",
    "qrom": "64915b481bf41424",
    "qrom_skip": "fc97772c6e29f2c1",
    "unlookup": "a725bf51c8bb6c06",
    "unlookup_lowdepth": "c145f344aaf5fd1b",
}


def test_gate_streams_are_pinned():
    changed = []
    for name, build in _pinned_circuits():
        digest = hashlib.sha256(dump_circuit(build()).encode()).hexdigest()[:16]
        if PINNED_DIGESTS.get(name) != digest:
            changed.append(f"{name}: {digest} (pinned {PINNED_DIGESTS.get(name)})")
    assert not changed, "gate stream changed for " + "; ".join(changed)
