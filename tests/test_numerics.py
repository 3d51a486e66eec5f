import math

import pytest
from hypothesis import given, strategies as st

from wmodexp.numerics import (
    LookupTable,
    ProblemInstance,
    WindowParams,
    build_direct_exp_table,
    build_mul_table,
    build_phase_fixup_table,
    build_pruned_table,
    dump_table,
    window_count,
    window_width,
)


class TestModInverse:
    """The base must be invertible mod N: ProblemInstance refuses it
    otherwise, naming both numbers."""

    def test_large_modulus_message_is_short(self):
        # A 3,072-bit modulus has 925 decimal digits; the message names its
        # bit length and leading hex digits instead.
        modulus = 3 * 2**3070 + 3
        assert modulus.bit_length() == 3072
        with pytest.raises(ValueError, match="base 3 shares a factor with 0xc") as caught:
            ProblemInstance(modulus, 3, 8)
        message = str(caught.value)
        assert len(message) < 80
        assert "3072 bits" in message and "0xc0000000" in message


class TestInstanceValidation:
    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            ProblemInstance(16, 3, 4)

    def test_non_coprime_base_rejected(self):
        with pytest.raises(ValueError, match="base 6 shares a factor with 15"):
            ProblemInstance(15, 6, 4)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: ProblemInstance(15, 0, 4), r"base must lie in \[1, modulus\), got 0"),
            (lambda: ProblemInstance(15, 16, 4), r"base must lie in \[1, modulus\), got 16"),
            (lambda: ProblemInstance(15, 7, 0), "exp_bits must be positive"),
            (lambda: WindowParams(0, 2), "window sizes must be >= 1"),
            (lambda: WindowParams(2, 0), "window sizes must be >= 1"),
            (lambda: LookupTable("sum", 1, 4, (0, 1)), "unknown table kind 'sum'"),
            (lambda: LookupTable("multiply", 1, 4, (0, 16)), "entry 1 = 16 exceeds 4 bits"),
            (lambda: LookupTable("multiply", 1, 4, (-1, 0)), "entry 0 = -1 exceeds 4 bits"),
            (
                lambda: build_phase_fixup_table(build_mul_table(15, 7, 1, 1, 0), 1, 3),
                "low_bits 3 out of range for 2 address bits",
            ),
            (
                lambda: build_phase_fixup_table(build_mul_table(15, 7, 1, 1, 0), 1, -1),
                "low_bits -1 out of range",
            ),
            (
                lambda: build_direct_exp_table(ProblemInstance(15, 7, 4), 5),
                r"initial_bits must lie in \[0, 4\]",
            ),
            (
                lambda: build_direct_exp_table(ProblemInstance(15, 7, 4), -1),
                r"initial_bits must lie in \[0, 4\]",
            ),
        ],
        ids=[
            "base=0",
            "base=N+1",
            "exp_bits=0",
            "exp_window=0",
            "mul_window=0",
            "table-kind",
            "entry-too-wide",
            "entry-negative",
            "low_bits-above",
            "low_bits-negative",
            "initial_bits-above",
            "initial_bits-negative",
        ],
    )
    def test_refuses_a_value_out_of_range(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_mod_bits(self):
        assert ProblemInstance(15, 7, 4).mod_bits == 4
        assert ProblemInstance(63, 2, 6).mod_bits == 6


class TestWindows:
    def test_count(self):
        assert window_count(6, 3) == 2
        assert window_count(7, 3) == 3
        assert window_count(1, 5) == 1

    def test_width_with_remainder(self):
        assert window_width(7, 3, 0) == 3
        assert window_width(7, 3, 2) == 1
        with pytest.raises(ValueError):
            window_width(7, 3, 3)

    def test_negative_index_is_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            window_width(7, 3, -1)


class TestMulTable:
    def test_mult_zero_rows_vanish(self):
        table = build_mul_table(15, 7, 2, 2, 0)
        exp_width = 2
        for expn in range(1 << exp_width):
            assert table[expn] == 0  # mult = 0 occupies the low address block

    def test_exp_zero_copies_mult(self):
        for j in (0, 1):
            table = build_mul_table(15, 7, 2, 2, 2 * j)
            for mult in range(4):
                addr = mult << 2
                assert table[addr] == (mult << (2 * j)) % 15

    def test_single_entry(self):
        table = build_mul_table(15, 7, 2, 2, 0)
        # mult = 1, expn = 1 at window (0, 0): 7^1 * 1 mod 15
        assert table[(1 << 2) | 1] == 7 % 15

    def test_all_entries_against_direct_formula(self):
        for i in range(window_count(4, 2)):
            for j in range(window_count(4, 2)):
                table = build_mul_table(15, pow(7, 1 << (i * 2), 15), 2, 2, j * 2)
                for mult in range(4):
                    for expn in range(4):
                        expected = (
                            pow(7, expn << (i * 2), 15) * ((mult << (j * 2)) % 15) % 15
                        )
                        assert table[(mult << 2) | expn] == expected

    def test_short_boundary_window(self):
        inst = ProblemInstance(23, 5, 5)  # 5 mod bits, 5 exp bits
        exp_width = window_width(inst.exp_bits, 3, 1)
        mul_width = window_width(inst.mod_bits, 3, 1)
        assert exp_width == mul_width == 2  # both windows are 2 bits here
        table = build_mul_table(23, pow(5, 1 << 3, 23), exp_width, mul_width, 3)
        assert table.addr_bits == 4
        assert len(table) == 16

    def test_far_window_against_direct_formula(self):
        # Window 604 of a 3,029-bit exponent sits 3,020 bits up.
        table = build_mul_table(1021, pow(3, 1 << 3020, 1021), 5, 5, 0)
        for addr in (1 << 5 | 1, 3 << 5 | 2, 31 << 5 | 31):
            mult, expn = addr >> 5, addr & 31
            assert table[addr] == pow(3, expn << 3020, 1021) * mult % 1021


class TestPrunedTable:
    @given(st.data())
    def test_xor_identity(self, data):
        modulus = data.draw(st.sampled_from([9, 15, 21, 33, 35, 63]))
        base = data.draw(
            st.sampled_from([b for b in range(2, modulus) if mod_is_coprime(b, modulus)])
        )
        inst = ProblemInstance(modulus, base, 4)
        wp = WindowParams(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
        i = data.draw(st.integers(0, window_count(inst.exp_bits, wp.exp_window) - 1))
        j = data.draw(st.integers(0, window_count(inst.mod_bits, wp.mul_window) - 1))
        exp_width = window_width(inst.exp_bits, wp.exp_window, i)
        mul_width = window_width(inst.mod_bits, wp.mul_window, j)
        step = pow(base, 1 << (i * wp.exp_window), modulus)
        plain = build_mul_table(modulus, step, exp_width, mul_width, j * wp.mul_window)
        pruned = build_pruned_table(plain, exp_width, j * wp.mul_window)
        for addr in range(len(plain)):
            mult = addr >> exp_width
            assert pruned[addr] ^ (mult << (j * wp.mul_window)) == plain[addr]

    def test_mult_zero_rows(self):
        pruned = build_pruned_table(build_mul_table(15, 7, 2, 2, 0), 2, 0)
        for expn in range(4):
            assert pruned[expn] == 0


def mod_is_coprime(a, n):
    return math.gcd(a, n) == 1


class TestPhaseFixupTable:
    def test_zero_outcome(self):
        table = build_mul_table(15, 7, 2, 2, 0)
        fixup = build_phase_fixup_table(table, 0, 2)
        assert all(row == 0 for row in fixup.entries)

    def test_zero_table(self):
        table = LookupTable("multiply", 3, 4, (0,) * 8)
        for outcome in range(16):
            fixup = build_phase_fixup_table(table, outcome, 1)
            assert all(row == 0 for row in fixup.entries)

    @given(
        st.lists(st.integers(0, 15), min_size=4, max_size=4),
        st.integers(0, 15),
        st.integers(0, 2),
    )
    def test_against_enumeration(self, values, outcome, low_bits):
        table = LookupTable("multiply", 2, 4, tuple(values))
        fixup = build_phase_fixup_table(table, outcome, low_bits)
        assert fixup.addr_bits == 2 - low_bits
        assert len(fixup) == 1 << (2 - low_bits)
        for addr in range(4):
            high, low = addr >> low_bits, addr & ((1 << low_bits) - 1)
            needs_flip = bin(outcome & values[addr]).count("1") % 2 == 1
            assert bool(fixup[high] >> low & 1) == needs_flip


class TestDirectExpTable:
    def test_first_entries(self):
        inst = ProblemInstance(15, 7, 4)
        table = build_direct_exp_table(inst, 3)
        assert table[0] == 1
        assert table[1] == 7

    def test_all_against_mod_pow(self):
        inst = ProblemInstance(21, 2, 5)
        table = build_direct_exp_table(inst, 5)
        for e in range(32):
            assert table[e] == pow(2, e, 21)


class TestSerialization:
    def test_round_trip(self):
        table = LookupTable("pruned", 2, 12, (0, 0xABC, 7, 0x100))
        assert dump_table(table) == "table pruned 2 12\n0\nabc\n7\n100\n"

    def test_length_validation(self):
        with pytest.raises(ValueError):
            LookupTable("multiply", 2, 4, (0, 1, 2))
