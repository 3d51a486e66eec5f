import math

import pytest
from hypothesis import given, strategies as st

from wmodexp.numerics import (
    LookupTable,
    NotInvertible,
    ProblemInstance,
    WindowParams,
    build_direct_exp_table,
    build_mul_table,
    build_phase_fixup_table,
    build_pruned_table,
    dump_table,
    load_table,
    mod_inverse,
    window_count,
    window_width,
)


class TestModInverse:
    def test_seven_mod_fifteen(self):
        # Oracle: exhaustive search over [1, 15).
        expected = next(x for x in range(1, 15) if 7 * x % 15 == 1)
        assert mod_inverse(7, 15) == expected

    def test_one(self):
        assert mod_inverse(1, 21) == 1

    def test_shared_factor(self):
        with pytest.raises(NotInvertible):
            mod_inverse(5, 15)

    @given(st.integers(min_value=2, max_value=300), st.integers(min_value=1, max_value=299))
    def test_product_is_one(self, modulus, value):
        if math.gcd(value, modulus) == 1:
            assert mod_inverse(value, modulus) * value % modulus == 1
        else:
            with pytest.raises(NotInvertible):
                mod_inverse(value, modulus)


class TestInstanceValidation:
    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            ProblemInstance(16, 3, 4)

    def test_non_coprime_base_rejected(self):
        with pytest.raises(NotInvertible):
            ProblemInstance(15, 6, 4)

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


class TestMulTable:
    def setup_method(self):
        self.inst = ProblemInstance(15, 7, 4)
        self.wp = WindowParams(2, 2)

    def test_mult_zero_rows_vanish(self):
        table = build_mul_table(self.inst, self.wp, 0, 0)
        exp_width = 2
        for expn in range(1 << exp_width):
            assert table[expn] == 0  # mult = 0 occupies the low address block

    def test_exp_zero_copies_mult(self):
        for j in (0, 1):
            table = build_mul_table(self.inst, self.wp, 0, j)
            for mult in range(4):
                addr = mult << 2
                assert table[addr] == (mult << (2 * j)) % 15

    def test_single_entry(self):
        table = build_mul_table(self.inst, self.wp, 0, 0)
        # mult = 1, expn = 1 at window (0, 0): 7^1 * 1 mod 15
        assert table[(1 << 2) | 1] == 7 % 15

    def test_all_entries_against_direct_formula(self):
        for i in range(window_count(4, 2)):
            for j in range(window_count(4, 2)):
                table = build_mul_table(self.inst, self.wp, i, j)
                for mult in range(4):
                    for expn in range(4):
                        expected = (
                            pow(7, expn << (i * 2), 15) * ((mult << (j * 2)) % 15) % 15
                        )
                        assert table[(mult << 2) | expn] == expected

    def test_short_boundary_window(self):
        inst = ProblemInstance(23, 5, 5)  # 5 mod bits, 5 exp bits
        wp = WindowParams(3, 3)
        table = build_mul_table(inst, wp, 1, 1)  # both windows are 2 bits here
        assert table.addr_bits == 4
        assert len(table) == 16

    def test_invalid_base(self):
        with pytest.raises(NotInvertible):
            build_mul_table(self.inst, self.wp, 0, 0, base=5)


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
        plain = build_mul_table(inst, wp, i, j)
        pruned = build_pruned_table(inst, wp, i, j)
        exp_width = plain.addr_bits - window_width(inst.mod_bits, wp.mul_window, j)
        for addr in range(len(plain)):
            mult = addr >> exp_width
            assert pruned[addr] ^ (mult << (j * wp.mul_window)) == plain[addr]

    def test_mult_zero_rows(self):
        inst = ProblemInstance(15, 7, 4)
        pruned = build_pruned_table(inst, WindowParams(2, 2), 0, 0)
        for expn in range(4):
            assert pruned[expn] == 0


def mod_is_coprime(a, n):
    return math.gcd(a, n) == 1


class TestPhaseFixupTable:
    def test_zero_outcome(self):
        inst = ProblemInstance(15, 7, 4)
        table = build_mul_table(inst, WindowParams(2, 2), 0, 0)
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
    @given(st.data())
    def test_round_trip(self, data):
        addr_bits = data.draw(st.integers(0, 5))
        word_bits = data.draw(st.integers(1, 12))
        entries = tuple(
            data.draw(st.integers(0, (1 << word_bits) - 1)) for _ in range(1 << addr_bits)
        )
        kind = data.draw(st.sampled_from(LookupTable.KINDS))
        table = LookupTable(kind, addr_bits, word_bits, entries)
        assert load_table(dump_table(table)) == table

    def test_bad_header(self):
        with pytest.raises(ValueError):
            load_table("nonsense 1 2 3\n0\n")

    def test_length_validation(self):
        with pytest.raises(ValueError):
            LookupTable("multiply", 2, 4, (0, 1, 2))
