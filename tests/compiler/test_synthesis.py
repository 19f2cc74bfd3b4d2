"""Tests for the NOR-based synthesiser: logic primitives, adders, multipliers
and the carry-save blocks.  All functional checks run against the netlist's
golden evaluator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.netlist import Netlist
from repro.compiler.synthesis import CircuitBuilder
from repro.errors import SynthesisError


def evaluate_word(netlist, input_map, word):
    values = netlist.evaluate(input_map)
    values[Netlist.CONST_ZERO] = 0
    values[Netlist.CONST_ONE] = 1
    return sum(values[s] << i for i, s in enumerate(word))


def assign(word, value):
    return {signal: (value >> i) & 1 for i, signal in enumerate(word)}


class TestLogicPrimitives:
    @pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_two_input_primitives(self, a, b):
        builder = CircuitBuilder()
        x, y = builder.input_bit(), builder.input_bit()
        outputs = {
            "and": builder.and_(x, y),
            "or": builder.or_(x, y),
            "nand": builder.nand(x, y),
            "xor": builder.xor(x, y),
            "xnor": builder.xnor(x, y),
        }
        for signal in outputs.values():
            builder.mark_output_bit(signal)
        values = builder.netlist.evaluate({x: a, y: b})
        assert values[outputs["and"]] == (a & b)
        assert values[outputs["or"]] == (a | b)
        assert values[outputs["nand"]] == 1 - (a & b)
        assert values[outputs["xor"]] == (a ^ b)
        assert values[outputs["xnor"]] == 1 - (a ^ b)

    @pytest.mark.parametrize("sel,a,b", [(0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)])
    def test_mux(self, sel, a, b):
        builder = CircuitBuilder()
        s, x, y = builder.input_bit(), builder.input_bit(), builder.input_bit()
        out = builder.mux(s, x, y)
        builder.mark_output_bit(out)
        value = builder.netlist.evaluate({s: sel, x: a, y: b})[out]
        assert value == (b if sel else a)

    @pytest.mark.parametrize("a,b,c", [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1)])
    def test_majority3(self, a, b, c):
        builder = CircuitBuilder()
        x, y, z = (builder.input_bit() for _ in range(3))
        out = builder.majority3(x, y, z)
        builder.mark_output_bit(out)
        assert builder.netlist.evaluate({x: a, y: b, z: c})[out] == (1 if a + b + c >= 2 else 0)

    def test_xor_uses_two_gates_with_multi_output(self):
        builder = CircuitBuilder(use_multi_output=True)
        x, y = builder.input_bit(), builder.input_bit()
        builder.mark_output_bit(builder.xor(x, y))
        assert builder.netlist.stats().n_gates == 2  # NOR22 + THR

    def test_xor_uses_three_gates_without_multi_output(self):
        builder = CircuitBuilder(use_multi_output=False)
        x, y = builder.input_bit(), builder.input_bit()
        builder.mark_output_bit(builder.xor(x, y))
        assert builder.netlist.stats().n_gates == 3  # NOR + CP + THR

    def test_reductions(self):
        builder = CircuitBuilder()
        word = builder.input_word(4)
        any_bit = builder.reduce_or(word)
        all_bits = builder.reduce_and(word)
        zero = builder.is_zero(word)
        for signal in (any_bit, all_bits, zero):
            builder.mark_output_bit(signal)
        values = builder.netlist.evaluate(assign(word, 0b1010))
        assert values[any_bit] == 1
        assert values[all_bits] == 0
        assert values[zero] == 0
        values = builder.netlist.evaluate(assign(word, 0))
        assert values[zero] == 1


class TestWordHelpers:
    def test_constants(self):
        builder = CircuitBuilder()
        word = builder.constant_word(5, 4)
        assert word[0] == Netlist.CONST_ONE
        assert word[1] == Netlist.CONST_ZERO
        with pytest.raises(SynthesisError):
            builder.constant_word(16, 4)

    def test_extensions_and_shift(self):
        builder = CircuitBuilder()
        word = builder.input_word(3)
        assert len(builder.zero_extend(word, 6)) == 6
        assert len(builder.sign_extend(word, 6)) == 6
        assert len(builder.shift_left(word, 2)) == 5
        assert builder.fit_width(word, 2) == word[:2]
        with pytest.raises(SynthesisError):
            builder.zero_extend(word, 2)

    def test_input_word_validation(self):
        with pytest.raises(SynthesisError):
            CircuitBuilder().input_word(0)


class TestAdderCells:
    """The ripple adder's cell, exhaustively, under both XOR lowerings (two
    gates with a multi-output NOR, three without)."""

    @pytest.mark.parametrize("multi_output", [True, False])
    @pytest.mark.parametrize("a,b,c", [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    def test_full_adder(self, a, b, c, multi_output):
        builder = CircuitBuilder(use_multi_output=multi_output)
        x, y, z = builder.input_bit(), builder.input_bit(), builder.input_bit()
        total, carry = builder.full_adder(x, y, z)
        values = builder.netlist.evaluate({x: a, y: b, z: c})
        assert values[total] + 2 * values[carry] == a + b + c


class TestAdders:
    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=30, deadline=None)
    def test_ripple_adder(self, a, b):
        builder = CircuitBuilder()
        x = builder.input_word(4)
        y = builder.input_word(4)
        total, carry = builder.ripple_adder(x, y)
        builder.mark_output_word(total)
        builder.mark_output_bit(carry)
        inputs = {**assign(x, a), **assign(y, b)}
        values = builder.netlist.evaluate(inputs)
        result = sum(values[s] << i for i, s in enumerate(total)) + (values[carry] << 4)
        assert result == a + b

    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=30, deadline=None)
    def test_subtract(self, a, b):
        builder = CircuitBuilder()
        x = builder.input_word(4)
        y = builder.input_word(4)
        difference, no_borrow = builder.subtract(x, y)
        builder.mark_output_word(difference)
        builder.mark_output_bit(no_borrow)
        inputs = {**assign(x, a), **assign(y, b)}
        values = builder.netlist.evaluate(inputs)
        assert sum(values[s] << i for i, s in enumerate(difference)) == (a - b) % 16
        assert values[no_borrow] == (1 if a >= b else 0)

    @given(st.integers(0, 15))
    @settings(max_examples=16, deadline=None)
    def test_increment_and_negate(self, a):
        builder = CircuitBuilder()
        x = builder.input_word(4)
        plus_one = builder.increment(x)
        negated = builder.negate(x)
        builder.mark_output_word(plus_one, "inc")
        builder.mark_output_word(negated, "neg")
        values = builder.netlist.evaluate(assign(x, a))
        assert sum(values[s] << i for i, s in enumerate(plus_one)) == (a + 1) % 16
        assert sum(values[s] << i for i, s in enumerate(negated)) == (-a) % 16

    def test_adder_width_mismatch(self):
        builder = CircuitBuilder()
        with pytest.raises(SynthesisError):
            builder.ripple_adder(builder.input_word(3), builder.input_word(4))

    @given(st.integers(0, 31), st.integers(0, 31))
    @settings(max_examples=20, deadline=None)
    def test_comparator(self, a, b):
        builder = CircuitBuilder()
        x = builder.input_word(5)
        y = builder.input_word(5)
        ge = builder.greater_equal_unsigned(x, y)
        eq = builder.equals(x, y)
        builder.mark_output_bit(ge)
        builder.mark_output_bit(eq)
        values = builder.netlist.evaluate({**assign(x, a), **assign(y, b)})
        assert values[ge] == (1 if a >= b else 0)
        assert values[eq] == (1 if a == b else 0)


class TestMultipliers:
    @pytest.mark.parametrize("a,b", [(0, 5), (7, 7), (5, 3), (6, 1), (3, 6), (7, 0)])
    def test_partial_products(self, a, b):
        builder = CircuitBuilder()
        x = builder.input_word(3, "a")
        y = builder.input_word(3, "b")
        products = builder.partial_products(x, y)
        inputs = {**assign(x, a), **assign(y, b)}
        words = [evaluate_word(builder.netlist, inputs, word) for word in products]
        assert words == [(a if (b >> shift) & 1 else 0) << shift for shift in range(3)]
        assert sum(words) == a * b
        # Shared operand complements, then one NOR per bit pair.
        assert builder.netlist.depth == 2

    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=20, deadline=None)
    def test_shift_add_multiplier(self, a, b):
        builder = CircuitBuilder()
        x = builder.input_word(4)
        y = builder.input_word(4)
        product = builder.multiply_unsigned(x, y)
        builder.mark_output_word(product)
        assert evaluate_word(builder.netlist, {**assign(x, a), **assign(y, b)}, product) == a * b

    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=20, deadline=None)
    def test_wallace_multiplier(self, a, b):
        builder = CircuitBuilder()
        x = builder.input_word(4)
        y = builder.input_word(4)
        product = builder.multiply_wallace(x, y)
        builder.mark_output_word(product)
        assert evaluate_word(builder.netlist, {**assign(x, a), **assign(y, b)}, product) == a * b

    def test_wallace_is_shallower_than_shift_add(self):
        shift_add = CircuitBuilder()
        x = shift_add.input_word(6)
        y = shift_add.input_word(6)
        shift_add.mark_output_word(shift_add.multiply_unsigned(x, y))
        wallace = CircuitBuilder()
        u = wallace.input_word(6)
        v = wallace.input_word(6)
        wallace.mark_output_word(wallace.multiply_wallace(u, v))
        assert wallace.netlist.depth < shift_add.netlist.depth

    @given(st.integers(0, 15), st.integers(0, 7))
    @settings(max_examples=20, deadline=None)
    def test_multiply_by_constant(self, a, constant):
        builder = CircuitBuilder()
        x = builder.input_word(4)
        product = builder.multiply_by_constant(x, constant)
        builder.mark_output_word(product)
        assert evaluate_word(builder.netlist, assign(x, a), product) == a * constant

    @given(st.integers(0, 255), st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=20, deadline=None)
    def test_mac(self, acc, a, b):
        builder = CircuitBuilder()
        accumulator = builder.input_word(10)
        x = builder.input_word(4)
        y = builder.input_word(4)
        result = builder.mac(accumulator, x, y)
        builder.mark_output_word(result)
        inputs = {**assign(accumulator, acc), **assign(x, a), **assign(y, b)}
        assert evaluate_word(builder.netlist, inputs, result) == (acc + a * b) % (1 << 10)

    def test_empty_operands_rejected(self):
        builder = CircuitBuilder()
        with pytest.raises(SynthesisError):
            builder.multiply_unsigned([], builder.input_word(2))


class TestCarrySaveArithmetic:
    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=20, deadline=None)
    def test_carry_save_add3(self, a, b, c):
        builder = CircuitBuilder()
        x = builder.input_word(6)
        y = builder.input_word(6)
        z = builder.input_word(6)
        total, carry = builder.carry_save_add3(x, y, z)
        builder.mark_output_word(total, "s")
        builder.mark_output_word(carry, "c")
        inputs = {**assign(x, a), **assign(y, b), **assign(z, c)}
        s_val = evaluate_word(builder.netlist, inputs, total)
        c_val = evaluate_word(builder.netlist, inputs, carry)
        assert s_val + c_val == a + b + c

    @given(st.lists(st.integers(0, 31), min_size=1, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_carry_save_reduce(self, addends):
        builder = CircuitBuilder()
        words = [builder.input_word(5, f"w{i}") for i in range(len(addends))]
        total, carry = builder.carry_save_reduce(words, width=9)
        final = builder.finalize_carry_save(total, carry, 9)
        builder.mark_output_word(final)
        inputs = {}
        for word, value in zip(words, addends):
            inputs.update(assign(word, value))
        assert evaluate_word(builder.netlist, inputs, final) == sum(addends) % (1 << 9)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=20, deadline=None)
    def test_mac_carry_save(self, acc_s, acc_c, a, b):
        builder = CircuitBuilder()
        sum_word = builder.input_word(10, "s")
        carry_word = builder.input_word(10, "c")
        x = builder.input_word(4, "a")
        y = builder.input_word(4, "b")
        new_sum, new_carry = builder.mac_carry_save(sum_word, carry_word, x, y, width=10)
        final = builder.finalize_carry_save(new_sum, new_carry, 10)
        builder.mark_output_word(final)
        inputs = {
            **assign(sum_word, acc_s),
            **assign(carry_word, acc_c),
            **assign(x, a),
            **assign(y, b),
        }
        expected = (acc_s + acc_c + a * b) % (1 << 10)
        assert evaluate_word(builder.netlist, inputs, final) == expected

    def test_carry_save_reduce_rejects_empty(self):
        with pytest.raises(SynthesisError):
            CircuitBuilder().carry_save_reduce([])

    def test_carry_save_levels_are_wide(self):
        # The whole point of the carry-save form: levels contain many
        # independent gates (bit positions are decoupled).
        builder = CircuitBuilder()
        x = builder.input_word(8)
        y = builder.input_word(8)
        total, carry = builder.multiply_carry_save(x, y)
        builder.mark_output_word(builder.fit_width(total, 16))
        builder.mark_output_word(builder.fit_width(carry, 16), "c")
        stats = builder.netlist.stats()
        assert stats.max_level_width >= 8
