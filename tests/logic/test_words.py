"""Unit and property tests for word-level ternary+taint values."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.ternary import ONE, UNKNOWN, ZERO
from repro.logic.words import TWord

WIDTH = 4  # small width keeps brute-force oracles cheap
FULL = (1 << WIDTH) - 1


def tword(draw_bits, draw_x, draw_t, width=WIDTH):
    return TWord(draw_bits, draw_x, draw_t, width)


small_words = st.builds(
    tword,
    st.integers(0, FULL),
    st.integers(0, FULL),
    st.integers(0, FULL),
)


def concretize(word, assignment):
    """Concrete value of *word* with X bits filled from *assignment* bits."""
    value = word.bits
    position = 0
    for index in range(word.width):
        if word.xmask >> index & 1:
            if assignment >> position & 1:
                value |= 1 << index
            position += 1
    return value


def all_concretizations(word):
    count = bin(word.xmask).count("1")
    return [concretize(word, combo) for combo in range(1 << count)]


class TestConstruction:
    def test_const(self):
        word = TWord.const(0xBEEF)
        assert word.is_concrete
        assert word.value == 0xBEEF
        assert not word.is_tainted

    def test_unknown(self):
        word = TWord.unknown()
        assert not word.is_concrete
        assert word.xmask == 0xFFFF
        with pytest.raises(ValueError):
            _ = word.value

    def test_canonical_form_zeroes_x_bits(self):
        word = TWord(0b1111, 0b0101, 0, 4)
        assert word.bits == 0b1010

    def test_width_masking(self):
        word = TWord(0x1FFFF, 0, 0, 16)
        assert word.bits == 0xFFFF

    def test_bit_accessor(self):
        word = TWord(0b01, 0b100, 0b10, 4)
        assert word.bit(0) == (ONE, 0)
        assert word.bit(1) == (ZERO, 1)
        assert word.bit(2) == (UNKNOWN, 0)

    def test_repr_marks_taint_and_x(self):
        word = TWord(0b01, 0b100, 0b10, 3)
        assert repr(word) == "TWord(X0'1)"

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 16),
        st.integers(0, (1 << 18) - 1),
        st.integers(0, (1 << 18) - 1),
        st.integers(0, (1 << 18) - 1),
    )
    def test_repr_matches_the_per_bit_walk(self, width, bits, xmask, tmask):
        """Checkpointed state digests hash ``repr`` of words, so the
        string must equal the per-bit walk it replaced, byte for byte:
        for constructed words (masks drawn past the width) and for raw
        attributes whose known bits overlap the X mask."""
        word = TWord(bits, xmask, tmask, width)
        assert repr(word) == frozen_repr(word)
        raw = object.__new__(TWord)
        mask = (1 << width) - 1
        raw.bits, raw.xmask, raw.tmask, raw.width = (
            bits & mask, xmask & mask, tmask & mask, width
        )
        assert repr(raw) == frozen_repr(raw)


def frozen_repr(word):
    """``TWord.__repr__`` as it was written before the lane encoding:
    one ``TWord.bit`` call per bit, most significant first."""
    digits = []
    for index in reversed(range(word.width)):
        value, taint = word.bit(index)
        char = "X" if value == UNKNOWN else str(value)
        digits.append(char + ("'" if taint else ""))
    return "TWord(" + "".join(digits) + ")"


class TestPossibleValues:
    def test_concrete_single(self):
        assert list(TWord.const(7, 4).possible_values()) == [7]

    def test_two_unknown_bits(self):
        word = TWord(0b1000, 0b0011, 0, 4)
        assert sorted(word.possible_values()) == [8, 9, 10, 11]

    def test_limit_enforced(self):
        word = TWord.unknown(16)
        with pytest.raises(ValueError):
            list(word.possible_values(limit=8))


class TestBitwiseOracle:
    """Symbolic bitwise ops versus brute-force value/influence oracles."""

    @given(small_words, small_words)
    @settings(max_examples=300)
    def test_and_or_xor_sound_and_value_exact(self, a, b):
        for op, ref in (
            (lambda x, y: x & y, lambda x, y: x & y),
            (lambda x, y: x | y, lambda x, y: x | y),
            (lambda x, y: x ^ y, lambda x, y: x ^ y),
        ):
            out = op(a, b)
            results = {
                ref(ca, cb)
                for ca in all_concretizations(a)
                for cb in all_concretizations(b)
            }
            # Every concrete outcome must be covered by the symbolic result.
            for result in results:
                covered = (result & ~out.xmask) == out.bits
                assert covered
            # Known output bits must be constant across concretizations.
            for index in range(WIDTH):
                if not (out.xmask >> index & 1):
                    assert len({r >> index & 1 for r in results}) == 1

    @given(small_words, small_words)
    @settings(max_examples=300)
    def test_and_taint_matches_bitwise_glift(self, a, b):
        from repro.logic.glift import GATE_FUNCTIONS, glift_eval

        out = a & b
        for index in range(WIDTH):
            value_a, taint_a = a.bit(index)
            value_b, taint_b = b.bit(index)
            expect_value, expect_taint = glift_eval(
                GATE_FUNCTIONS["AND2"], (value_a, value_b), (taint_a, taint_b)
            )
            assert out.bit(index) == (expect_value, expect_taint)

    @given(small_words, small_words)
    @settings(max_examples=300)
    def test_or_taint_matches_bitwise_glift(self, a, b):
        from repro.logic.glift import GATE_FUNCTIONS, glift_eval

        out = a | b
        for index in range(WIDTH):
            value_a, taint_a = a.bit(index)
            value_b, taint_b = b.bit(index)
            expect_value, expect_taint = glift_eval(
                GATE_FUNCTIONS["OR2"], (value_a, value_b), (taint_a, taint_b)
            )
            assert out.bit(index) == (expect_value, expect_taint)

    @given(small_words)
    @settings(max_examples=100)
    def test_invert_roundtrip(self, a):
        out = ~~a
        assert out == a

    def test_and_masking_kills_taint(self):
        # Tainted unknown word ANDed with an untainted constant mask: only
        # the bits the mask keeps stay tainted -- this is the paper's
        # software masked addressing in miniature (Figure 9).
        address = TWord.unknown(16, tmask=0xFFFF)
        mask = TWord.const(0x03FF)
        out = address & mask
        assert out.tmask == 0x03FF
        assert out.xmask == 0x03FF

    def test_bis_pins_base_untainted(self):
        masked = TWord(0, 0x03FF, 0x03FF, 16)
        base = TWord.const(0x0400)
        out = masked | base
        assert out.bit(10) == (ONE, 0)
        assert out.tmask == 0x03FF


class TestArithmetic:
    @given(small_words, small_words)
    @settings(max_examples=200)
    def test_add_value_sound(self, a, b):
        out, carry, _ = a.add(b)
        results = {
            (ca + cb) & FULL
            for ca in all_concretizations(a)
            for cb in all_concretizations(b)
        }
        for result in results:
            assert (result & ~out.xmask) == out.bits
        carries = {
            (ca + cb) >> WIDTH & 1
            for ca in all_concretizations(a)
            for cb in all_concretizations(b)
        }
        if carry[0] != UNKNOWN:
            assert carries == {carry[0]}

    @given(small_words, small_words)
    @settings(max_examples=200)
    def test_add_taint_sound(self, a, b):
        """Any bit an adversary can influence must be tainted (soundness)."""
        out, _, _ = a.add(b)

        def influence_mask():
            mask = 0
            # Vary tainted bits of a and b jointly over all choices, with
            # untainted-X bits enumerated as environment.
            a_taint_bits = [i for i in range(WIDTH) if a.tmask >> i & 1]
            b_taint_bits = [i for i in range(WIDTH) if b.tmask >> i & 1]
            a_env = a.xmask & ~a.tmask
            b_env = b.xmask & ~b.tmask
            a_env_bits = [i for i in range(WIDTH) if a_env >> i & 1]
            b_env_bits = [i for i in range(WIDTH) if b_env >> i & 1]
            for env in range(1 << (len(a_env_bits) + len(b_env_bits))):
                base_a = a.bits
                base_b = b.bits
                for pos, index in enumerate(a_env_bits):
                    if env >> pos & 1:
                        base_a |= 1 << index
                for pos, index in enumerate(b_env_bits):
                    if env >> (pos + len(a_env_bits)) & 1:
                        base_b |= 1 << index
                outs = set()
                for adv in range(
                    1 << (len(a_taint_bits) + len(b_taint_bits))
                ):
                    val_a = base_a & ~a.tmask
                    val_b = base_b & ~b.tmask
                    for pos, index in enumerate(a_taint_bits):
                        if adv >> pos & 1:
                            val_a |= 1 << index
                    for pos, index in enumerate(b_taint_bits):
                        if adv >> (pos + len(a_taint_bits)) & 1:
                            val_b |= 1 << index
                    outs.add((val_a + val_b) & FULL)
                for bit in range(WIDTH):
                    if len({o >> bit & 1 for o in outs}) == 2:
                        mask |= 1 << bit
            return mask

        assert influence_mask() & ~out.tmask == 0

    @given(small_words, small_words)
    @settings(max_examples=150)
    def test_sub_value_sound(self, a, b):
        out, carry, _ = a.sub(b)
        results = {
            (ca - cb) & FULL
            for ca in all_concretizations(a)
            for cb in all_concretizations(b)
        }
        for result in results:
            assert (result & ~out.xmask) == out.bits
        # MSP430 carry is !borrow.
        borrows = {
            1 if ca >= cb else 0
            for ca in all_concretizations(a)
            for cb in all_concretizations(b)
        }
        if carry[0] != UNKNOWN:
            assert borrows == {carry[0]}

    def test_add_concrete(self):
        out, carry, overflow = TWord.const(0xFFFF).add(TWord.const(1))
        assert out.value == 0
        assert carry == (ONE, 0)
        assert overflow[0] == ZERO

    def test_signed_overflow(self):
        out, _, overflow = TWord.const(0x7FFF).add(TWord.const(1))
        assert out.value == 0x8000
        assert overflow == (ONE, 0)

    def test_add_taint_propagates_upward_only(self):
        a = TWord.const(0b0001, 4, tmask=0b0001)
        b = TWord.const(0b0001, 4)
        out, _, _ = a.add(b)
        # bit0 tainted and the carry chain taints upper bits it can reach
        assert out.tmask & 0b0001
        assert not out.tmask & 0b1000 or out.tmask & 0b0110


class TestShifts:
    def test_rra_sign_extends(self):
        word = TWord.const(0x8002)
        out, carry = word.rra()
        assert out.value == 0xC001
        assert carry == (ZERO, 0)

    def test_rra_carry_out(self):
        out, carry = TWord.const(0x0001).rra()
        assert out.value == 0
        assert carry == (ONE, 0)

    def test_rra_taint_follows_bits(self):
        word = TWord.const(0x8000, tmask=0x8000)
        out, _ = word.rra()
        assert out.tmask == 0xC000

    def test_rrc(self):
        out, carry = TWord.const(0x0003).rrc((ONE, 0))
        assert out.value == 0x8001
        assert carry == (ONE, 0)

    def test_rrc_tainted_carry_in(self):
        out, _ = TWord.const(0).rrc((ZERO, 1))
        assert out.tmask == 0x8000

    def test_swpb(self):
        assert TWord.const(0x1234).swpb().value == 0x3412

    def test_swpb_moves_taint(self):
        word = TWord.const(0x1234, tmask=0x00FF)
        assert word.swpb().tmask == 0xFF00

    def test_shifted_left(self):
        word = TWord(0b01, 0b10, 0b01, 4)
        out = word.shifted_left(1)
        assert out.bit(1) == (ONE, 1)
        assert out.bit(2) == (UNKNOWN, 0)


class TestLattice:
    @given(small_words, small_words)
    @settings(max_examples=300)
    def test_merge_covers_both(self, a, b):
        merged = a.merge(b)
        assert merged.covers(a)
        assert merged.covers(b)

    @given(small_words)
    def test_covers_reflexive(self, a):
        assert a.covers(a)

    @given(small_words, small_words, small_words)
    @settings(max_examples=300)
    def test_covers_transitive(self, a, b, c):
        if a.covers(b) and b.covers(c):
            assert a.covers(c)

    def test_covers_requires_taint_superset(self):
        plain = TWord.const(5)
        tainted = TWord.const(5, tmask=1)
        assert tainted.covers(plain)
        assert not plain.covers(tainted)

    def test_merge_idempotent(self):
        word = TWord(0b10, 0b01, 0b11, 4)
        assert word.merge(word) == word

    def test_x_covers_concrete(self):
        assert TWord.unknown(4).covers(TWord.const(9, 4))
        assert not TWord.const(9, 4).covers(TWord.unknown(4))


class TestTaintHelpers:
    def test_with_taint(self):
        word = TWord.const(3).with_taint(0xF)
        assert word.tmask == 0xF

    def test_taint_all(self):
        assert TWord.const(3, 4).taint_all().tmask == 0xF

    def test_or_taint(self):
        word = TWord.const(3, 4, tmask=0b01).or_taint(0b10)
        assert word.tmask == 0b11

    def test_hash_and_eq(self):
        a = TWord(1, 2, 4, 16)
        b = TWord(1, 2, 4, 16)
        assert a == b
        assert hash(a) == hash(b)
        assert a != TWord(1, 2, 5, 16)
