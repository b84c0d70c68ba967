"""Word-level ternary + taint values.

:class:`TWord` is the architectural-state analogue of the per-net
``(value, taint)`` pairs the gate-level simulator tracks.  A ``TWord`` packs,
for a *width*-bit word:

* ``bits``  -- the known bit values (a bit under ``xmask`` is stored as 0),
* ``xmask`` -- which bits are unknown (``X``),
* ``tmask`` -- which bits are tainted.

All operations implement **value-aware** GLIFT taint propagation, i.e. the
word-level operators agree bit-for-bit with composing the per-gate semantics
of :mod:`repro.logic.glift` over the obvious gate decomposition (ripple-carry
adder for ``+``, per-bit gates for the logical operators).  The test-suite's
cross-validation between the architectural simulator and the gate-level
simulator leans on this.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Tuple

from repro.logic import glift
from repro.logic.ternary import ONE, UNKNOWN, ZERO


def _mask(width: int) -> int:
    return (1 << width) - 1


#: Each byte's bits moved to the low bit of one 16-bit lane apiece.
_BYTE_LANES = tuple(
    sum(((byte >> bit) & 1) << (16 * bit) for bit in range(8))
    for byte in range(256)
)
#: A lane's tick byte for an untainted bit; a tainted one is one more.
_TICK_ABSENT = 4
#: ``bytes.translate`` table of a repr lane's bytes: digit codes 0-3
#: (``value + 2 * unknown``) and the tainted tick code.
_REPR_BYTES = bytes.maketrans(b"\x00\x01\x02\x03\x05", b"01XX'")
#: The untainted tick code, deleted by the translate.
_REPR_DELETE = bytes([_TICK_ABSENT])


def _lanes(mask: int) -> int:
    """*mask* with bit *i* moved to bit ``16 * i`` (one lane per bit)."""
    spread = 0
    shift = 0
    while mask:
        spread |= _BYTE_LANES[mask & 255] << shift
        mask >>= 8
        shift += 128
    return spread


class EnumerationLimitError(ValueError):
    """More concrete values exist than the caller's enumeration limit.

    A distinct subclass so callers using :meth:`TWord.possible_values` as
    a tripwire (the tracker's fork-target enumeration) can tell the
    expected "too many successors" signal apart from an unexpected
    ``ValueError`` raised by a genuine bug.
    """


def _full_adder_tables() -> Tuple[Dict[int, Tuple[int, int]], Dict[int, Tuple[int, int]]]:
    """Precompute GLIFT tables for a full adder's sum and carry outputs.

    The table key packs ``(va, ta, vb, tb, vc, tc)`` as
    ``((va * 2 + ta) * 6 + (vb * 2 + tb)) * 6 + (vc * 2 + tc)``.
    """

    def sum_func(a: int, b: int, c: int) -> int:
        return a ^ b ^ c

    def carry_func(a: int, b: int, c: int) -> int:
        return (a & b) | (a & c) | (b & c)

    sum_table: Dict[int, Tuple[int, int]] = {}
    carry_table: Dict[int, Tuple[int, int]] = {}
    for va, vb, vc in itertools.product((ZERO, ONE, UNKNOWN), repeat=3):
        for ta, tb, tc in itertools.product((0, 1), repeat=3):
            key = ((va * 2 + ta) * 6 + (vb * 2 + tb)) * 6 + (vc * 2 + tc)
            sum_table[key] = glift.glift_eval(
                sum_func, (va, vb, vc), (ta, tb, tc)
            )
            carry_table[key] = glift.glift_eval(
                carry_func, (va, vb, vc), (ta, tb, tc)
            )
    return sum_table, carry_table


_SUM_TABLE, _CARRY_TABLE = _full_adder_tables()


class TWord:
    """An immutable *width*-bit word of ternary, taint-carrying bits."""

    __slots__ = ("bits", "xmask", "tmask", "width")

    def __init__(self, bits: int, xmask: int = 0, tmask: int = 0, width: int = 16):
        mask = _mask(width)
        xmask &= mask
        self.width = width
        self.xmask = xmask
        self.bits = bits & mask & ~xmask
        self.tmask = tmask & mask

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def const(cls, value: int, width: int = 16, tmask: int = 0) -> "TWord":
        """A fully known word."""
        return cls(value, 0, tmask, width)

    @classmethod
    def unknown(cls, width: int = 16, tmask: int = 0) -> "TWord":
        """A fully unknown (all ``X``) word."""
        mask = _mask(width)
        return cls(0, mask, tmask, width)

    # ------------------------------------------------------------------
    # Predicates and accessors
    # ------------------------------------------------------------------
    @property
    def is_concrete(self) -> bool:
        return self.xmask == 0

    @property
    def is_tainted(self) -> bool:
        return self.tmask != 0

    @property
    def value(self) -> int:
        """The concrete value; raises when any bit is unknown."""
        if self.xmask:
            raise ValueError(f"value of non-concrete word {self!r}")
        return self.bits

    def bit(self, index: int) -> Tuple[int, int]:
        """Return ``(ternary value, taint)`` of bit *index*."""
        probe = 1 << index
        if self.xmask & probe:
            value = UNKNOWN
        else:
            value = 1 if self.bits & probe else 0
        return value, 1 if self.tmask & probe else 0

    def known_mask(self) -> int:
        return _mask(self.width) & ~self.xmask

    def possible_values(self, limit: int = 1 << 16) -> Iterator[int]:
        """Enumerate every concrete value this word may take.

        Raises :class:`EnumerationLimitError` (a ``ValueError``) when more
        than *limit* values exist -- callers that enumerate successor PCs
        use this as a tripwire rather than silently exploding.
        """
        unknown_bits = [i for i in range(self.width) if self.xmask >> i & 1]
        count = 1 << len(unknown_bits)
        if count > limit:
            raise EnumerationLimitError(
                f"{count} possible values exceeds enumeration limit {limit}"
            )
        for combo in range(count):
            value = self.bits
            for position, bit_index in enumerate(unknown_bits):
                if combo >> position & 1:
                    value |= 1 << bit_index
            yield value

    # ------------------------------------------------------------------
    # Taint manipulation
    # ------------------------------------------------------------------
    def with_taint(self, tmask: int) -> "TWord":
        return TWord(self.bits, self.xmask, tmask, self.width)

    def taint_all(self) -> "TWord":
        return self.with_taint(_mask(self.width))

    def or_taint(self, tmask: int) -> "TWord":
        return self.with_taint(self.tmask | tmask)

    # ------------------------------------------------------------------
    # Bitwise operators (value-aware taint)
    # ------------------------------------------------------------------
    def _known0(self) -> int:
        return self.known_mask() & ~self.bits

    def _known1(self) -> int:
        return self.bits

    def __and__(self, other: "TWord") -> "TWord":
        known1 = self._known1() & other._known1()
        known0 = self._known0() | other._known0()
        xmask = _mask(self.width) & ~(known0 | known1)
        # A tainted input is masked only by an untainted known-0 other input.
        taint = (
            (self.tmask & other.tmask)
            | (self.tmask & ~(other._known0() & ~other.tmask))
            | (other.tmask & ~(self._known0() & ~self.tmask))
        ) & (self.tmask | other.tmask)
        return TWord(known1, xmask, taint, self.width)

    def __or__(self, other: "TWord") -> "TWord":
        known1 = self._known1() | other._known1()
        known0 = self._known0() & other._known0()
        xmask = _mask(self.width) & ~(known0 | known1)
        # A tainted input is masked only by an untainted known-1 other input.
        taint = (
            (self.tmask & other.tmask)
            | (self.tmask & ~(other._known1() & ~other.tmask))
            | (other.tmask & ~(self._known1() & ~self.tmask))
        ) & (self.tmask | other.tmask)
        return TWord(known1, xmask, taint, self.width)

    def __xor__(self, other: "TWord") -> "TWord":
        xmask = self.xmask | other.xmask
        bits = (self.bits ^ other.bits) & ~xmask
        return TWord(bits, xmask, self.tmask | other.tmask, self.width)

    def __invert__(self) -> "TWord":
        bits = ~self.bits & self.known_mask()
        return TWord(bits, self.xmask, self.tmask, self.width)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def add(
        self,
        other: "TWord",
        carry_in: Tuple[int, int] = (ZERO, 0),
    ) -> Tuple["TWord", Tuple[int, int], Tuple[int, int]]:
        """Ripple-carry addition with GLIFT taint.

        Returns ``(result, carry_out, overflow)`` where the carry and
        overflow are ``(ternary value, taint)`` pairs, matching the
        gate-level adder bit for bit.
        """
        assert self.width == other.width
        carry_value, carry_taint = carry_in
        bits = 0
        xmask = 0
        tmask = 0
        carry_into_msb: Tuple[int, int] = (ZERO, 0)
        for index in range(self.width):
            value_a, taint_a = self.bit(index)
            value_b, taint_b = other.bit(index)
            if index == self.width - 1:
                carry_into_msb = (carry_value, carry_taint)
            key = (
                (value_a * 2 + taint_a) * 6 + (value_b * 2 + taint_b)
            ) * 6 + (carry_value * 2 + carry_taint)
            sum_value, sum_taint = _SUM_TABLE[key]
            carry_value, carry_taint = _CARRY_TABLE[key]
            probe = 1 << index
            if sum_value == UNKNOWN:
                xmask |= probe
            elif sum_value == ONE:
                bits |= probe
            if sum_taint:
                tmask |= probe
        carry_out = (carry_value, carry_taint)
        # Signed overflow: carry into the MSB XOR carry out of the MSB.
        from repro.logic.ternary import t_xor

        overflow = (
            t_xor(carry_into_msb[0], carry_out[0]),
            carry_into_msb[1] | carry_out[1],
        )
        return TWord(bits, xmask, tmask, self.width), carry_out, overflow

    def sub(
        self, other: "TWord"
    ) -> Tuple["TWord", Tuple[int, int], Tuple[int, int]]:
        """``self - other`` as ``self + ~other + 1`` (MSP430 carry = !borrow)."""
        return self.add(~other, carry_in=(ONE, 0))

    # ------------------------------------------------------------------
    # Shifts / byte ops
    # ------------------------------------------------------------------
    def rra(self) -> Tuple["TWord", Tuple[int, int]]:
        """Arithmetic shift right by one; returns ``(result, carry_out)``."""
        msb_value, msb_taint = self.bit(self.width - 1)
        carry = self.bit(0)
        bits = self.bits >> 1
        xmask = self.xmask >> 1
        tmask = self.tmask >> 1
        top = 1 << (self.width - 1)
        if msb_value == UNKNOWN:
            xmask |= top
        elif msb_value == ONE:
            bits |= top
        if msb_taint:
            tmask |= top
        return TWord(bits, xmask, tmask, self.width), carry

    def rrc(self, carry_in: Tuple[int, int]) -> Tuple["TWord", Tuple[int, int]]:
        """Rotate right through carry; returns ``(result, carry_out)``."""
        carry_out = self.bit(0)
        bits = self.bits >> 1
        xmask = self.xmask >> 1
        tmask = self.tmask >> 1
        top = 1 << (self.width - 1)
        value_in, taint_in = carry_in
        if value_in == UNKNOWN:
            xmask |= top
        elif value_in == ONE:
            bits |= top
        if taint_in:
            tmask |= top
        return TWord(bits, xmask, tmask, self.width), carry_out

    def swpb(self) -> "TWord":
        """Swap the two bytes of a 16-bit word."""
        assert self.width == 16

        def swap(mask: int) -> int:
            return ((mask & 0xFF) << 8) | (mask >> 8)

        return TWord(swap(self.bits), swap(self.xmask), swap(self.tmask), 16)

    def shifted_left(self, count: int) -> "TWord":
        """Logical shift left (assembler/front-end helper, taint moves along)."""
        return TWord(
            self.bits << count,
            self.xmask << count,
            self.tmask << count,
            self.width,
        )

    # ------------------------------------------------------------------
    # Lattice operations used by the tracker
    # ------------------------------------------------------------------
    def merge(self, other: "TWord") -> "TWord":
        """Most conservative word covering both (differ -> ``X``, taints OR)."""
        assert self.width == other.width
        differ = (self.bits ^ other.bits) | self.xmask | other.xmask
        return TWord(
            self.bits & ~differ,
            differ,
            self.tmask | other.tmask,
            self.width,
        )

    def covers(self, other: "TWord") -> bool:
        """True when *self* is at least as conservative as *other*.

        Every bit where the two differ must be ``X`` in *self*, and *self*
        must carry at least the taint of *other*.
        """
        if self.width != other.width:
            return False
        if other.tmask & ~self.tmask:
            return False
        differ = (self.bits ^ other.bits) | other.xmask
        return not (differ & ~self.xmask)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TWord):
            return NotImplemented
        return (
            self.width == other.width
            and self.bits == other.bits
            and self.xmask == other.xmask
            and self.tmask == other.tmask
        )

    def __hash__(self) -> int:
        return hash((self.bits, self.xmask, self.tmask, self.width))

    def __repr__(self) -> str:
        """``TWord(...)`` with one digit per bit, most significant
        first: ``0``, ``1`` or ``X``, followed by ``'`` when tainted.

        Checkpointed state digests hash this text, so it must not
        change.  Each bit gets a two-byte lane (:func:`_lanes`): the
        digit's code, then a tick code that one ``bytes.translate``
        turns into ``'`` or deletes.
        """
        width = self.width
        if not (self.xmask | self.tmask):
            return f"TWord({self.bits:0{width}b})"
        lanes = (
            (_lanes(self.bits) + 2 * _lanes(self.xmask)) << 8
        ) + _lanes(self.tmask) + _TICK_ABSENT * _lanes(_mask(width))
        return "TWord(" + lanes.to_bytes(2 * width, "big").translate(
            _REPR_BYTES, _REPR_DELETE
        ).decode() + ")"
