"""A word-level construction DSL for gate-level netlists ("mini-HDL").

The gate-level LP430 processor (:mod:`repro.cpu`) is assembled with this
builder, which plays the role the synthesis flow played for the paper's
openMSP430 netlist: every word-level operator below is *elaborated into
library gates* at call time, so the result is a plain :class:`Netlist` of
NAND/NOR/XOR/MUX/DFF cells with no behavioural shortcuts for the analysis to
miss.

Conventions:

* A :class:`Sig` is an LSB-first tuple of net ids; width = ``len(sig)``.
* Registers are created with :meth:`CircuitBuilder.reg` (allocating their Q
  nets so they can be used in feedback) and later given their next-state
  logic with :meth:`CircuitBuilder.drive`.  Enables and resets are
  synthesised from ordinary muxes and gates, so their GLIFT behaviour --
  including the paper's "tainted reset does not de-taint" rule (Figure 7) --
  emerges from the per-gate semantics rather than special cases.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.netlist.netlist import Netlist, NetlistError


class Sig(tuple):
    """An LSB-first tuple of net ids representing a word-level signal."""

    @property
    def width(self) -> int:
        return len(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Sig({len(self)} bits)"


class Reg:
    """A register created by :meth:`CircuitBuilder.reg`, awaiting its driver."""

    def __init__(self, name: str, q: Sig):
        self.name = name
        self.q = q
        self.driven = False

    @property
    def width(self) -> int:
        return self.q.width


class CircuitBuilder:
    """Builds a :class:`Netlist` from word-level operations."""

    def __init__(self, name: str = "top"):
        self.netlist = Netlist(name=name)
        #: the enclosing scopes' names, each followed by ``/``: the
        #: prefix of every net name made inside them
        self._prefix = ""
        self._tie0: Optional[int] = None
        self._tie1: Optional[int] = None
        self._registers: List[Reg] = []
        self._counter: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """Prefix nets created inside the block with ``name/``."""
        outer = self._prefix
        self._prefix = outer + name + "/"
        try:
            yield
        finally:
            self._prefix = outer

    def _qualified(self, name: str) -> str:
        return self._prefix + name

    def _fresh(self, stem: str) -> str:
        index = self._counter.get(stem, 0)
        self._counter[stem] = index + 1
        return self._qualified(f"{stem}${index}")

    # ------------------------------------------------------------------
    # Ports, constants, registers
    # ------------------------------------------------------------------
    def input(self, name: str, width: int) -> Sig:
        nets = Sig(
            self.netlist.add_net(f"{name}[{i}]") for i in range(width)
        )
        self.netlist.add_input(name, nets)
        return nets

    def output(self, name: str, sig: Sig) -> None:
        self.netlist.add_output(name, sig)

    def bit0(self) -> int:
        if self._tie0 is None:
            net = self.netlist.add_net("tie0")
            self.netlist.add_gate("TIE0", (), net, "tie0")
            self._tie0 = net
        return self._tie0

    def bit1(self) -> int:
        if self._tie1 is None:
            net = self.netlist.add_net("tie1")
            self.netlist.add_gate("TIE1", (), net, "tie1")
            self._tie1 = net
        return self._tie1

    def const(self, value: int, width: int) -> Sig:
        return Sig(
            self.bit1() if value >> i & 1 else self.bit0()
            for i in range(width)
        )

    def reg(self, name: str, width: int) -> Reg:
        qualified = self._qualified(name)
        q = Sig(
            self.netlist.add_net(f"{qualified}[{i}]") for i in range(width)
        )
        register = Reg(qualified, q)
        self._registers.append(register)
        return register

    def drive(
        self,
        register: Reg,
        d: Sig,
        en: Optional[int] = None,
        rst: Optional[int] = None,
    ) -> Sig:
        """Define a register's next state: ``q' = rst ? 0 : (en ? d : q)``.

        The reset is synthesised as ``d_eff = d_or_hold AND NOT rst`` so a
        *tainted* reset clears the value but leaves the taint set -- the
        Figure 7 semantics -- purely from gate-level GLIFT rules.
        """
        if register.driven:
            raise NetlistError(f"register {register.name} driven twice")
        if d.width != register.width:
            raise NetlistError(
                f"register {register.name}: width mismatch "
                f"{d.width} != {register.width}"
            )
        register.driven = True
        effective = d
        if en is not None:
            effective = self.mux(en, register.q, effective)
        if rst is not None:
            rst_n = self.not_bit(rst)
            effective = self.mask(effective, rst_n)
        for index in range(register.width):
            self.netlist.add_dff(
                q=register.q[index],
                d=effective[index],
                name=f"{register.name}[{index}]",
            )
        return effective

    # ------------------------------------------------------------------
    # Primitive gate emission
    # ------------------------------------------------------------------
    def _emit(self, cell_type: str, inputs: Sequence[int]) -> int:
        out = self.netlist.add_net(self._fresh(cell_type.lower()))
        self.netlist.add_gate(cell_type, inputs, out, self._fresh("g"))
        return out

    def not_bit(self, a: int) -> int:
        return self._emit("NOT", (a,))

    def and_bit(self, *bits: int) -> int:
        return self._reduce_bits("AND", bits)

    def or_bit(self, *bits: int) -> int:
        return self._reduce_bits("OR", bits)

    def nor_bit(self, *bits: int) -> int:
        return self.not_bit(self.or_bit(*bits))

    def nand_bit(self, *bits: int) -> int:
        return self.not_bit(self.and_bit(*bits))

    def xor_bit(self, a: int, b: int) -> int:
        return self._emit("XOR2", (a, b))

    def xnor_bit(self, a: int, b: int) -> int:
        return self._emit("XNOR2", (a, b))

    def mux_bit(self, sel: int, a: int, b: int) -> int:
        """``a`` when ``sel == 0``, ``b`` when ``sel == 1``."""
        return self._emit("MUX2", (sel, a, b))

    def _reduce_bits(self, kind: str, bits: Sequence[int]) -> int:
        if not bits:
            raise NetlistError(f"{kind} reduction over no bits")
        work = list(bits)
        while len(work) > 1:
            grouped: List[int] = []
            index = 0
            while index < len(work):
                chunk = work[index : index + (4 if kind == "AND" else 4)]
                if len(chunk) == 1:
                    grouped.append(chunk[0])
                else:
                    grouped.append(self._emit(f"{kind}{len(chunk)}", chunk))
                index += len(chunk)
            work = grouped
        return work[0]

    # ------------------------------------------------------------------
    # Word-level bitwise operators
    # ------------------------------------------------------------------
    @staticmethod
    def _check_widths(a: Sig, b: Sig) -> None:
        if a.width != b.width:
            raise NetlistError(f"width mismatch {a.width} != {b.width}")

    def not_(self, a: Sig) -> Sig:
        return Sig(self.not_bit(bit) for bit in a)

    def and_(self, a: Sig, b: Sig) -> Sig:
        self._check_widths(a, b)
        return Sig(self._emit("AND2", pair) for pair in zip(a, b))

    def or_(self, a: Sig, b: Sig) -> Sig:
        self._check_widths(a, b)
        return Sig(self._emit("OR2", pair) for pair in zip(a, b))

    def xor_(self, a: Sig, b: Sig) -> Sig:
        self._check_widths(a, b)
        return Sig(self._emit("XOR2", pair) for pair in zip(a, b))

    def mask(self, a: Sig, enable_bit: int) -> Sig:
        """AND every bit of *a* with *enable_bit*."""
        return Sig(self._emit("AND2", (bit, enable_bit)) for bit in a)

    def mux(self, sel: int, a: Sig, b: Sig) -> Sig:
        """Word mux: *a* when ``sel == 0``, *b* when ``sel == 1``."""
        self._check_widths(a, b)
        return Sig(
            self._emit("MUX2", (sel, bit_a, bit_b))
            for bit_a, bit_b in zip(a, b)
        )

    def muxn(self, sel: Sig, options: Sequence[Sig]) -> Sig:
        """Mux tree over ``2**sel.width`` options (LSB-first select)."""
        if len(options) != 1 << sel.width:
            raise NetlistError(
                f"muxn: {len(options)} options for {sel.width} select bits"
            )
        layer = list(options)
        for select_bit in sel:
            layer = [
                self.mux(select_bit, layer[i], layer[i + 1])
                for i in range(0, len(layer), 2)
            ]
        return layer[0]

    def onehot_mux(
        self, selects: Sequence[int], options: Sequence[Sig]
    ) -> Sig:
        """OR of AND-masked options; selects are assumed one-hot."""
        if len(selects) != len(options):
            raise NetlistError("onehot_mux: select/option count mismatch")
        masked = [
            self.mask(option, select)
            for select, option in zip(selects, options)
        ]
        out = masked[0]
        for term in masked[1:]:
            out = self.or_(out, term)
        return out

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def add(
        self, a: Sig, b: Sig, cin: Optional[int] = None
    ) -> Tuple[Sig, int]:
        """Ripple-carry addition; returns ``(sum, carry_out)``."""
        self._check_widths(a, b)
        carry = cin if cin is not None else self.bit0()
        out_bits: List[int] = []
        for bit_a, bit_b in zip(a, b):
            axb = self.xor_bit(bit_a, bit_b)
            out_bits.append(self.xor_bit(axb, carry))
            carry = self.or_bit(
                self.and_bit(bit_a, bit_b), self.and_bit(axb, carry)
            )
        return Sig(out_bits), carry

    def addsub(
        self, a: Sig, b: Sig, subtract: int, cin: Optional[int] = None
    ) -> Tuple[Sig, int, int]:
        """``a + (b ^ subtract) + cin`` returning ``(sum, cout, overflow)``.

        With ``subtract = 1`` and ``cin = 1`` this computes ``a - b`` with
        MSP430 carry semantics (carry = not borrow).  The default carry-in
        is ``subtract`` itself, which yields add/sub directly.
        """
        self._check_widths(a, b)
        b_eff = Sig(self.xor_bit(bit, subtract) for bit in b)
        carry = cin if cin is not None else subtract
        out_bits: List[int] = []
        carry_into_msb = carry
        for index, (bit_a, bit_b) in enumerate(zip(a, b_eff)):
            if index == a.width - 1:
                carry_into_msb = carry
            axb = self.xor_bit(bit_a, bit_b)
            out_bits.append(self.xor_bit(axb, carry))
            carry = self.or_bit(
                self.and_bit(bit_a, bit_b), self.and_bit(axb, carry)
            )
        overflow = self.xor_bit(carry_into_msb, carry)
        return Sig(out_bits), carry, overflow

    def inc(self, a: Sig) -> Sig:
        """``a + 1`` with a lean half-adder chain (used for PC increment)."""
        carry = self.bit1()
        out_bits: List[int] = []
        for bit in a:
            out_bits.append(self.xor_bit(bit, carry))
            carry = self.and_bit(bit, carry)
        return Sig(out_bits)

    # ------------------------------------------------------------------
    # Reductions and comparisons
    # ------------------------------------------------------------------
    def or_reduce(self, a: Sig) -> int:
        return self.or_bit(*a)

    def and_reduce(self, a: Sig) -> int:
        return self.and_bit(*a)

    def is_zero(self, a: Sig) -> int:
        return self.not_bit(self.or_bit(*a))

    def eq(self, a: Sig, b: Sig) -> int:
        self._check_widths(a, b)
        return self.and_bit(
            *(self.xnor_bit(x, y) for x, y in zip(a, b))
        )

    def eq_const(self, a: Sig, value: int) -> int:
        bits = [
            bit if value >> i & 1 else self.not_bit(bit)
            for i, bit in enumerate(a)
        ]
        return self.and_bit(*bits)

    def decode(self, sel: Sig) -> List[int]:
        """Full decoder: ``2**sel.width`` one-hot outputs."""
        return [
            self.eq_const(sel, value) for value in range(1 << sel.width)
        ]

    # ------------------------------------------------------------------
    # Wiring-only helpers (no gates)
    # ------------------------------------------------------------------
    @staticmethod
    def slice_(a: Sig, low: int, width: int) -> Sig:
        return Sig(a[low : low + width])

    @staticmethod
    def cat(*sigs: Sig) -> Sig:
        out: List[int] = []
        for sig in sigs:
            out.extend(sig)
        return Sig(out)

    @staticmethod
    def repeat(bit: int, count: int) -> Sig:
        return Sig(bit for _ in range(count))

    def zext(self, a: Sig, width: int) -> Sig:
        if a.width > width:
            raise NetlistError("zext to narrower width")
        return Sig(list(a) + [self.bit0()] * (width - a.width))

    def sext(self, a: Sig, width: int) -> Sig:
        if a.width > width:
            raise NetlistError("sext to narrower width")
        return Sig(list(a) + [a[-1]] * (width - a.width))

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def build(self) -> Netlist:
        for register in self._registers:
            if not register.driven:
                raise NetlistError(f"register {register.name} never driven")
        self.netlist.validate()
        return self.netlist
