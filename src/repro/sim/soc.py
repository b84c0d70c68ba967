"""System-on-chip model: CPU netlist + memories + peripherals.

The :class:`SoC` steps a compiled CPU netlist one clock cycle at a time,
servicing its Harvard memory interface against behavioural models with full
taint accounting, and returning a :class:`CycleEvents` record that the
policy checker consumes.

CPU port contract (any netlist with these ports can be driven):

=================  ===  =====================================================
``rst``            in   power-on reset (watchdog POR ORed in by the SoC)
``pmem_rdata``     in   instruction word at ``pmem_addr``
``dmem_rdata``     in   data word at ``dmem_addr``
``pmem_addr``      out  program-memory word address (flip-flop Qs)
``dmem_addr``      out  data-memory word address
``dmem_wdata``     out  store data
``dmem_wen``       out  store strobe
``dmem_ren``       out  load strobe
``dbg_pc``         out  the PC register (wired straight to its DFF Qs, so
                        writing this port *forces* the PC -- used when the
                        tracker concretises an unknown PC)
``dbg_pc_next``    out  the PC register's D inputs (next-cycle PC)
``dbg_ir``         out  instruction register
``dbg_sr``         out  status register
``dbg_phase``      out  one-hot FSM phase
=================  ===  =====================================================

Each cycle the SoC fetches, settles the netlist once, services the data
load, and re-evaluates only what the load data reaches.  That order is
exact for any netlist meeting two rules, which :class:`SoC` checks once
per circuit (``ValueError`` naming the port otherwise):

* every ``pmem_addr`` net is a flip-flop Q, so the fetch address is
  valid before any pass;
* no ``dmem_addr`` or ``dmem_ren`` net lies in ``dmem_rdata``'s
  combinational fanout, so one full pass computes the load address and
  strobe from this cycle's instruction word before the load.

``dmem_addr`` and ``dmem_ren`` *do* depend on the same cycle's
``pmem_rdata`` (the LP430 decodes the fetched word combinationally), so
they are valid only after the full pass.  On a load cycle the data is
applied and :meth:`~repro.sim.compiled.CompiledCircuit.fanout_plan`
re-evaluates ``dmem_rdata``'s fanout (2 mapped ranks on the LP430).

A plain cycle crosses the circuit's ports in as few blocks as that
order allows, each one numpy gather or fancy assignment of net codes:

1. one gather of ``pmem_addr``, decoded by a memoised word codec
   (:func:`~repro.sim.compiled.decode_word`), then the ROM read;
2. one write of ``rst``, ``dmem_rdata`` (all X) and ``pmem_rdata``
   together, from pre-encoded codes: the reset's code, a constant, and
   the instruction's codes memoised per word
   (:func:`~repro.sim.compiled.encode_word`);
3. the full pass, then one gather of the ``dmem_ren`` and ``dmem_wen``
   codes, read as raw codes;
4. on a load cycle only: one gather of ``dmem_addr``, one write of the
   data to ``dmem_rdata``, the fanout pass, and one re-read of
   ``dmem_wen``, which may depend on the data;
5. on a store cycle only: one gather of ``dmem_addr`` and
   ``dmem_wdata``.

That block write is laid out for a 1-net ``rst`` and 16-net
``pmem_rdata`` and ``dmem_rdata``, which the port check also requires.

A SoC carrying a provenance recorder records the flow edges of an
older order: a pass over the memory-interface cone (:data:`INTERFACE_PORTS`),
the fetch, the load, then a full pass.  That cone pass reads the
*previous* cycle's ``pmem_rdata`` codes, so its load address can be
stale; the recorded edges (and the flow-slice fingerprints benchmarks
pin) depend on that order.  The step settles both of its passes in one
two-row sweep (:meth:`~repro.sim.compiled.CompiledCircuit.pair_plan`):

1. one write of ``rst`` and ``dmem_rdata`` (all X) to row 0, the SoC's
   own state; the codes then are the *pre-pass* codes, and one write
   copies them to row 1 of the sweep's buffer and to a third row
   (:class:`~repro.sim.compiled.RecordingRows`);
2. one gather of ``pmem_addr`` and the ROM read, whose word is written
   to row 0's ``pmem_rdata`` only;
3. the sweep: the full every-net plan on row 0, the interface cone on
   row 1, which still holds the previous cycle's ``pmem_rdata``;
4. on a load cycle only: the strobe and address read off row 1, the
   load, the data written to row 0 and its fanout re-run (every-net
   form);
5. one taint diff of both rows at once, then the records in the older
   order: the cone's edges (row 1 against the pre-pass row), the
   fetch's and the load's records, and the full pass's edges (row 0
   against row 1, whose codes differ from the older order's
   pre-full-pass codes only on the input ports, which record no
   edges).  Then one read of ``dmem_wen`` off row 0.

The fanout re-run leaves row 0 with the codes the older order's full
pass, which read the data, gave every net, so its edges are the older
order's row for row.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import memmap
from repro.logic.ternary import ONE, UNKNOWN, ZERO
from repro.logic.words import TWord
from repro.obs import NO_INSTRUMENTS, Instruments
from repro.sim.compiled import (
    CODE_X,
    CircuitState,
    CompiledCircuit,
    RecordingRows,
    code_of,
    decode_code,
    decode_word,
    encode_word,
)
from repro.sim.memory import TaintedMemory
from repro.sim.peripherals import AuxTimer, InputPort, OutputPort, PortEvent
from repro.sim.watchdog import Watchdog


class Rom:
    """Program memory: concrete words, optionally tainted per word."""

    def __init__(self, size: int = memmap.PMEM_SIZE):
        self.size = size
        self.words = np.zeros(size, dtype=np.uint32)
        self.tmask = np.zeros(size, dtype=np.uint32)
        self._indices = np.arange(size, dtype=np.uint32)
        # Fetched words keyed by (known address bits, xmask, address
        # tainted).  The ROM only changes via load(), which clears this,
        # so each address pattern's word -- for a smeared fetch, the
        # merge over its match footprint -- is built once.
        self._read_memo: Dict[Tuple[int, int, bool], TWord] = {}

    def load(self, base: int, words: Sequence[int], tmask: int = 0) -> None:
        for offset, word in enumerate(words):
            self.words[base + offset] = word & 0xFFFF
            self.tmask[base + offset] = tmask
        self._read_memo.clear()

    def read(self, address: TWord) -> TWord:
        """Instruction fetch: value follows the unknown bits of the
        address; a tainted (attacker-steerable) address fully taints the
        fetched word even when concrete here."""
        key = (address.bits, address.xmask, address.tmask != 0)
        word = self._read_memo.get(key)
        if word is None:
            if len(self._read_memo) >= 4096:
                self._read_memo.clear()
            word = self._read_memo[key] = self._word_for(*key)
        return word

    def _word_for(self, bits: int, xmask: int, tainted: bool) -> TWord:
        taint = 0xFFFF if tainted else 0
        if xmask == 0:
            index = bits % self.size
            return TWord(
                int(self.words[index]), 0, int(self.tmask[index]) | taint, 16
            )
        known = 0xFFFF & ~xmask
        match = (self._indices & known) == (bits & known)
        if not match.any():
            return TWord(0, 0xFFFF, taint, 16)
        and_bits = int(np.bitwise_and.reduce(self.words[match]))
        or_bits = int(np.bitwise_or.reduce(self.words[match]))
        rom_taint = int(np.bitwise_or.reduce(self.tmask[match]))
        known0 = ~or_bits & 0xFFFF
        return TWord(
            and_bits, 0xFFFF & ~(known0 | and_bits), rom_taint | taint, 16
        )


@dataclass
class MemWrite:
    """One (possible) data-memory store observed this cycle."""

    address: TWord
    data: TWord
    wen: Tuple[int, int]
    ram_match: np.ndarray  # boolean mask over RAM words possibly written


@dataclass
class MemRead:
    """One (possible) data-memory load observed this cycle."""

    address: TWord
    data: TWord
    ren: Tuple[int, int]


@dataclass
class CycleEvents:
    """Everything observable about one simulated cycle."""

    cycle: int
    pc: TWord
    instruction: TWord
    reset: Tuple[int, int]
    read: Optional[MemRead] = None
    write: Optional[MemWrite] = None
    port_events: List[PortEvent] = field(default_factory=list)
    por_next: Tuple[int, int] = (ZERO, 0)


class AddressSpace:
    """Routes data-space accesses to RAM, GPIO ports and timers.

    Shared by the gate-level SoC and the architectural simulator so both
    observe identical memory/peripheral semantics.
    """

    def __init__(
        self,
        tainted_input_ports: Sequence[str] = ("P1IN",),
        tainted_output_ports: Sequence[str] = ("P2OUT",),
    ):
        self.ram = TaintedMemory(memmap.DMEM_SIZE)
        self.watchdog = Watchdog(memmap.WDTCTL)
        self.timer = AuxTimer(memmap.TACTL, memmap.TAR)
        self.ports: Dict[int, object] = {}
        self.input_ports: List[InputPort] = []
        self.output_ports: List[OutputPort] = []
        for name, address in (
            ("P1IN", memmap.P1IN),
            ("P3IN", memmap.P3IN),
            ("P5IN", memmap.P5IN),
        ):
            port = InputPort(name, address, tainted=name in tainted_input_ports)
            self.ports[address] = port
            self.input_ports.append(port)
        for name, address in (
            ("P2OUT", memmap.P2OUT),
            ("P4OUT", memmap.P4OUT),
            ("P6OUT", memmap.P6OUT),
        ):
            port = OutputPort(
                name, address, tainted=name in tainted_output_ports
            )
            self.ports[address] = port
            self.output_ports.append(port)
        #: the GPIO ports, which log :class:`PortEvent` records
        self._event_ports: Tuple[object, ...] = tuple(
            self.input_ports + self.output_ports
        )
        self.ports[memmap.WDTCTL] = self.watchdog
        self.ports[memmap.TACTL] = self.timer
        self.ports[memmap.TAR] = self.timer

    # ------------------------------------------------------------------
    def _matching_peripherals(self, address: TWord) -> List[Tuple[int, object]]:
        """Peripherals reachable through the address's *unknown* bits."""
        known = 0xFFFF & ~address.xmask
        if known == 0:
            return list(self.ports.items())
        return [
            (reg_address, peripheral)
            for reg_address, peripheral in self.ports.items()
            if (reg_address & known) == (address.bits & known)
        ]

    def read(self, address: TWord, ren: Tuple[int, int] = (ONE, 0)) -> TWord:
        """Load from the data space (RAM merged with matching peripherals).

        A concrete address routes to exactly one device for the *value*
        (even when tainted -- the attacker-steerability is carried by the
        taint smear, not by merging in other devices' values).
        """
        address_taint = 0xFFFF if address.tmask else 0
        if address.xmask == 0:
            definite = ren == (ONE, 0) and address_taint == 0
            index = address.bits
            if index in self.ports:
                word = self.ports[index].read_reg(
                    index, address_taint, definite
                )
            else:
                word = self.ram.read(address)
            return word.or_taint(address_taint)
        # Smeared load: merge RAM view with any reachable peripheral.
        result = self.ram.read(address)
        for reg_address, peripheral in self._matching_peripherals(address):
            word = peripheral.read_reg(reg_address, address_taint, False)
            result = result.merge(word)
        return result

    def write(
        self, address: TWord, data: TWord, wen: Tuple[int, int] = (ONE, 0)
    ) -> np.ndarray:
        """Store into the data space; returns the RAM possibly-written mask.

        Value effects follow the concrete/unknown address bits; taint
        effects (the "shadow worlds" an attacker can steer) reach every
        device matching the address's unknown *or tainted* bits.
        """
        wen_value, wen_taint = wen
        if wen_value == ZERO:
            # No store on this path (see TaintedMemory.write).
            return np.zeros(self.ram.size, dtype=bool)
        address_taint = 0xFFFF if address.tmask else 0

        if address.xmask == 0:
            index = address.bits
            if index in self.ports:
                self.ports[index].write_reg(index, data, wen, address_taint)
                return np.zeros(self.ram.size, dtype=bool)
            return self.ram.write(address, data, wen)

        # Unknown address: maybe-effects on every matching device.
        maybe_wen = (UNKNOWN, wen_taint | (1 if address.tmask else 0))
        for reg_address, peripheral in self._matching_peripherals(address):
            peripheral.write_reg(reg_address, data, maybe_wen, address_taint)
        return self.ram.write(address, data, wen)

    def drain_port_events(self) -> List[PortEvent]:
        events: List[PortEvent] = []
        for port in self._event_ports:
            if port.events:
                events.extend(port.events)
                port.events.clear()
        return events

    # ------------------------------------------------------------------
    # Tracker state management
    # ------------------------------------------------------------------
    def snapshot(self):
        return (
            self.ram.bits.copy(),
            self.ram.xmask.copy(),
            self.ram.tmask.copy(),
            self.watchdog.snapshot(),
            self.timer.snapshot(),
            tuple(port.snapshot() for port in self.output_ports),
        )

    def restore(self, state) -> None:
        bits, xmask, tmask, wdt, timer, outputs = state
        self.ram.bits[:] = bits
        self.ram.xmask[:] = xmask
        self.ram.tmask[:] = tmask
        self.watchdog.restore(wdt)
        self.timer.restore(timer)
        for port, value in zip(self.output_ports, outputs):
            port.restore(value)

    def merge(self, state) -> None:
        bits, xmask, tmask, wdt, timer, outputs = state
        differ = (self.ram.bits ^ bits) | self.ram.xmask | xmask
        self.ram.bits &= ~differ
        self.ram.xmask = differ
        self.ram.tmask |= tmask
        self.watchdog.merge(wdt)
        self.timer.merge(timer)
        for port, value in zip(self.output_ports, outputs):
            port.merge(value)

    def covers(self, state) -> bool:
        bits, xmask, tmask, wdt, timer, outputs = state
        if (tmask & ~self.ram.tmask).any():
            return False
        differ = ((self.ram.bits ^ bits) | xmask) & ~self.ram.xmask
        if differ.any():
            return False
        if not self.watchdog.covers(wdt):
            return False
        if not self.timer.covers(timer):
            return False
        return all(
            port.covers(value)
            for port, value in zip(self.output_ports, outputs)
        )


@dataclass
class SoCState:
    """A forkable snapshot of the full system state."""

    dff_codes: np.ndarray
    space_state: tuple
    pending_por: Tuple[int, int]
    cycle: int


#: ``dmem_rdata``'s codes on a cycle without a load, which a step writes
#: with the reset (and, on a plain step, the fetch) codes.
_NO_DATA_CODES = bytes([CODE_X]) * 16
#: The one-byte ``rst`` code of each reset ``(value, taint)`` code.
_RESET_CODES = tuple(bytes([code]) for code in range(6))
#: A provenance-recording step's first write, ``rst`` then ``dmem_rdata``,
#: by reset code.
_RESET_NO_DATA = tuple(
    np.frombuffer(code + _NO_DATA_CODES, dtype=np.uint8)
    for code in _RESET_CODES
)
#: A one-bit port's ``(value, taint)`` by its net code.
_BIT_OF_CODE = tuple(decode_code(code) for code in range(6))

#: The input ports the plain step writes in one assignment, with their
#: widths, in the order it lays out their codes.
PORT_WIDTHS = (("rst", 1), ("dmem_rdata", 16), ("pmem_rdata", 16))
#: The output ports a provenance-recording step's cone row settles.
INTERFACE_PORTS = ("pmem_addr", "dmem_addr", "dmem_ren")


def _word_codes(word: TWord) -> np.ndarray:
    """The net codes of a 16-bit port word, bit 0 first."""
    return np.frombuffer(
        encode_word(word.bits, word.xmask, word.tmask, 16), dtype=np.uint8
    )


#: Circuits :func:`check_port_contract` has passed.
_CONTRACT_MET: "weakref.WeakSet[CompiledCircuit]" = weakref.WeakSet()


def check_port_contract(circuit: CompiledCircuit) -> None:
    """Raise ``ValueError`` naming the port unless *circuit* has the
    input-port widths the step's single write is laid out for
    (:data:`PORT_WIDTHS`) and meets the two rules its order relies on
    (see the module doc)."""
    for name, width in PORT_WIDTHS:
        nets = len(circuit.input_nets(name))
        if nets != width:
            raise ValueError(
                f"{name} is {nets} nets, not {width}: the SoC writes its "
                "input ports as one pre-encoded block"
            )
    dffs = set(circuit.dff_nets().tolist())
    for bit, net in enumerate(circuit.output_nets("pmem_addr")):
        if net not in dffs:
            raise ValueError(
                f"pmem_addr[{bit}] is not a flip-flop Q: the SoC fetches "
                "off the flip-flops before any pass"
            )
    fanout = circuit.fanout_nets(["dmem_rdata"])
    for name in ("dmem_addr", "dmem_ren"):
        for bit, net in enumerate(circuit.output_nets(name)):
            if fanout[net]:
                raise ValueError(
                    f"{name}[{bit}] depends on dmem_rdata: the SoC reads "
                    f"{name} before the load data is applied"
                )


class SoC:
    """A steppable LP430 system with gate-level GLIFT tracking.

    :attr:`instruments` are what watches or perturbs this SoC's cycles:
    the default watches nothing; :meth:`arm` swaps them in and out.
    """

    def __init__(
        self,
        circuit: CompiledCircuit,
        rom: Optional[Rom] = None,
        space: Optional[AddressSpace] = None,
    ):
        self.circuit = circuit
        self.rom = rom if rom is not None else Rom()
        self.space = space if space is not None else AddressSpace()
        self.state: CircuitState = circuit.new_state()
        # The tracker, checker and runner read only ports and flip-flops,
        # so passes may run the cut-mapped plan.
        self.state.every_net = False
        self.pending_por: Tuple[int, int] = (ZERO, 0)
        self.cycle = 0
        if circuit not in _CONTRACT_MET:
            check_port_contract(circuit)
            _CONTRACT_MET.add(circuit)
        # Re-run on load cycles, once dmem_rdata holds the loaded word.
        self._read_plan = circuit.fanout_plan(["dmem_rdata"])
        # The plain step's port nets, in the order it writes or reads
        # them as one block of codes.
        ports = circuit.input_nets
        self._input_nets = np.array(
            [net for name, _ in PORT_WIDTHS for net in ports(name)],
            dtype=np.int64,
        )
        self._rdata_nets = np.array(ports("dmem_rdata"), dtype=np.int64)
        outs = circuit.output_nets
        self._pmem_addr_nets = np.array(outs("pmem_addr"), dtype=np.int64)
        self._dmem_addr_nets = np.array(outs("dmem_addr"), dtype=np.int64)
        self._strobe_nets = np.array(
            [outs("dmem_ren")[0], outs("dmem_wen")[0]], dtype=np.int64
        )
        self._wen_net = outs("dmem_wen")[0]
        self._store_nets = np.array(
            outs("dmem_addr") + outs("dmem_wdata"), dtype=np.int64
        )
        self._store_split = len(outs("dmem_addr"))
        # A provenance-recording step's ports: its first write, the
        # fetch (row 0 only) and the load strobe (read off row 1).
        self._reset_nets = np.array(
            ports("rst") + ports("dmem_rdata"), dtype=np.int64
        )
        self._fetch_nets = np.array(ports("pmem_rdata"), dtype=np.int64)
        self._ren_net = outs("dmem_ren")[0]
        #: the rows a provenance-recording step sweeps, whose row 0 is
        #: :attr:`state`; built on this SoC's first such step (see
        #: :meth:`_record`): a plain SoC never runs them
        self._recording: Optional[RecordingRows] = None

    @property
    def instruments(self) -> Instruments:
        return self.state.instruments

    def arm(self, instruments: Instruments = NO_INSTRUMENTS) -> None:
        """Carry *instruments* from the next step on (the default
        disarms).  They ride on this SoC's circuit state, which the
        shared circuit's passes read.  A provenance recorder reads every
        net, so while one rides along the passes run the every-net plan;
        a timeline reads only flip-flops and input ports, and keeps the
        mapped one."""
        self.state.instruments = instruments
        self.state.every_net = instruments.needs_all_nets

    # ------------------------------------------------------------------
    # Observation helpers
    # ------------------------------------------------------------------
    def read_debug(self, name: str) -> TWord:
        return self.circuit.read_output(self.state, name)

    def pc(self) -> TWord:
        return self.read_debug("dbg_pc")

    def pc_next(self) -> TWord:
        """The PC register's D inputs (valid after the cycle's evaluation)."""
        return self.read_debug("dbg_pc_next")

    def instruction_register(self) -> TWord:
        return self.read_debug("dbg_ir")

    def status_register(self) -> TWord:
        return self.read_debug("dbg_sr")

    def force_pc(self, value: int, tmask: int = 0) -> None:
        """Concretise the PC (tracker fork support; keeps supplied taint)."""
        nets = self.circuit.output_nets("dbg_pc")
        self.circuit.set_nets(self.state, nets, TWord(value, 0, tmask, 16))

    # ------------------------------------------------------------------
    # Reset / cycle stepping
    # ------------------------------------------------------------------
    def reset(self, cycles: int = 2) -> None:
        """Propagate an untainted power-on reset (Algorithm 1 line 5)."""
        for _ in range(cycles):
            self.step(external_reset=(ONE, 0))

    def step(
        self, external_reset: Tuple[int, int] = (ZERO, 0)
    ) -> CycleEvents:
        """Advance one clock cycle; returns everything observable about it."""
        instruments = self.state.instruments
        if instruments.faults is not None:
            # Fault-injection hook (gate-eval exceptions, clock skew);
            # a single None check when no injector rides along.
            instruments.faults.on_step(self, instruments.obs)
        circuit = self.circuit
        state = self.state
        recorder = instruments.provenance
        if recorder is not None:
            recorder.ensure_bound(circuit)
            recorder.begin_cycle(self.cycle)

        por_value, por_taint = self.pending_por
        ext_value, ext_taint = external_reset
        if ext_value == ONE or por_value == ONE:
            reset_value = ONE
        elif ext_value == UNKNOWN or por_value == UNKNOWN:
            reset_value = UNKNOWN
        else:
            reset_value = ZERO
        reset = (reset_value, por_taint | ext_taint)
        if reset[0] == ONE:
            self.space.watchdog.power_on_reset(reset[1])
        # While reset is asserted the FSM outputs are not yet meaningful
        # (they are X out of power-on); a real POR gates the memory
        # interface, so the SoC suppresses data-memory side effects.
        in_reset = reset[0] == ONE
        reset_code = code_of(reset_value, reset[1] & 1)
        if recorder is None:
            pmem_addr, instruction, read_event, wen = self._settle(
                reset_code, in_reset
            )
        else:
            pmem_addr, instruction, read_event, wen = self._record(
                reset_code, in_reset, recorder
            )

        write_event: Optional[MemWrite] = None
        if not in_reset and wen[0] != ZERO:
            raw = state.codes[self._store_nets].tobytes()
            waddr = decode_word(raw[:self._store_split])
            wdata = decode_word(raw[self._store_split:])
            ram_match = self.space.write(waddr, wdata, wen)
            write_event = MemWrite(waddr, wdata, wen, ram_match)
            if recorder is not None and (wdata.tmask or waddr.tmask):
                self._record_write_provenance(
                    recorder, waddr, wdata, ram_match
                )

        self.space.timer.tick()
        self.pending_por = self.space.watchdog.tick()

        events = CycleEvents(
            cycle=self.cycle,
            pc=pmem_addr,
            instruction=instruction,
            reset=reset,
            read=read_event,
            write=write_event,
            port_events=self.space.drain_port_events(),
            por_next=self.pending_por,
        )

        timeline = instruments.timeline
        if timeline is not None:
            # One frame per step: before the edge, the flip-flop Qs are
            # the ones this cycle's passes read and the input ports hold
            # their final codes, which fix every other net.
            timeline.ensure_bound(circuit)
            timeline.on_step(events.cycle, state.codes[circuit.row_nets])
        circuit.clock_edge(state)
        self.cycle += 1
        if instruments.obs.enabled:
            instruments.obs.metrics.counter("sim.cycles").inc()
        return events

    def _settle(
        self, reset_code: int, in_reset: bool
    ) -> Tuple[TWord, TWord, Optional[MemRead], Tuple[int, int]]:
        """A plain cycle up to the store: fetch, one write of every
        input port, one full pass, then the load and its fanout.

        Returns ``(address, instruction, read, wen)``.  The ports are
        crossed as few times as the order allows: one gather of
        ``pmem_addr``, one write of ``rst``, ``dmem_rdata`` (X) and
        ``pmem_rdata``, and one gather of both strobes; a load cycle
        adds one write of the data and one re-read of ``dmem_wen``.
        """
        circuit, state = self.circuit, self.state
        codes = state.codes
        pmem_addr = decode_word(codes[self._pmem_addr_nets].tobytes())
        instruction = self.rom.read(pmem_addr)
        codes[self._input_nets] = np.frombuffer(
            _RESET_CODES[reset_code] + _NO_DATA_CODES + encode_word(
                instruction.bits, instruction.xmask, instruction.tmask, 16
            ),
            dtype=np.uint8,
        )
        circuit.eval_combinational(state)
        ren_code, wen_code = codes[self._strobe_nets].tobytes()
        read_event = None
        if not in_reset and ren_code >> 1 != ZERO:
            ren = _BIT_OF_CODE[ren_code]
            dmem_addr = decode_word(codes[self._dmem_addr_nets].tobytes())
            data = self.space.read(dmem_addr, ren)
            codes[self._rdata_nets] = np.frombuffer(
                encode_word(data.bits, data.xmask, data.tmask, 16),
                dtype=np.uint8,
            )
            circuit.eval_plan(state, self._read_plan)
            wen_code = codes[self._wen_net]
            read_event = MemRead(dmem_addr, data, ren)
        return pmem_addr, instruction, read_event, _BIT_OF_CODE[wen_code]

    def _record(
        self, reset_code: int, in_reset: bool, recorder
    ) -> Tuple[TWord, TWord, Optional[MemRead], Tuple[int, int]]:
        """A provenance-recording cycle up to the store: one two-row
        sweep, then the load and its fanout, recording the older
        order's edges and records in its order (see the module doc).

        Returns what :meth:`_settle` returns.  Row 0 is :attr:`state`;
        row 1 is a copy of the pre-pass codes, on which the sweep runs
        the memory-interface cone (:class:`RecordingRows`).
        """
        circuit, state = self.circuit, self.state
        if self._recording is None:
            self._recording = circuit.recording_rows(state, INTERFACE_PORTS)
        recording = self._recording
        recording.pair.instruments = state.instruments
        codes, cone = state.codes, recording.cone
        codes[self._reset_nets] = _RESET_NO_DATA[reset_code]
        recording.begin()
        pmem_addr = decode_word(codes[self._pmem_addr_nets].tobytes())
        instruction = self.rom.read(pmem_addr)
        codes[self._fetch_nets] = _word_codes(instruction)
        recording.sweep()
        ren_code = cone[self._ren_net]
        read_event = None
        if not in_reset and ren_code >> 1 != ZERO:
            ren = _BIT_OF_CODE[ren_code]
            dmem_addr = decode_word(cone[self._dmem_addr_nets].tobytes())
            data = self.space.read(dmem_addr, ren)
            codes[self._rdata_nets] = _word_codes(data)
            circuit.eval_plan(recording.pair, self._read_plan)
            read_event = MemRead(dmem_addr, data, ren)
        recording.record(recorder, lambda: self._record_interface(
            recorder, pmem_addr, instruction, read_event
        ))
        return (
            pmem_addr, instruction, read_event,
            _BIT_OF_CODE[codes[self._wen_net]],
        )

    def _record_interface(
        self, recorder, pmem_addr: TWord, instruction: TWord,
        read_event: Optional[MemRead],
    ) -> None:
        """A recording step's records at the memory interface, between
        its cone's edges and its full pass's: tainted instruction bits
        and tainted load data."""
        if instruction.tmask:
            # Tainted instruction bits were introduced at the fetch
            # interface: label them with their program-memory origin.
            label = (
                f"rom[0x{pmem_addr.bits:04x}]"
                if pmem_addr.xmask == 0
                else "rom"
            )
            recorder.record_input(
                self.circuit.input_nets("pmem_rdata"), instruction.tmask,
                label,
            )
        if read_event is not None and read_event.data.tmask:
            self._record_read_provenance(
                recorder, read_event.address, read_event.data
            )

    def _record_read_provenance(
        self, recorder, address: TWord, data: TWord
    ) -> None:
        """Explain tainted load data arriving at ``dmem_rdata``.

        Concrete loads link to their device (tainted input port by name,
        RAM word by pseudo-net so store->load flows stay connected); an
        attacker-steerable address additionally links the data bits to
        the tainted address bits; smeared loads fall back to a
        ``dmem[smeared]`` label.
        """
        circuit = self.circuit
        rdata_nets = circuit.input_nets("dmem_rdata")
        if address.tmask:
            addr_nets = circuit.output_nets("dmem_addr")
            srcs = [
                net
                for bit, net in enumerate(addr_nets)
                if (address.tmask >> bit) & 1
            ]
            dsts = [
                net
                for bit, net in enumerate(rdata_nets)
                if (data.tmask >> bit) & 1
            ]
            recorder.record_cross(dsts, srcs)
        if address.xmask == 0:
            index = address.bits
            port = self.space.ports.get(index)
            if port is None:
                recorder.record_ram_read(rdata_nets, data.tmask, index)
            elif getattr(port, "tainted", False) or not address.tmask:
                recorder.record_input(
                    rdata_nets, data.tmask, getattr(port, "name", "port")
                )
        else:
            recorder.record_input(rdata_nets, data.tmask, "dmem[smeared]")

    def _record_write_provenance(
        self, recorder, address: TWord, data: TWord, ram_match: np.ndarray
    ) -> None:
        """Link possibly-written RAM words to the tainted store nets."""
        circuit = self.circuit
        srcs: List[int] = []
        for bit, net in enumerate(circuit.output_nets("dmem_wdata")):
            if (data.tmask >> bit) & 1:
                srcs.append(net)
        for bit, net in enumerate(circuit.output_nets("dmem_addr")):
            if (address.tmask >> bit) & 1:
                srcs.append(net)
        recorder.record_ram_write(np.nonzero(ram_match)[0], srcs)

    # ------------------------------------------------------------------
    # Tracker state management
    # ------------------------------------------------------------------
    def snapshot(self) -> SoCState:
        snapshot = SoCState(
            dff_codes=self.circuit.dff_state(self.state),
            space_state=self.space.snapshot(),
            pending_por=self.pending_por,
            cycle=self.cycle,
        )
        instruments = self.state.instruments
        if instruments.faults is not None:
            # Snapshot-corruption fault hook (models bit-rot in stored
            # fork states as conservative loss of knowledge).
            snapshot = instruments.faults.on_snapshot(
                snapshot, instruments.obs
            )
        return snapshot

    def restore(self, snapshot: SoCState) -> None:
        self.circuit.set_dff_state(self.state, snapshot.dff_codes.copy())
        self.space.restore(snapshot.space_state)
        self.pending_por = snapshot.pending_por
        self.cycle = snapshot.cycle
