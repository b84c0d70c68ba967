"""Frozen copies of the port-by-port SoC steps, for testing.

:meth:`repro.sim.soc.SoC.step` crosses the circuit's ports in as few
blocks as the step order allows: one gather of ``pmem_addr``, one write
of every input port from pre-encoded codes, one gather of both strobes,
and on load cycles one data write and one ``dmem_wen`` re-read.  This
module keeps the step it replaced -- each port read into a ``TWord`` and
written back bit by bit, the ROM read without a memo, the FSM phase read
bit by bit -- so a differential test can hold the two to the same
events, codes and phases cycle by cycle.

It also keeps the provenance-recording step that ran two passes a
cycle (:func:`reference_recording_step`): a pass over the memory
interface's cone, the fetch and the load port by port, then a full
pass, each pass's flow edges recorded from the codes before and after
it.  The step under test settles both passes in one two-row sweep and
must record the same edges, in the same order.

It shares no port codec with the code under test: its own
:func:`gather_word`/:func:`scatter_word` loops read and write the
state's codes, and :func:`rom_read` reads the ROM's arrays.  From the
SoC it uses the circuit's passes, taint diff and clock edge, the
address space and its devices, the per-SoC fanout plan, which the plain
step also runs, and the SoC's load and store records.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.logic.ternary import ONE, UNKNOWN, ZERO
from repro.logic.words import TWord
from repro.sim.soc import INTERFACE_PORTS, CycleEvents, MemRead, MemWrite


def scatter_word(codes: np.ndarray, nets, word: TWord) -> None:
    """Write *word*'s bits to *nets*, bit 0 first, one code per bit."""
    for index, net in enumerate(nets):
        probe = 1 << index
        if word.xmask & probe:
            value = UNKNOWN
        else:
            value = 1 if word.bits & probe else 0
        codes[net] = value * 2 + (1 if word.tmask & probe else 0)


def gather_word(codes: np.ndarray, nets) -> TWord:
    """The word read from *nets*, bit 0 first, one code per bit."""
    bits = xmask = tmask = 0
    for index, net in enumerate(nets):
        code = int(codes[net])
        probe = 1 << index
        value = code >> 1
        if value == UNKNOWN:
            xmask |= probe
        elif value:
            bits |= probe
        if code & 1:
            tmask |= probe
    return TWord(bits, xmask, tmask, len(nets))


def rom_read(rom, address: TWord) -> TWord:
    """Instruction fetch, recomputed on every call."""
    taint = 0xFFFF if address.tmask else 0
    if address.xmask == 0:
        index = address.bits % rom.size
        return TWord(int(rom.words[index]), 0, int(rom.tmask[index]) | taint)
    known = 0xFFFF & ~address.xmask
    match = (np.arange(rom.size) & known) == (address.bits & known)
    if not match.any():
        return TWord(0, 0xFFFF, taint)
    and_bits = int(np.bitwise_and.reduce(rom.words[match]))
    or_bits = int(np.bitwise_or.reduce(rom.words[match]))
    rom_taint = int(np.bitwise_or.reduce(rom.tmask[match]))
    xmask = 0xFFFF & ~(and_bits | (~or_bits & 0xFFFF))
    return TWord(and_bits, xmask, rom_taint | taint)


def _read(soc, name: str) -> TWord:
    return gather_word(soc.state.codes, soc.circuit.output_nets(name))


def _write(soc, name: str, word: TWord) -> None:
    scatter_word(soc.state.codes, soc.circuit.input_nets(name), word)


def _begin(soc, external_reset):
    """The cycle's reset, written to ``rst`` with ``dmem_rdata`` all X;
    returns ``(reset, in_reset)``."""
    por_value, por_taint = soc.pending_por
    ext_value, ext_taint = external_reset
    if ext_value == ONE or por_value == ONE:
        reset_value = ONE
    elif ext_value == UNKNOWN or por_value == UNKNOWN:
        reset_value = UNKNOWN
    else:
        reset_value = ZERO
    reset = (reset_value, por_taint | ext_taint)
    if reset[0] == ONE:
        soc.space.watchdog.power_on_reset(reset[1])
    _write(soc, "rst", TWord(
        1 if reset[0] == ONE else 0,
        1 if reset[0] == UNKNOWN else 0,
        reset[1],
        1,
    ))
    _write(soc, "dmem_rdata", TWord.unknown(16))
    return reset, reset[0] == ONE


def _fetch(soc) -> Tuple[TWord, TWord]:
    """The word at ``pmem_addr``, written to ``pmem_rdata``; returns
    ``(address, instruction)``."""
    pmem_addr = _read(soc, "pmem_addr")
    instruction = rom_read(soc.rom, pmem_addr)
    _write(soc, "pmem_rdata", instruction)
    return pmem_addr, instruction


def _load(soc, in_reset: bool) -> Optional[MemRead]:
    """A load at ``dmem_addr`` when the strobe is not 0, its data
    written to ``dmem_rdata``."""
    ren = _read(soc, "dmem_ren").bit(0)
    if in_reset or ren[0] == ZERO:
        return None
    dmem_addr = _read(soc, "dmem_addr")
    data = soc.space.read(dmem_addr, ren)
    _write(soc, "dmem_rdata", data)
    return MemRead(dmem_addr, data, ren)


def _finish(
    soc, reset, in_reset, pmem_addr, instruction, read_event, recorder=None
) -> CycleEvents:
    """The store, the timer and watchdog ticks and the clock edge."""
    circuit, state, space = soc.circuit, soc.state, soc.space
    wen = _read(soc, "dmem_wen").bit(0)
    write_event: Optional[MemWrite] = None
    if not in_reset and wen[0] != ZERO:
        wdata = _read(soc, "dmem_wdata")
        waddr = _read(soc, "dmem_addr")
        ram_match = space.write(waddr, wdata, wen)
        write_event = MemWrite(waddr, wdata, wen, ram_match)
        if recorder is not None and (wdata.tmask or waddr.tmask):
            soc._record_write_provenance(recorder, waddr, wdata, ram_match)

    space.timer.tick()
    soc.pending_por = space.watchdog.tick()
    port_events = []
    for port in space.input_ports + space.output_ports:
        port_events.extend(port.events)
        port.events.clear()

    events = CycleEvents(
        cycle=soc.cycle,
        pc=pmem_addr,
        instruction=instruction,
        reset=reset,
        read=read_event,
        write=write_event,
        port_events=port_events,
        por_next=soc.pending_por,
    )
    circuit.clock_edge(state)
    soc.cycle += 1
    return events


def reference_step(
    soc, external_reset: Tuple[int, int] = (ZERO, 0)
) -> CycleEvents:
    """One plain cycle of *soc* (no instruments), port by port."""
    assert soc.instruments.provenance is None
    assert soc.instruments.timeline is None
    assert soc.instruments.faults is None
    reset, in_reset = _begin(soc, external_reset)

    # Fetch off the PC flip-flops, settle every gate once, then load
    # from the settled address and re-run its fanout.
    pmem_addr, instruction = _fetch(soc)
    soc.circuit.eval_combinational(soc.state)
    read_event = _load(soc, in_reset)
    if read_event is not None:
        soc.circuit.eval_plan(soc.state, soc._read_plan)
    return _finish(soc, reset, in_reset, pmem_addr, instruction, read_event)


def _recorded_pass(soc, recorder, plan=None) -> None:
    """A full pass, or a pass over *plan*, and the flow edges of the
    nets it freshly tainted."""
    circuit, codes = soc.circuit, soc.state.codes
    before = codes.copy()
    if plan is None:
        circuit.eval_combinational(soc.state)
    else:
        circuit.eval_plan(soc.state, plan)
    circuit.record_fresh_taint(codes, before, recorder)


def reference_recording_step(
    soc, external_reset: Tuple[int, int] = (ZERO, 0)
) -> CycleEvents:
    """One provenance-recording cycle of *soc* in the two-pass order: a
    pass over the memory interface's cone, which still reads the
    previous cycle's ``pmem_rdata``, the fetch, the load from that
    pass's strobe and address, then a full pass, recording as it
    goes."""
    recorder = soc.instruments.provenance
    assert recorder is not None
    assert soc.instruments.faults is None
    circuit = soc.circuit
    recorder.ensure_bound(circuit)
    recorder.begin_cycle(soc.cycle)
    reset, in_reset = _begin(soc, external_reset)

    _recorded_pass(soc, recorder, circuit.cone_plan(INTERFACE_PORTS))
    pmem_addr, instruction = _fetch(soc)
    if instruction.tmask:
        label = (
            f"rom[0x{pmem_addr.bits:04x}]"
            if pmem_addr.xmask == 0
            else "rom"
        )
        recorder.record_input(
            circuit.input_nets("pmem_rdata"), instruction.tmask, label
        )
    read_event = _load(soc, in_reset)
    if read_event is not None and read_event.data.tmask:
        soc._record_read_provenance(
            recorder, read_event.address, read_event.data
        )
    _recorded_pass(soc, recorder)
    return _finish(
        soc, reset, in_reset, pmem_addr, instruction, read_event, recorder
    )


def reference_phase(soc) -> int:
    """The FSM phase from the six registered ``dbg_phase`` bits, read
    one :meth:`TWord.bit` at a time: the first bit at 1, else -1 when
    one is X, else 0 (fetch)."""
    word = _read(soc, "dbg_phase")
    unknown = False
    for bit in range(1, 7):
        value, _ = word.bit(bit)
        if value == ONE:
            return bit
        if value != ZERO:
            unknown = True
    return -1 if unknown else 0
