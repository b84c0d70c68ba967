"""The plain SoC step against the frozen port-by-port step.

Each case builds the analysis substrate twice on one compiled LP430:
once with :func:`repro.core.tracker.build_runner`, which the tracker
runs, and once by hand, reset by
:func:`tests.sim.step_reference.reference_step`.  It then steps both for
400 cycles and requires, after every cycle, equal :class:`CycleEvents`
(every field, the store's RAM footprint included), equal net codes and
address spaces, and the same FSM phase from :meth:`GateRunner.phase`
and :func:`tests.sim.step_reference.reference_phase`.

The workloads are mult (once with its untrusted code words tainted),
the six Table 2 violators, and two watchdog programs driven with
external resets, which between them put all six ``rst`` codes on the
reset rail: untainted watchdog PORs, a corrupted watchdog's tainted
rail, tainted and unknown resets.  A toy netlist whose store strobe is
the load data covers the ``dmem_wen`` re-read on load cycles, which the
LP430 (whose strobe does not depend on the load data) cannot.
"""

import numpy as np
import pytest

from repro.core.labels import SecurityPolicy
from repro.core.tracker import build_runner
from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.logic.ternary import ONE, UNKNOWN, ZERO
from repro.sim.compiled import code_of
from repro.sim.soc import AddressSpace, Rom, SoC
from repro.workloads.registry import BENCHMARKS, TABLE2_VIOLATORS
from tests.sim.step_reference import reference_phase, reference_step
from tests.sim.test_soc import CHAIN, toy_soc

CYCLES = 400

#: Arms a 64-cycle watchdog and idles until its POR restarts it.
WATCHDOG = """
.task sys trusted
start:
    mov #0x5a03, &WDTCTL
spin:
    jmp spin
"""

#: Writes tainted input to WDTCTL: the watchdog is corrupted and its
#: reset rail tainted until an untainted POR.
CORRUPT = """
.task sys trusted
start:
    mov &P1IN, &WDTCTL
stall:
    jmp stall
"""

#: External resets driven into the watchdog programs, by cycle.
#: They come after the watchdog program's natural PORs: an unknown or
#: tainted reset leaves its watchdog corrupted for good.
RESETS = {
    300: (UNKNOWN, 0),
    301: (UNKNOWN, 1),
    350: (ONE, 1),
}


def _reference_substrate(program, policy, circuit):
    """:func:`build_runner`'s SoC, built the same way but reset by the
    reference step."""
    space = AddressSpace(
        tainted_input_ports=tuple(policy.tainted_input_ports),
        tainted_output_ports=tuple(policy.tainted_output_ports),
    )
    rom = Rom()
    program.load_rom(rom)
    soc = SoC(circuit, rom=rom, space=space)
    program.load_ram(space.ram)
    for _ in range(2):
        reference_step(soc, (ONE, 0))
    if policy.taint_code_words:
        untrusted = {task.name for task in program.untrusted_tasks()}
        program.load_rom_tainted(rom, untrusted)
    for region in policy.tainted_memory:
        space.ram.taint_region(region.low, region.high)
    return soc


def _assert_same_events(events, expected, where):
    assert events.cycle == expected.cycle, where
    assert events.pc == expected.pc, where
    assert events.instruction == expected.instruction, where
    assert events.reset == expected.reset, where
    assert events.read == expected.read, where
    assert (events.write is None) == (expected.write is None), where
    if expected.write is not None:
        write, want = events.write, expected.write
        assert write.address == want.address, where
        assert write.data == want.data, where
        assert write.wen == want.wen, where
        assert np.array_equal(write.ram_match, want.ram_match), where
    assert events.port_events == expected.port_events, where
    assert events.por_next == expected.por_next, where


def _assert_same_space(space, expected, where):
    for name in ("bits", "xmask", "tmask"):
        assert np.array_equal(
            getattr(space.ram, name), getattr(expected.ram, name)
        ), f"{where}: ram.{name}"
    assert space.watchdog.snapshot() == expected.watchdog.snapshot(), where
    assert space.timer.snapshot() == expected.timer.snapshot(), where
    assert [port.snapshot() for port in space.output_ports] == [
        port.snapshot() for port in expected.output_ports
    ], where


def _lockstep(program, policy=SecurityPolicy(), resets=None):
    """Step both substrates for :data:`CYCLES` cycles; returns the
    ``rst`` code of every cycle whose reset rail was not a clean 0."""
    circuit = compiled_cpu()
    runner = build_runner(program, policy, circuit)
    soc = runner.soc
    reference = _reference_substrate(program, policy, circuit)
    assert np.array_equal(soc.state.codes, reference.state.codes)
    reset_codes = {}
    for cycle in range(CYCLES):
        external = (resets or {}).get(cycle, (ZERO, 0))
        events = soc.step(external)
        expected = reference_step(reference, external)
        where = f"{program.name}: cycle {cycle}"
        _assert_same_events(events, expected, where)
        assert np.array_equal(
            soc.state.codes, reference.state.codes
        ), f"{where}: net codes diverged"
        _assert_same_space(soc.space, reference.space, where)
        assert soc.pending_por == reference.pending_por, where
        assert runner.phase() == reference_phase(reference), where
        code = code_of(events.reset[0], events.reset[1] & 1)
        if code:
            reset_codes[cycle] = code
    return reset_codes


def test_store_strobe_from_load_data():
    """A netlist whose store strobe and data are the load data (the
    LP430's are not): a load cycle's store must see the loaded word, so
    the step re-reads ``dmem_wen`` after the load's fanout pass."""
    circuit, _ = toy_soc(store_loaded=True)
    socs = []
    for step in (SoC.step, reference_step):
        rom = Rom()
        rom.load(0, [CHAIN[0]])
        for here, after in zip(CHAIN, CHAIN[1:] + CHAIN[:1]):
            rom.load(here, [after])
        soc = SoC(circuit, rom=rom)
        for address in CHAIN:
            soc.space.ram.load(address, [address ^ 0x5A5A])
        for _ in range(2):
            step(soc, (ONE, 0))
        socs.append(soc)
    soc, reference = socs
    stores = 0
    for cycle in range(4 * len(CHAIN)):
        events = soc.step()
        _assert_same_events(events, reference_step(reference), cycle)
        assert np.array_equal(soc.state.codes, reference.state.codes)
        _assert_same_space(soc.space, reference.space, cycle)
        stores += events.write is not None
    assert 0 < stores < 4 * len(CHAIN)


def _program(name):
    return assemble(BENCHMARKS[name].service_source, name=name)


@pytest.mark.parametrize("name", ("mult",) + TABLE2_VIOLATORS)
def test_table_workloads(name):
    _lockstep(_program(name))


def test_tainted_code_words():
    _lockstep(_program("mult"), SecurityPolicy(taint_code_words=True))


def test_watchdog_resets_cover_every_rst_code():
    watchdog = _lockstep(assemble(WATCHDOG, name="watchdog"), resets=RESETS)
    corrupt = _lockstep(assemble(CORRUPT, name="corrupt"), resets=RESETS)
    codes = set(watchdog.values()) | set(corrupt.values())
    assert codes == {1, 2, 3, 4, 5}  # and 0 on every other cycle
    watchdog_pors = [
        cycle
        for cycle, code in watchdog.items()
        if code == code_of(ONE, 0) and cycle not in RESETS
    ]
    assert len(watchdog_pors) >= 3, watchdog
