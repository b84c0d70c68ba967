"""The provenance-recording SoC step against the frozen two-pass step.

Each case builds the analysis substrate twice on one compiled LP430, as
``tests/sim/test_step_reference.py`` does, arms each SoC with its own
:class:`~repro.obs.provenance.ProvenanceRecorder`, and steps one with
:meth:`repro.sim.soc.SoC.step` (one two-row sweep a cycle) and the other
with :func:`tests.sim.step_reference.reference_recording_step` (a cone
pass, the fetch and the load port by port, then a full pass) for 400
cycles.  After every cycle it requires equal :class:`CycleEvents`, equal
net codes and address spaces, and equal recorder rows: every recorded
edge's cycle, destination, source and kind, in order, and the labels.

The workloads are those of the plain step's test: mult with its
untrusted code words tainted, the six Table 2 violators, both watchdog
programs with external resets (all six ``rst`` codes), and the toy
netlist whose store strobe reads the load data, both from reset and
from a fresh state stepped out of reset: that SoC's first sweep runs
before any pass has tied the constant cells, and its load strobe is
one of them.
"""

import numpy as np
import pytest

from repro.core.labels import SecurityPolicy
from repro.core.tracker import build_runner
from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.logic.ternary import ONE, ZERO
from repro.obs import Instruments
from repro.obs.provenance import ProvenanceRecorder
from repro.sim.compiled import code_of
from repro.sim.soc import Rom, SoC
from repro.workloads.registry import TABLE2_VIOLATORS
from tests.sim.step_reference import reference_recording_step
from tests.sim.test_soc import CHAIN, toy_soc
from tests.sim.test_step_reference import (
    CORRUPT,
    CYCLES,
    RESETS,
    WATCHDOG,
    _assert_same_events,
    _assert_same_space,
    _program,
    _reference_substrate,
)


def _arm(soc):
    recorder = ProvenanceRecorder()
    soc.arm(Instruments(provenance=recorder))
    return recorder


def _assert_same_rows(recorder, expected, where):
    rows, want = recorder.export_state(), expected.export_state()
    for field in ("at", "dst", "src", "kind"):
        assert np.array_equal(rows[field], want[field]), f"{where}: {field}"
    assert rows["labels"] == want["labels"], where
    assert recorder.recorded == expected.recorded, where


def _lockstep(program, policy=SecurityPolicy(), resets=None):
    """Step both recording substrates for :data:`CYCLES` cycles; returns
    the number of edges recorded and the set of ``rst`` codes seen."""
    circuit = compiled_cpu()
    soc = build_runner(program, policy, circuit).soc
    reference = _reference_substrate(program, policy, circuit)
    recorder, expected = _arm(soc), _arm(reference)
    reset_codes = set()
    for cycle in range(CYCLES):
        external = (resets or {}).get(cycle, (ZERO, 0))
        events = soc.step(external)
        want = reference_recording_step(reference, external)
        where = f"{program.name}: cycle {cycle}"
        _assert_same_events(events, want, where)
        assert np.array_equal(
            soc.state.codes, reference.state.codes
        ), f"{where}: net codes diverged"
        _assert_same_space(soc.space, reference.space, where)
        assert soc.pending_por == reference.pending_por, where
        _assert_same_rows(recorder, expected, where)
        reset_codes.add(code_of(events.reset[0], events.reset[1] & 1))
    return recorder.recorded, reset_codes


@pytest.mark.parametrize("name", TABLE2_VIOLATORS)
def test_table_workloads(name):
    edges, _ = _lockstep(_program(name))
    assert edges > 0


def test_tainted_code_words():
    edges, _ = _lockstep(
        _program("mult"), SecurityPolicy(taint_code_words=True)
    )
    assert edges > 0


def test_watchdog_resets_cover_every_rst_code():
    _, watchdog = _lockstep(
        assemble(WATCHDOG, name="watchdog"), resets=RESETS
    )
    _, corrupt = _lockstep(assemble(CORRUPT, name="corrupt"), resets=RESETS)
    assert watchdog | corrupt == {0, 1, 2, 3, 4, 5}


def test_store_strobe_from_load_data():
    """The toy netlist's store strobe and data are the load data: a load
    cycle's store must see the loaded word, which the step has only
    after the load's fanout re-run."""
    circuit, _ = toy_soc(store_loaded=True)
    socs, recorders = [], []
    for step in (SoC.step, reference_recording_step):
        rom = Rom()
        rom.load(0, [CHAIN[0]])
        for here, after in zip(CHAIN, CHAIN[1:] + CHAIN[:1]):
            rom.load(here, [after])
        soc = SoC(circuit, rom=rom)
        for address in CHAIN:
            soc.space.ram.load(address, [address ^ 0x5A5A])
        # Taint every other word, so loads and stores record edges.
        for address in CHAIN[::2]:
            soc.space.ram.taint_region(address, address + 1)
        recorders.append(_arm(soc))
        for _ in range(2):
            step(soc, (ONE, 0))
        socs.append(soc)
    soc, reference = socs
    recorder, expected = recorders
    stores = 0
    for cycle in range(4 * len(CHAIN)):
        events = soc.step()
        want = reference_recording_step(reference)
        _assert_same_events(events, want, cycle)
        assert np.array_equal(soc.state.codes, reference.state.codes)
        _assert_same_space(soc.space, reference.space, cycle)
        _assert_same_rows(recorder, expected, cycle)
        stores += events.write is not None
    assert 0 < stores < 4 * len(CHAIN)
    assert recorder.recorded > 0


def test_first_step_from_a_fresh_state():
    """A SoC that records from power-on, out of reset: its first sweep
    must read the toy netlist's tied load strobe as 1, though no pass
    has tied the constants yet."""
    circuit, _ = toy_soc(store_loaded=True)
    socs = [SoC(circuit), SoC(circuit)]
    recorders = [_arm(soc) for soc in socs]
    soc, reference = socs
    for cycle in range(3):
        events = soc.step()
        want = reference_recording_step(reference)
        _assert_same_events(events, want, cycle)
        assert events.read is not None
        assert np.array_equal(soc.state.codes, reference.state.codes)
        _assert_same_rows(*recorders, cycle)
