"""Pickling regressions for everything the worker protocol ships.

The coordinator sends work-item snapshots to workers and gets boundary
snapshots back; worker_init receives the program, policy and compiled
circuit.  All of it must survive a pickle round-trip, and a snapshot's
canonical fingerprint must be preserved exactly -- the concrete-visit
dedup table keys on ``_state_digest``, so a digest change across the
process boundary would silently break serial equivalence.
"""

import pickle

import pytest

from repro.core import TaintTracker, default_policy
from repro.core.tracker import _state_digest
from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.sim.runner import GateRunner

SOURCE = (
    ".task sys trusted\n"
    "start:\n"
    "    mov #0x0FFE, sp\n"
    "    call #app\n"
    "    jmp start\n"
    ".task app untrusted\n"
    "app:\n"
    "    mov &P1IN, r4\n"
    "    and #0x0003, r4\n"
    "    mov r4, &P2OUT\n"
    "    ret\n"
)


@pytest.fixture(scope="module")
def tracker():
    return TaintTracker(
        assemble(SOURCE, name="pickle_probe"), policy=default_policy()
    )


def _roundtrip(value):
    return pickle.loads(pickle.dumps(value))


def test_soc_state_roundtrip_preserves_digest(tracker):
    soc = tracker.runner.soc
    for _ in range(25):
        soc.step()
        state = soc.snapshot()
        clone = _roundtrip(state)
        assert _state_digest(clone) == _state_digest(state)
        assert clone.cycle == state.cycle
        assert clone.pending_por == state.pending_por


def test_soc_state_roundtrip_resumes_identically(tracker):
    """A restored-from-pickle snapshot must continue exactly like the
    original -- this is what lets a worker adopt coordinator state."""
    soc = tracker.runner.soc
    for _ in range(10):
        soc.step()
    state = soc.snapshot()
    for _ in range(10):
        soc.step()
    after_original = _state_digest(soc.snapshot())

    soc.restore(_roundtrip(state))
    for _ in range(10):
        soc.step()
    assert _state_digest(soc.snapshot()) == after_original


def test_compiled_circuit_roundtrip_drops_caches_and_simulates():
    circuit = compiled_cpu()
    clone = _roundtrip(circuit)
    # derived caches are rebuilt lazily, not shipped
    assert clone._counter_registry is None
    assert clone._counter_cache == {}
    # and the clone is a working simulation substrate
    program = assemble(SOURCE, name="pickle_probe")
    runner = GateRunner(clone, program)
    runner.run(max_cycles=50)
    reference = GateRunner(compiled_cpu(), program)
    reference.run(max_cycles=50)
    assert _state_digest(runner.soc.snapshot()) == _state_digest(
        reference.soc.snapshot()
    )


def test_program_policy_budget_roundtrip(tracker):
    from repro.resilience.budget import AnalysisBudget

    program = _roundtrip(tracker.program)
    assert program.name == tracker.program.name
    policy = _roundtrip(tracker.policy)
    assert policy.name == tracker.policy.name
    budget = AnalysisBudget(deadline_seconds=5.0, max_rss_mb=512)
    budget.start()
    view = _roundtrip(budget.worker_view())
    assert view.deadline_seconds == 5.0
    assert view.max_rss_mb == 512
    assert view._started_at == budget._started_at
