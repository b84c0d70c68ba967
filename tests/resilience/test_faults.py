"""Fault injection: the analyzer survives or fails *typed*, never with a
bare traceback from the gate-level substrate."""

import pytest

from repro.core import TaintTracker, default_policy
from repro.isa.assembler import assemble
from repro.obs import NO_INSTRUMENTS, NULL_OBSERVER
from repro.resilience import (
    FAULT_KINDS,
    FaultInjector,
    ReproError,
    SimulationError,
)

FORKY = """
.task sys trusted
start:
    mov &P3IN, r4
    bit #1, r4
    jz even
    mov #1, &P2OUT
    halt
even:
    mov #2, &P2OUT
    halt
"""


def _analyze(injector):
    program = assemble(FORKY, name="forky")
    return TaintTracker(program, default_policy(), faults=injector).run()


class TestHook:
    def test_no_injector_by_default(self, armed_run):
        assert NO_INSTRUMENTS.faults is None
        _, seen = armed_run()
        assert seen and all(armed.faults is None for armed in seen)

    def test_faults_armed_only_during_run(self, armed_run):
        injector = FaultInjector(seed=1, rate=0.0)
        tracker, seen = armed_run(faults=injector)
        assert seen and all(armed.faults is injector for armed in seen)
        assert tracker.runner.soc.instruments is NO_INSTRUMENTS

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(kinds=("decode", "cosmic_ray"))


class TestSurvival:
    def test_decode_faults_never_crash(self):
        # Every shadow decode fails: each path ends "illegal".  The
        # analyzer must complete and return a result, not raise.
        injector = FaultInjector(seed=7, rate=1.0, kinds=("decode",))
        result = _analyze(injector)
        assert injector.injected
        assert result.verdict in ("secure", "insecure", "inconclusive")

    def test_gate_eval_fault_becomes_typed_simulation_error(self):
        with pytest.raises(SimulationError) as info:
            _analyze(FaultInjector(seed=7, rate=1.0, kinds=("gate_eval",)))
        assert "gate evaluation failed" in str(info.value)
        assert info.value.retriable
        # Never a bare RuntimeError: the tracker wrapped it.
        assert isinstance(info.value, ReproError)

    def test_snapshot_corruption_survives_or_fails_typed(self):
        injector = FaultInjector(seed=3, rate=1.0, kinds=("snapshot",))
        try:
            result = _analyze(injector)
        except ReproError:
            return  # typed failure is an acceptable outcome
        assert injector.injected
        # Corruption is loss of knowledge (taint), so over-taint may
        # degrade the verdict -- but soundly, and without crashing.
        assert result.verdict in ("secure", "insecure", "inconclusive")

    def test_clock_skew_survives(self):
        injector = FaultInjector(
            seed=5, rate=0.5, kinds=("clock_skew",), skew_cycles=11
        )
        result = _analyze(injector)
        assert injector.injected
        assert result.verdict in ("secure", "insecure", "inconclusive")

    def test_every_kind_at_low_rate_is_survivable_or_typed(self):
        try:
            result = _analyze(
                FaultInjector(seed=11, rate=0.05, kinds=FAULT_KINDS)
            )
        except ReproError:
            return
        assert result.verdict in ("secure", "insecure", "inconclusive")


class TestDeterminism:
    def _run(self, seed):
        injector = FaultInjector(seed=seed, rate=0.3, kinds=("decode",))
        result = _analyze(injector)
        return injector.injected, result

    def test_same_seed_same_faults_same_result(self):
        faults_a, result_a = self._run(42)
        faults_b, result_b = self._run(42)
        assert faults_a == faults_b
        assert result_a.verdict == result_b.verdict
        assert result_a.stats.paths == result_b.stats.paths

    def test_different_seed_different_faults(self):
        faults_a, _ = self._run(1)
        faults_b, _ = self._run(2)
        assert faults_a != faults_b

    def test_max_faults_caps_injection(self):
        injector = FaultInjector(
            seed=9, rate=1.0, kinds=("decode",), max_faults=2
        )
        fires = [
            injector.on_decode(0, cycle, NULL_OBSERVER) for cycle in range(10)
        ]
        assert sum(fires) == 2
        assert len(injector.injected) == 2
