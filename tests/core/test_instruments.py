"""A run's instruments travel with the tracker, not through process state.

The tracker's ``obs=``, ``provenance=``, ``timeline=`` and ``faults=``
arguments alone must reach the SoC and the gate kernel, and only for the
duration of ``run()``: the power-on reset in the constructor stays
unrecorded.  The pinned figures below are the run-scoped values.
"""

import pytest

from repro.core import TaintTracker, default_policy
from repro.obs import Observer, ProvenanceRecorder, TimelineRecorder
from repro.resilience import FaultInjector
from repro.workloads.registry import benchmark


def _tracker(name, **instruments):
    program = benchmark(name).service_program()
    return TaintTracker(program, default_policy(), **instruments)


@pytest.mark.parametrize(
    "name, cycles", [("mult", 3780), ("binSearch", 3782)]
)
def test_obs_alone_reaches_the_simulator(name, cycles):
    observer = Observer()
    result = _tracker(name, obs=observer).run()
    counters = observer.snapshot()["metrics"]["counters"]
    assert result.stats.cycles_simulated == cycles
    assert counters["sim.cycles"] == result.stats.cycles_simulated
    assert counters["sim.gate_evals"] > 0


def test_faults_count_on_the_trackers_observer():
    observer = Observer()
    injector = FaultInjector(
        seed=3, rate=0.002, kinds=("snapshot", "clock_skew", "decode")
    )
    result = _tracker("mult", obs=observer, faults=injector).run()
    skews = (171, 947, 1206, 1220, 1281, 1361, 1716, 1804, 2387, 2458,
             2816, 3600)
    assert injector.injected == [("clock_skew", cycle) for cycle in skews]
    assert result.verdict == "secure"
    counters = observer.snapshot()["metrics"]["counters"]
    assert counters["resilience.faults_injected"] == 12


def test_timeline_records_only_the_run():
    recorder = TimelineRecorder()
    result = _tracker("intAVG", timeline=recorder).run()
    assert recorder.num_frames == result.stats.cycles_simulated == 528


def test_provenance_records_only_the_run():
    recorder = ProvenanceRecorder()
    _tracker("intAVG", provenance=recorder).run()
    assert recorder.snapshot()["edges_recorded"] == 28966
