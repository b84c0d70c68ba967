"""Lockstep fuzz: timeline derivation == a run that writes every net.

A timeline frame is a step-log row -- the step's flip-flop Qs and input
ports -- and every other net is derived from it when queried; this
harness proves the derivation is lossless for real workloads.  For
every forking Table 1 workload (the Table 2 violators -- the programs
whose exploration restores snapshots, forks, merges and fast-forwards,
i.e. everything that could desynchronise a recorder), an analysis runs
once with the recorder armed, on the cut-mapped passes a plain run
takes, then runs again *fresh* with every pass forced onto the every-net
form, capturing the exact post-step code array every cycle.
``Timeline.seek(n)`` must reproduce every captured frame bit for bit --
including when the first recording was interrupted mid-run and resumed
from a checkpoint.
"""

import hashlib

import numpy as np
import pytest

from repro.core import TaintTracker, default_policy
from repro.obs.timeline import TimelineRecorder
from repro.resilience import AnalysisInterrupted
from repro.sim.compiled import CompiledCircuit
from repro.sim.soc import SoC
from repro.workloads.registry import TABLE2_VIOLATORS, benchmark

FORKING_WORKLOADS = TABLE2_VIOLATORS


class RawCapture:
    """Digests of each step's post-edge code array, plus full copies on
    a stride."""

    def __init__(self):
        self.hashes = []
        self.samples = {}

    def on_step(self, cycle, codes):
        self.hashes.append(
            (cycle, hashlib.sha256(codes.tobytes()).hexdigest())
        )
        # full arrays on a deterministic stride, for an arrays-equal
        # check that does not lean on the hash
        if len(self.hashes) % 37 == 1:
            self.samples[len(self.hashes) - 1] = codes.copy()


def _tracker(name, **kwargs):
    program = benchmark(name).service_program()
    return TaintTracker(program, policy=default_policy(), **kwargs)


def _raw_frames(name, monkeypatch):
    """A fresh serial run's exact per-step code stream, with every pass
    on the every-net form, captured while the tracker's timeline is
    armed.

    The tracker arms its timeline only for :meth:`run`, so the
    power-on-reset steps taken while the substrate is constructed are
    recorded by neither side.
    """
    capture = RawCapture()
    step = SoC.step

    def capturing(soc, *args, **kwargs):
        events = step(soc, *args, **kwargs)
        if soc.instruments.timeline is not None:
            capture.on_step(events.cycle, soc.state.codes)
        return events

    with monkeypatch.context() as patch:
        patch.setattr(
            CompiledCircuit, "pass_plan", lambda self, state, plan: plan.every
        )
        patch.setattr(SoC, "step", capturing)
        _tracker(name, timeline=TimelineRecorder()).run()
    return capture


def _assert_lockstep(timeline, capture, context):
    assert timeline.num_frames == len(capture.hashes), context
    for frame in range(timeline.num_frames):
        cycle, digest = capture.hashes[frame]
        assert timeline.cycle_of(frame) == cycle, f"{context}: frame {frame}"
        reconstructed = timeline.seek(frame)
        assert (
            hashlib.sha256(reconstructed.tobytes()).hexdigest() == digest
        ), f"{context}: frame {frame} reconstruction diverged"
    for frame, codes in capture.samples.items():
        assert np.array_equal(timeline.seek(frame), codes), (
            f"{context}: sampled frame {frame}"
        )


@pytest.mark.parametrize("name", FORKING_WORKLOADS)
def test_seek_bit_identical_to_fresh_serial_run(name, monkeypatch):
    recorder = TimelineRecorder()
    result = _tracker(name, timeline=recorder).run()
    timeline = recorder.to_timeline(result.violations)
    capture = _raw_frames(name, monkeypatch)
    _assert_lockstep(timeline, capture, name)


@pytest.mark.parametrize("name", FORKING_WORKLOADS[:2])
def test_seek_bit_identical_across_checkpoint_resume(name, monkeypatch):
    """An interrupted-and-resumed recording equals an uninterrupted one,
    frame for frame, and still equals the raw serial stream."""
    interrupted = _tracker(name, timeline=TimelineRecorder())
    original = interrupted._explore_path
    fired = []

    def wrapper(*args, **kwargs):
        original(*args, **kwargs)
        if not fired and interrupted.stats.paths >= 2:
            fired.append(True)
            interrupted.request_interrupt("test")

    interrupted._explore_path = wrapper
    try:
        interrupted.run()
        pytest.skip(f"{name} finished in under 2 paths; nothing to resume")
    except AnalysisInterrupted:
        pass
    payload = interrupted.export_checkpoint()
    assert payload["timeline"] is not None
    assert payload["timeline"]["cycles"], "no frames before the interrupt"

    resumed_recorder = TimelineRecorder()
    resumed = _tracker(name, timeline=resumed_recorder)
    resumed.restore_checkpoint(payload)
    result = resumed.run()
    timeline = resumed_recorder.to_timeline(result.violations)
    _assert_lockstep(
        timeline, _raw_frames(name, monkeypatch), f"{name} (resumed)"
    )
