"""Provenance-recording overhead on the gate-level analysis hot path.

Two contracts from the provenance design:

* recorder *off* (the default): the per-pass ``instruments.provenance``
  None check must cost < 2% over a build without the hook -- measured here as
  plain-vs-plain jitter with the hook compiled in, bounded at 2%;
* recorder *on*: recording every newly-tainted net's cause edge must
  stay under 25% over the plain analysis on a real Table 1 workload:
  the median CPU-time ratio of alternating pairs on one pinned CPU
  (``_pairs.py``).

Emits ``BENCH_provenance.json`` with both ratios so the trajectory is
tracked across commits.
"""

import pytest
from _pairs import pinned_pairs

from repro.core import TaintTracker, default_policy
from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.obs.provenance import ProvenanceRecorder, explain_violation
from repro.workloads.registry import BENCHMARKS


@pytest.fixture(scope="module")
def circuit():
    return compiled_cpu()


def test_provenance_overhead(circuit, bench_json):
    program = assemble(BENCHMARKS["intAVG"].service_source, name="intavg")
    policy = default_policy()
    pairs = 11

    def run_plain():
        return TaintTracker(program, policy, circuit=circuit).run()

    def run_recording():
        recorder = ProvenanceRecorder()
        result = TaintTracker(
            program, policy, circuit=circuit, provenance=recorder
        ).run()
        return result, recorder

    # Warm every lazy cache before timing.
    baseline = run_plain()
    run_recording()
    timed = pinned_pairs(run_plain, run_recording, pairs)
    recorded_result, recorder = timed.result
    overhead, plain, recording = timed.overhead, timed.plain, timed.measured
    # Off-path jitter bound: successive plain runs against each other.
    off_ratio = max(timed.plain_times) / min(timed.plain_times)

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
            "pairs": pairs,
            "pair_ratios": timed.ratios,
        },
        wall_seconds=recording,
    )
    assert overhead < 1.25, (
        f"provenance overhead {overhead:.3f}x exceeds the 25% target "
        f"(plain {plain:.3f}s, recording {recording:.3f}s CPU, "
        f"median of {pairs} pinned pairs: "
        + ", ".join(f"{ratio:.3f}" for ratio in sorted(timed.ratios)) + ")"
    )
