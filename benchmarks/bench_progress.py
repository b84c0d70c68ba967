"""Armed-progress-estimator overhead on the analysis hot path.

The estimator rides the same boundaries as the budget (worklist pops,
fetch boundaries) behind a counter-then-interval double throttle, so an
*armed* estimator -- attached and snapshotting at the service's default
cadence -- must cost under 5% over a plain analysis on a real Table 1
workload: the median CPU-time ratio of alternating pairs on one pinned
CPU (``_pairs.py``), each run five analyses, like the other overhead
benches.

Emits ``BENCH_progress.json`` with the ratio plus the snapshot counts so
the trajectory (and the throttle's effectiveness) is tracked across
commits.
"""

import pytest
from _pairs import pinned_pairs, repeated

from repro.core import TaintTracker, default_policy
from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.resilience import AnalysisBudget, ProgressEstimator
from repro.workloads.registry import BENCHMARKS

#: The acceptance ceiling: armed progress must stay under 5% overhead.
OVERHEAD_CEILING = 1.05

#: The service worker's default snapshot cadence (heartbeat interval).
ARMED_INTERVAL = 0.5


@pytest.fixture(scope="module")
def circuit():
    return compiled_cpu()


def test_progress_overhead(circuit, bench_json):
    program = assemble(BENCHMARKS["intAVG"].service_source, name="intavg")
    policy = default_policy()
    pairs = 21
    analyses = 5  # per timed run: one intAVG analysis is under 0.1 s

    def run_plain():
        return TaintTracker(
            program, policy, circuit=circuit, budget=AnalysisBudget()
        ).run()

    def run_armed():
        estimator = ProgressEstimator(interval_seconds=ARMED_INTERVAL)
        result = TaintTracker(
            program,
            policy,
            circuit=circuit,
            budget=AnalysisBudget(),
            progress=estimator,
        ).run()
        return result, estimator

    # Warm every lazy cache before timing.
    baseline = run_plain()
    run_armed()
    timed = pinned_pairs(
        repeated(run_plain, analyses), repeated(run_armed, analyses), pairs
    )
    armed_result, estimator = timed.result
    overhead = timed.overhead
    plain, armed = timed.plain / analyses, timed.measured / analyses
    jitter = max(timed.plain_times) / min(timed.plain_times)

    # The estimator must not perturb the analysis itself.
    assert armed_result.verdict == baseline.verdict
    assert armed_result.stats.paths == baseline.stats.paths
    assert (
        armed_result.stats.cycles_simulated
        == baseline.stats.cycles_simulated
    )

    # It must have actually armed: at least the final forced snapshot.
    assert estimator.snapshots_taken >= 1
    assert estimator.latest is not None
    assert estimator.latest.fraction == 1.0

    bench_json(
        "progress",
        {
            "workload": "intAVG",
            "verdict": armed_result.verdict,
            "paths": armed_result.stats.paths,
            "plain_seconds": plain,
            "armed_seconds": armed,
            "overhead_ratio": overhead,
            "plain_jitter_ratio": jitter,
            "snapshots_taken": estimator.snapshots_taken,
            "interval_seconds": ARMED_INTERVAL,
            "pairs": pairs,
            "analyses_per_run": analyses,
            "pair_ratios": timed.ratios,
        },
        wall_seconds=armed,
    )
    assert overhead < OVERHEAD_CEILING, (
        f"armed progress overhead {overhead:.3f}x exceeds the 5% target "
        f"(plain {plain:.3f}s, armed {armed:.3f}s CPU, "
        f"median of {pairs} pinned pairs: "
        + ", ".join(f"{ratio:.3f}" for ratio in sorted(timed.ratios)) + ")"
    )
