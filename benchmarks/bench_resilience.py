"""Resilience-layer overhead on the un-degraded hot path.

The budget checks and checkpoint-cadence test run on every worklist pop
and instruction fetch; an armed-but-unexhausted budget plus a
never-due checkpointer must cost < 5% over the unbudgeted analysis: the
median CPU-time ratio of alternating pairs on one pinned CPU
(``_pairs.py``), each run five analyses.  Emits
``BENCH_resilience.json``.
"""

import pytest
from _pairs import pinned_pairs, repeated

from repro.core import TaintTracker, default_policy
from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.resilience import AnalysisBudget, Checkpointer
from repro.workloads.registry import BENCHMARKS


@pytest.fixture(scope="module")
def circuit():
    return compiled_cpu()


def test_budget_and_checkpoint_overhead(circuit, tmp_path, bench_json):
    """Armed budgets + cadence checks on a real Table 1 analysis."""
    program = assemble(BENCHMARKS["intAVG"].service_source, name="intavg")
    policy = default_policy()
    pairs = 21
    analyses = 5  # per timed run: one intAVG analysis is under 0.1 s

    def run_plain():
        return TaintTracker(program, policy, circuit=circuit).run()

    def run_armed():
        # Every axis armed but far from exhaustion, plus a checkpointer
        # whose cadence never comes due: the zero-degradation hot path.
        budget = AnalysisBudget(
            max_paths=10**6,
            max_cycles=10**9,
            max_merged_states=10**6,
            deadline_seconds=3600.0,
            max_rss_mb=1 << 20,
        )
        checkpointer = Checkpointer(
            tmp_path / "never.ckpt", every_paths=10**6
        )
        return TaintTracker(
            program,
            policy,
            circuit=circuit,
            budget=budget,
            checkpointer=checkpointer,
        ).run()

    # Warm every lazy cache before timing.
    baseline = run_plain()
    run_armed()
    timed = pinned_pairs(
        repeated(run_plain, analyses), repeated(run_armed, analyses), pairs
    )
    armed_result = timed.result
    overhead = timed.overhead
    plain, armed = timed.plain / analyses, timed.measured / analyses

    # The armed run must not have degraded anything.
    assert armed_result.verdict == baseline.verdict
    assert not armed_result.exhausted
    assert armed_result.stats.drained_paths == 0
    assert not (tmp_path / "never.ckpt").exists()

    bench_json(
        "resilience",
        {
            "workload": "intAVG",
            "verdict": armed_result.verdict,
            "paths": armed_result.stats.paths,
            "plain_seconds": plain,
            "armed_seconds": armed,
            "overhead_ratio": overhead,
            "pairs": pairs,
            "analyses_per_run": analyses,
            "pair_ratios": timed.ratios,
        },
        wall_seconds=armed,
    )
    assert overhead < 1.05, (
        f"budget/checkpoint overhead {overhead:.3f}x exceeds the 5% "
        f"target (plain {plain:.3f}s, armed {armed:.3f}s CPU, "
        f"median of {pairs} pinned pairs: "
        + ", ".join(f"{ratio:.3f}" for ratio in sorted(timed.ratios)) + ")"
    )
