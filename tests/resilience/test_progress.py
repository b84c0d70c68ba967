"""Progress estimation: snapshots, rate/ETA, throttling, fan-out.

The contract the v4 trace lint and the service SSE stream rely on:
``fraction`` is monotone non-decreasing within a run, the ETA is bounded
(deadline-clamped, day-capped), and an attached estimator never perturbs
the analysis verdict or exploration statistics.
"""

import io
import json

from repro.core import TaintTracker, default_policy
from repro.isa.assembler import assemble
from repro.obs import Observer, TraceRecorder, lint_trace
from repro.obs.clock import ManualClock
from repro.resilience import AnalysisBudget, ProgressEstimator
from repro.resilience.progress import (
    ETA_CAP_SECONDS,
    PROGRESS_SCHEMA,
    ProgressSnapshot,
    TICK_CHECK_INTERVAL,
)

# Untainted unknown input forks: several paths, a non-trivial frontier.
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


def _run(source, progress=None, budget=None, observer=None):
    program = assemble(source, name="t")
    return TaintTracker(
        program,
        default_policy(),
        budget=budget or AnalysisBudget(),
        obs=observer,
        progress=progress,
    ).run()


class TestSnapshotDocument:
    def test_document_roundtrips(self):
        snapshot = ProgressSnapshot(
            unix=1.5, paths=3, pending=2, cycles=100, merged_states=1,
            violations=0, budget={"paths": 0.1}, fraction=0.4,
            eta_seconds=2.0, rate_paths_per_s=1.5,
        )
        document = snapshot.to_document()
        assert document["schema"] == PROGRESS_SCHEMA
        assert ProgressSnapshot.from_document(document) == snapshot

    def test_from_document_ignores_unknown_keys(self):
        snapshot = ProgressSnapshot(
            unix=0.0, paths=1, pending=0, cycles=1, merged_states=0,
            violations=0, budget={}, fraction=0.0,
        )
        document = snapshot.to_document()
        document["surprise"] = True
        assert ProgressSnapshot.from_document(document) == snapshot


class TestEstimatorDuringAnalysis:
    def test_snapshots_are_taken_and_fraction_is_monotone(self):
        estimator = ProgressEstimator(interval_seconds=0.0)
        seen = []
        estimator.sink = seen.append
        result = _run(FORKY, progress=estimator)
        assert result.verdict == "secure"
        assert estimator.snapshots_taken >= 2
        assert seen[-1] is estimator.latest
        fractions = [s.fraction for s in seen]
        assert fractions == sorted(fractions)
        assert estimator.latest.fraction == 1.0
        assert estimator.latest.pending == 0

    def test_final_forced_snapshot_reflects_the_drained_worklist(self):
        estimator = ProgressEstimator(interval_seconds=3600.0)
        _run(FORKY, progress=estimator)
        # The interval never elapsed, but run() forces one at the end.
        assert estimator.snapshots_taken >= 1
        assert estimator.latest.pending == 0
        assert estimator.latest.fraction == 1.0

    def test_estimator_does_not_change_the_analysis(self):
        bare = _run(FORKY)
        timed = _run(FORKY, progress=ProgressEstimator(interval_seconds=0.0))
        assert timed.verdict == bare.verdict
        assert timed.stats.paths == bare.stats.paths
        assert timed.stats.cycles_simulated == bare.stats.cycles_simulated

    def test_budget_axis_fractions_are_reported(self):
        estimator = ProgressEstimator(interval_seconds=0.0)
        _run(
            FORKY,
            progress=estimator,
            budget=AnalysisBudget(max_paths=64, deadline_seconds=3600.0),
        )
        budget = estimator.latest.budget
        assert 0.0 < budget["paths"] <= 1.0
        assert "deadline" in budget
        assert "max_rss" not in budget and "rss" not in budget

    def test_trace_events_lint_clean_and_carry_context(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        observer = Observer(
            trace=TraceRecorder(
                path, context={"job_id": "j1", "attempt": 1, "run_id": "r1"}
            )
        )
        _run(
            FORKY,
            progress=ProgressEstimator(interval_seconds=0.0),
            observer=observer,
        )
        observer.trace.close()
        assert lint_trace(path) == []
        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        progress = [e for e in events if e["event"] == "progress"]
        assert progress, "analysis emitted no progress events"
        assert all(e["job_id"] == "j1" for e in events)
        assert all(e["attempt"] == 1 for e in events)
        assert all(e["run_id"] == "r1" for e in events)

    def test_progress_gauges_are_set(self):
        observer = Observer(trace=TraceRecorder(io.StringIO()))
        _run(
            FORKY,
            progress=ProgressEstimator(interval_seconds=0.0),
            observer=observer,
        )
        assert observer.metrics.gauge("tracker.progress_fraction").value == 1.0
        assert observer.metrics.gauge("tracker.progress_pending").value == 0


class TestThrottling:
    def _attached(self, clock, interval=10.0):
        estimator = ProgressEstimator(
            interval_seconds=interval, clock=clock
        )
        program = assemble(FORKY, name="t")
        tracker = TaintTracker(
            program, default_policy(), progress=estimator
        )
        assert estimator._tracker is tracker
        return estimator

    def test_interval_gates_snapshots(self):
        clock = ManualClock()
        estimator = self._attached(clock, interval=10.0)
        estimator.update(pending=0)
        assert estimator.snapshots_taken == 1
        clock.advance(1.0)
        estimator.update(pending=0)
        assert estimator.snapshots_taken == 1  # too soon
        clock.advance(10.0)
        estimator.update(pending=0)
        assert estimator.snapshots_taken == 2

    def test_force_bypasses_the_interval(self):
        clock = ManualClock()
        estimator = self._attached(clock, interval=10.0)
        estimator.update(pending=0)
        estimator.update(pending=0, force=True)
        assert estimator.snapshots_taken == 2

    def test_tick_counter_gates_the_clock_probe(self):
        clock = ManualClock()
        estimator = self._attached(clock, interval=0.0)
        for _ in range(TICK_CHECK_INTERVAL - 1):
            estimator.tick(pending=0)
        assert estimator.snapshots_taken == 0
        estimator.tick(pending=0)
        assert estimator.snapshots_taken == 1

    def test_unattached_estimator_is_inert(self):
        estimator = ProgressEstimator(interval_seconds=0.0)
        estimator.update(pending=3)  # never attached: no tracker to read
        assert estimator.snapshots_taken == 0
        assert estimator.latest is None


class TestRateAndEta:
    def _attached(self, clock, budget=None):
        estimator = ProgressEstimator(interval_seconds=0.0, clock=clock)
        program = assemble(FORKY, name="t")
        TaintTracker(
            program,
            default_policy(),
            budget=budget or AnalysisBudget(),
            progress=estimator,
        )
        return estimator

    def test_eta_from_rate(self):
        clock = ManualClock()
        estimator = self._attached(clock)
        stats = estimator._tracker.stats
        stats.paths = 1
        estimator.update(pending=10)
        assert estimator.latest.rate_paths_per_s is None
        clock.advance(1.0)
        stats.paths = 3  # 2 paths/s
        estimator.update(pending=10)
        assert estimator.latest.rate_paths_per_s == 2.0
        assert estimator.latest.eta_seconds == 5.0

    def test_eta_is_capped_at_a_day(self):
        clock = ManualClock()
        estimator = self._attached(clock)
        stats = estimator._tracker.stats
        stats.paths = 1
        estimator.update(pending=10)
        clock.advance(1_000_000.0)
        stats.paths = 2  # one path per ~11 days
        estimator.update(pending=1_000)
        assert estimator.latest.eta_seconds == ETA_CAP_SECONDS

    def test_deadline_clamps_the_eta(self):
        clock = ManualClock()
        estimator = self._attached(
            clock, budget=AnalysisBudget(deadline_seconds=4.0)
        )
        stats = estimator._tracker.stats
        stats.paths = 1
        estimator.update(pending=1_000_000)
        clock.advance(1.0)
        stats.paths = 2
        estimator.update(pending=1_000_000)
        # Rate says ~1Ms; the 4s deadline wins.
        assert estimator.latest.eta_seconds is not None
        assert estimator.latest.eta_seconds <= 4.0

    def test_stalled_exploration_reports_zero_rate_no_eta(self):
        clock = ManualClock()
        estimator = self._attached(clock)
        stats = estimator._tracker.stats
        stats.paths = 5
        estimator.update(pending=3)
        clock.advance(5.0)
        estimator.update(pending=3)
        assert estimator.latest.rate_paths_per_s == 0.0
        assert estimator.latest.eta_seconds is None
