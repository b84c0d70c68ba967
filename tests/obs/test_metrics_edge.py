"""Edge cases for obs.metrics histograms, profiler error spans, and
clock monotonicity under injected clock skew."""

import io
import json

import pytest

from repro.core import TaintTracker, default_policy
from repro.isa.assembler import assemble
from repro.obs import (
    ManualClock,
    MetricsRegistry,
    Observer,
    Profiler,
    TraceRecorder,
)
from repro.obs.metrics import Histogram
from repro.resilience.faults import FaultInjector


class TestHistogramEdges:
    def test_bucket_boundary_is_inclusive(self):
        histogram = Histogram("h", bounds=(0.1, 0.5))
        histogram.observe(0.1)  # lands in <=0.1, not the next bucket
        histogram.observe(0.5)
        snap = histogram.snapshot()
        assert snap["buckets"] == {"<=0.1": 1, "<=0.5": 1, "+inf": 0}

    def test_negative_values_land_in_first_bucket(self):
        histogram = Histogram("h", bounds=(0.1, 0.5))
        histogram.observe(-3.0)
        snap = histogram.snapshot()
        assert snap["buckets"]["<=0.1"] == 1
        assert snap["min"] == -3.0

    def test_overflow_bucket(self):
        histogram = Histogram("h", bounds=(0.1, 0.5))
        histogram.observe(1e18)
        snap = histogram.snapshot()
        assert snap["buckets"]["+inf"] == 1
        assert snap["max"] == 1e18

    def test_empty_snapshot_has_null_extrema(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None
        assert snap["max"] is None
        assert snap["mean"] is None

    def test_merge_requires_identical_bounds(self):
        left = Histogram("left", bounds=(0.1, 0.5))
        right = Histogram("right", bounds=(0.2, 0.5))
        with pytest.raises(ValueError):
            left.merge(right)

    def test_merge_of_empty_is_noop(self):
        left = Histogram("left", bounds=(0.1, 0.5))
        left.observe(0.3)
        left.merge(Histogram("empty", bounds=(0.1, 0.5)))
        snap = left.snapshot()
        assert snap["count"] == 1
        assert snap["min"] == 0.3 and snap["max"] == 0.3

    def test_merge_into_empty_adopts_extrema(self):
        left = Histogram("left", bounds=(0.1, 0.5))
        right = Histogram("right", bounds=(0.1, 0.5))
        right.observe(0.05)
        right.observe(0.4)
        left.merge(right)
        snap = left.snapshot()
        assert snap["count"] == 2
        assert snap["min"] == 0.05 and snap["max"] == 0.4

    def test_merge_two_empties_stays_empty(self):
        left = Histogram("left")
        left.merge(Histogram("right"))
        snap = left.snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_merge_accumulates_counts_and_sum(self):
        left = Histogram("left", bounds=(0.5,))
        right = Histogram("right", bounds=(0.5,))
        left.observe(0.2)
        right.observe(0.9)
        left.merge(right)
        snap = left.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == pytest.approx(1.1)
        assert snap["buckets"] == {"<=0.5": 1, "+inf": 1}

    def test_registry_export_restore_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("paths").inc(7)
        registry.gauge("peak").set(3)
        registry.histogram("density", bounds=(0.5,)).observe(0.2)
        state = registry.export_state()

        resumed = MetricsRegistry()
        resumed.restore_state(state)
        assert resumed.snapshot() == registry.snapshot()


class TestProfilerErrorSpans:
    def test_error_span_counts_and_keeps_timing(self):
        clock = ManualClock()
        profiler = Profiler(clock)
        with pytest.raises(RuntimeError):
            with profiler.span("explore"):
                clock.advance(2.0, cpu=1.0)
                raise RuntimeError("boom")
        snap = profiler.snapshot()
        assert snap["explore"]["calls"] == 1
        assert snap["explore"]["errors"] == 1
        assert snap["explore"]["wall_seconds"] == pytest.approx(2.0)
        assert profiler.depth == 0

    def test_stack_stays_balanced_after_nested_error(self):
        clock = ManualClock()
        profiler = Profiler(clock)
        with pytest.raises(RuntimeError):
            with profiler.span("repair"):
                with profiler.span("explore"):
                    raise RuntimeError("boom")
        assert profiler.depth == 0
        # a later span records under its own path, not a stale prefix
        with profiler.span("check"):
            clock.advance(1.0)
        assert "check" in profiler.snapshot()
        assert profiler.snapshot()["repair/explore"]["errors"] == 1

    def test_clean_span_has_zero_errors(self):
        profiler = Profiler(ManualClock())
        with profiler.span("check"):
            pass
        assert profiler.snapshot()["check"]["errors"] == 0

    def test_error_counts_roundtrip_through_state(self):
        clock = ManualClock()
        profiler = Profiler(clock)
        with pytest.raises(RuntimeError):
            with profiler.span("explore"):
                raise RuntimeError("boom")
        resumed = Profiler(ManualClock())
        resumed.restore_state(profiler.export_state())
        assert resumed.snapshot()["explore"]["errors"] == 1


RUNNABLE = """
.task sys trusted
    mov #21, r4
    add r4, r4
    mov r4, &P2OUT
    halt
"""


class TestClockUnderSkew:
    def test_trace_wall_and_seq_stay_monotonic_under_clock_skew(self):
        """Injected clock_skew jumps the SoC cycle counter; the obs
        clock (trace ``wall``) and sequence numbers must not jump
        backwards with it."""
        program = assemble(RUNNABLE, name="tiny")
        injector = FaultInjector(
            seed=3, rate=0.3, kinds=("clock_skew",), skew_cycles=50
        )
        sink = io.StringIO()
        observer = Observer(trace=TraceRecorder(sink))
        TaintTracker(
            program,
            default_policy(),
            obs=observer,
            faults=injector,
        ).run()
        assert injector.injected, "no clock_skew fault ever fired"
        events = [
            json.loads(line)
            for line in sink.getvalue().splitlines()
            if line
        ]
        assert any(
            event["event"] == "fault_injected" for event in events
        )
        walls = [event["wall"] for event in events]
        assert walls == sorted(walls)
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
