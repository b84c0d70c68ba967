"""Unit tests for the repro.obs instruments."""

import io
import json

import pytest

from repro.core import TaintTracker
from repro.isa.assembler import assemble
from repro.obs import (
    NO_INSTRUMENTS,
    NULL_OBSERVER,
    Instruments,
    ManualClock,
    MetricsRegistry,
    NullObserver,
    Observer,
    Profiler,
    TraceRecorder,
    read_events,
)
from repro.obs.metrics import Counter, Histogram
from repro.resilience import FaultInjector, SimulationError
from tests.conftest import STRAIGHT_LINE


class TestMetrics:
    def test_counter_is_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 5

    def test_counter_identity_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a") is not registry.counter("b")

    def test_gauge_update_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("peak")
        gauge.update_max(3)
        gauge.update_max(1)
        assert gauge.value == 3
        gauge.set(0)
        assert gauge.value == 0

    def test_histogram_buckets(self):
        histogram = Histogram("density", bounds=(0.1, 0.5, 1.0))
        for value in (0.05, 0.3, 0.3, 0.9, 2.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 0.05
        assert snap["max"] == 2.0
        assert snap["mean"] == pytest.approx(3.55 / 5)
        assert snap["buckets"] == {
            "<=0.1": 1, "<=0.5": 2, "<=1": 1, "+inf": 1,
        }

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(0.5, 0.1))

    def test_snapshot_shape_and_sorting(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(0.2)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["counters"] == {"a": 2, "z": 1}
        assert snap["gauges"] == {"g": 7}
        assert snap["histograms"]["h"]["count"] == 1
        json.dumps(snap)  # must be JSON-ready as-is


class TestTraceRecorder:
    def test_writes_valid_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as trace:
            trace.emit("fork", site="0x0010", children=[1, 2])
            trace.emit("prune", site="0x0010", node=2)
        events = read_events(path)
        assert [event["event"] for event in events] == ["fork", "prune"]
        assert events[0]["children"] == [1, 2]
        assert all("wall" in event for event in events)
        assert trace.events_written == 2

    def test_wall_is_relative_to_open(self):
        clock = ManualClock(wall=100.0)
        sink = io.StringIO()
        trace = TraceRecorder(sink, clock=clock)
        clock.advance(1.5)
        trace.emit("step", cycle=1)
        event = json.loads(sink.getvalue())
        assert event["wall"] == pytest.approx(1.5)

    def test_non_json_fields_are_coerced(self):
        sink = io.StringIO()
        trace = TraceRecorder(sink)
        trace.emit("merge", sites={"b", "a"}, where=object())
        event = json.loads(sink.getvalue())
        assert event["sites"] == ["a", "b"]
        assert isinstance(event["where"], str)

    def test_file_like_sink_is_not_closed(self):
        sink = io.StringIO()
        with TraceRecorder(sink) as trace:
            trace.emit("step")
        assert not sink.closed


class TestProfiler:
    def test_span_accumulates_wall_and_cpu(self):
        clock = ManualClock()
        profiler = Profiler(clock)
        with profiler.span("explore"):
            clock.advance(2.0, cpu=1.0)
        with profiler.span("explore"):
            clock.advance(1.0, cpu=0.5)
        snap = profiler.snapshot()
        assert snap["explore"]["calls"] == 2
        assert snap["explore"]["wall_seconds"] == pytest.approx(3.0)
        assert snap["explore"]["cpu_seconds"] == pytest.approx(1.5)

    def test_nested_spans_key_by_path(self):
        clock = ManualClock()
        profiler = Profiler(clock)
        with profiler.span("repair"):
            clock.advance(1.0)
            with profiler.span("explore"):
                clock.advance(2.0)
        snap = profiler.snapshot()
        assert snap["repair/explore"]["wall_seconds"] == pytest.approx(2.0)
        # the parent includes the child's time (inclusive accounting)
        assert snap["repair"]["wall_seconds"] == pytest.approx(3.0)
        assert profiler.depth == 0

    def test_span_survives_exceptions(self):
        clock = ManualClock()
        profiler = Profiler(clock)
        with pytest.raises(RuntimeError):
            with profiler.span("explore"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        assert profiler.depth == 0
        assert profiler.snapshot()["explore"]["calls"] == 1


class TestObserver:
    def test_default_observer_is_null(self):
        assert Instruments().obs is NULL_OBSERVER
        assert not NO_INSTRUMENTS.obs.enabled
        tracker = TaintTracker(assemble(STRAIGHT_LINE), obs=None)
        assert tracker.obs is NULL_OBSERVER

    def test_null_observer_is_true_noop(self):
        null = NullObserver()
        null.emit("fork", site="x")
        null.counter("a").inc(5)
        null.gauge("g").set(3)
        null.histogram("h").observe(0.5)
        with null.span("explore"):
            pass
        snap = null.snapshot()
        assert snap["metrics"]["counters"] == {}
        assert snap["profile"] == {}
        # shared singletons: no per-call allocation on the disabled path
        assert null.counter("a") is null.counter("b")
        assert null.span("x") is null.span("y")

    def test_run_arms_and_disarms_the_observer(self, armed_run):
        observer = Observer()
        tracker, seen = armed_run(obs=observer)
        assert seen and all(armed.obs is observer for armed in seen)
        assert tracker.runner.soc.instruments is NO_INSTRUMENTS
        counters = observer.snapshot()["metrics"]["counters"]
        assert counters["sim.cycles"] == len(seen)

    def test_run_disarms_on_exception(self):
        tracker = TaintTracker(
            assemble(STRAIGHT_LINE),
            obs=Observer(),
            faults=FaultInjector(seed=1, rate=1.0, kinds=("gate_eval",)),
        )
        with pytest.raises(SimulationError):
            tracker.run()
        assert tracker.runner.soc.instruments is NO_INSTRUMENTS

    def test_observer_bundles_instruments(self, tmp_path):
        path = tmp_path / "t.jsonl"
        observer = Observer(trace=TraceRecorder(path))
        observer.counter("n").inc()
        observer.emit("step", cycle=0)
        with observer.span("check"):
            pass
        observer.close()
        snap = observer.snapshot()
        assert snap["metrics"]["counters"] == {"n": 1}
        assert "check" in snap["profile"]
        assert len(read_events(path)) == 1

    def test_emit_without_trace_is_noop(self):
        observer = Observer()  # no trace sink
        observer.emit("step", cycle=0)  # must not raise
        assert observer.trace is None
