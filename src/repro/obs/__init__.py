"""``repro.obs`` -- dependency-free observability for the GLIFT pipeline.

Three instruments behind one facade:

* :mod:`repro.obs.trace`    -- structured JSONL event tracing
  (``fork``/``merge``/``prune``/``widen``/``violation``/``step``/
  ``transform_applied``/``reverify``);
* :mod:`repro.obs.metrics`  -- monotonic counters, gauges and histograms
  with a ``snapshot() -> dict`` API;
* :mod:`repro.obs.profiler` -- nestable ``span("explore")`` phase timing
  with wall and CPU seconds.

An :class:`Observer` bundles the three; :data:`NULL_OBSERVER` is the
always-installed default whose every operation is a true no-op, so the
hot paths guard with ``if obs.enabled`` and pay nothing when nobody is
watching.  Components accept an explicit ``obs=`` argument and fall back
to the process-wide current observer::

    observer = Observer(trace=TraceRecorder("run.jsonl"))
    with observe(observer):
        result = TaintTracker(program).run()
    print(observer.snapshot()["metrics"]["counters"]["tree.nodes"])

Two opt-in whole-net recorders sit beside the facade, each installed
process-wide: :mod:`repro.obs.provenance` (per-gate taint flows, for
``repro explain``) and :mod:`repro.obs.timeline` (the flight recorder
behind ``repro record``/``view``).  Per-layer timing of a full analysis
is not recorded in-process: ``verdictbench/run.py --trace 1`` wraps
public functions from outside ``src/`` and attributes the wall time.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Sequence

from repro.obs.clock import CLOCK, Clock, ManualClock
from repro.obs.metrics import (
    Counter,
    FRACTION_BOUNDS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.exposition import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    escape_label_value,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.profiler import Profiler
from repro.obs.provenance import (
    FlowEdge,
    FlowLeaf,
    FlowSlice,
    ProvenanceRecorder,
    explain_violation,
    get_recorder,
    install_recorder,
    record_provenance,
)
from repro.obs.timeline import (
    Timeline,
    TimelineMarker,
    TimelineRecorder,
    get_timeline,
    install_timeline,
    load_timeline,
    record_timeline,
    save_timeline,
)
from repro.obs.trace import (
    CORRELATION_FIELDS,
    EVENT_SCHEMAS,
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    lint_trace,
    read_events,
)


class Observer:
    """A live observer: tracing, metrics and profiling enabled."""

    enabled = True

    def __init__(
        self,
        trace: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[Profiler] = None,
        clock: Clock = CLOCK,
    ):
        self.trace = trace
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = (
            profiler if profiler is not None else Profiler(clock)
        )
        self.clock = clock

    # -- tracing -------------------------------------------------------
    def emit(self, event: str, **fields) -> None:
        if self.trace is not None:
            self.trace.emit(event, **fields)

    # -- metrics -------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(
        self, name: str, bounds: Sequence[float] = FRACTION_BOUNDS
    ) -> Histogram:
        return self.metrics.histogram(name, bounds)

    # -- profiling -----------------------------------------------------
    def span(self, name: str):
        return self.profiler.span(name)

    # -- lifecycle -----------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "metrics": self.metrics.snapshot(),
            "profile": self.profiler.snapshot(),
        }

    def export_state(self) -> dict:
        """Checkpointable observer state: metric values, span stats, and
        the trace sequence cursor, so a resumed run's snapshot matches
        the uninterrupted run's."""
        return {
            "metrics": self.metrics.export_state(),
            "profile": self.profiler.export_state(),
            "trace_seq": (
                self.trace.sequence if self.trace is not None else 0
            ),
        }

    def restore_state(self, state: dict) -> None:
        self.metrics.restore_state(state.get("metrics", {}))
        self.profiler.restore_state(state.get("profile", {}))
        if self.trace is not None:
            self.trace.set_sequence(
                max(self.trace.sequence, state.get("trace_seq", 0))
            )

    def close(self) -> None:
        if self.trace is not None:
            self.trace.close()


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class _NullInstrument:
    """Accepts every Counter/Gauge/Histogram mutation and records nothing."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def update_max(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()


class NullObserver:
    """The disabled observer: every operation is a shared no-op."""

    enabled = False
    trace = None

    def emit(self, event: str, **fields) -> None:
        pass

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def snapshot(self) -> dict:
        return {
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            "profile": {},
        }

    def export_state(self) -> None:
        return None

    def restore_state(self, state) -> None:
        pass

    def close(self) -> None:
        pass


NULL_OBSERVER = NullObserver()

_current: object = NULL_OBSERVER


def get_observer():
    """The process-wide current observer (defaults to the no-op one)."""
    return _current


def set_observer(observer) -> object:
    """Install *observer* globally; returns the previous one."""
    global _current
    previous = _current
    _current = observer if observer is not None else NULL_OBSERVER
    return previous


@contextmanager
def observe(observer: Observer):
    """Install *observer* for the duration of a ``with`` block."""
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)


__all__ = [
    "CLOCK",
    "Clock",
    "ManualClock",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "FRACTION_BOUNDS",
    "Profiler",
    "TraceRecorder",
    "read_events",
    "lint_trace",
    "CORRELATION_FIELDS",
    "EVENT_SCHEMAS",
    "TRACE_SCHEMA_VERSION",
    "PROMETHEUS_CONTENT_TYPE",
    "escape_label_value",
    "render_prometheus",
    "sanitize_metric_name",
    "ProvenanceRecorder",
    "FlowEdge",
    "FlowLeaf",
    "FlowSlice",
    "explain_violation",
    "get_recorder",
    "install_recorder",
    "record_provenance",
    "Timeline",
    "TimelineMarker",
    "TimelineRecorder",
    "get_timeline",
    "install_timeline",
    "load_timeline",
    "record_timeline",
    "save_timeline",
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "get_observer",
    "set_observer",
    "observe",
]
