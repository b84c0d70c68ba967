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
default whose every operation is a true no-op, so the hot paths guard
with ``if obs.enabled`` and pay nothing when nobody is watching.
Components take their observer as an explicit ``obs=`` argument; there
is no process-wide one::

    observer = Observer(trace=TraceRecorder("run.jsonl"))
    result = TaintTracker(program, obs=observer).run()
    print(observer.snapshot()["metrics"]["counters"]["tree.nodes"])

Two opt-in whole-net recorders sit beside the facade:
:mod:`repro.obs.provenance` (per-gate taint flows, for ``repro
explain``) and :mod:`repro.obs.timeline` (the flight recorder behind
``repro record``/``view``).  One run's observer, recorders and fault
injector travel together as an :class:`Instruments` value, which the
tracker arms on its own SoC for the duration of ``run()``.  Per-layer
timing of a full analysis is not recorded in-process:
``verdictbench/run.py --trace 1`` wraps public functions from outside
``src/`` and attributes the wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

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
)
from repro.obs.timeline import (
    Timeline,
    TimelineMarker,
    TimelineRecorder,
    load_timeline,
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

if TYPE_CHECKING:
    from repro.resilience.faults import FaultInjector


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


@dataclass(frozen=True)
class Instruments:
    """Everything that watches or perturbs one run: the tracker arms it
    on its SoC (:meth:`repro.sim.soc.SoC.arm`), where the SoC's steps
    and the circuit's passes read it.

    *obs* counts and traces, *provenance* records per-gate taint flows,
    *timeline* records one frame per cycle, and *faults* injects seeded
    faults.  The default value watches nothing.
    """

    obs: object = NULL_OBSERVER
    provenance: Optional[ProvenanceRecorder] = None
    timeline: Optional[TimelineRecorder] = None
    faults: Optional["FaultInjector"] = None

    @property
    def needs_all_nets(self) -> bool:
        """True when a recorder reads nets inside the mapped cuts, so
        passes must run the every-net plan, which writes every
        gate-driven net with its per-gate code."""
        return self.provenance is not None or self.timeline is not None


NO_INSTRUMENTS = Instruments()


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
    "Timeline",
    "TimelineMarker",
    "TimelineRecorder",
    "load_timeline",
    "save_timeline",
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "Instruments",
    "NO_INSTRUMENTS",
]
