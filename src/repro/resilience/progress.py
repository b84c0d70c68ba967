"""Live exploration progress: periodic snapshots with a bounded ETA.

A :class:`ProgressEstimator` rides along with a
:class:`~repro.core.TaintTracker` and periodically distils the
exploration state -- paths explored, frontier size, cycles simulated,
merged states, live violation count, per-budget-axis consumption -- into
a :class:`ProgressSnapshot`.  The tracker drives it cooperatively from
the same two boundaries the budget uses (worklist pops and instruction
fetches), throttled twice over so an armed estimator costs well under
the benched 5%% overhead ceiling: a call counter gates the hot fetch
path (:data:`TICK_CHECK_INTERVAL` boundaries between wall-clock probes,
the :data:`~repro.resilience.budget.RSS_CHECK_INTERVAL` pattern) and a
wall-clock interval gates actual snapshots.

Each snapshot derives two forward-looking numbers:

* **rate** -- paths explored per second over a sliding window of recent
  samples, so a long analysis's early warm-up does not poison the
  estimate forever;
* **ETA** -- ``pending / rate``, clamped by the budget deadline's
  remaining seconds when one is set and capped at
  :data:`ETA_CAP_SECONDS` (an estimate beyond a day is noise, not
  information).  ``None`` whenever the rate is not yet established.

The overall ``fraction`` is a bounded 0..1 completion estimate: the max
of the frontier estimate (``done / (done + in-flight + pending)``) and
every budget axis's consumed fraction, clamped monotone non-decreasing
within a run -- which is exactly what the v4 trace lint and the service
SSE stream assert.

Snapshots fan out three ways, all optional: a ``progress`` trace event
through the tracker's observer (v4 schema), tracker gauges on the
metrics registry, and a *sink* callback -- the service worker's sink
serialises the latest snapshot into its heartbeat JSON document, which
is how per-job progress reaches the supervisor, the job record, and
ultimately ``GET /jobs/<id>/events`` and ``repro watch``.

Exploration determinism is untouched: the estimator only reads tracker
state, and nothing downstream of it feeds back into exploration order.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.obs.clock import CLOCK, Clock

#: Schema tag for the snapshot's ``to_document`` JSON form (the worker
#: heartbeat document embeds it; bump on breaking shape changes).
PROGRESS_SCHEMA = 1

#: Default minimum seconds between snapshots.
DEFAULT_INTERVAL = 0.25

#: Instruction-fetch boundaries between wall-clock probes on the hot
#: path (the clock read is the only non-trivial cost of an idle tick).
TICK_CHECK_INTERVAL = 256

#: ETA estimates are clamped here (one day): beyond it they carry no
#: information and render as garbage in a TTY progress line.
ETA_CAP_SECONDS = 86_400.0

#: How many ``(wall, paths)`` samples the rate window keeps.
RATE_WINDOW = 32


@dataclass
class ProgressSnapshot:
    """One point-in-time distillation of exploration state."""

    unix: float
    paths: int
    pending: int
    cycles: int
    merged_states: int
    violations: int
    #: consumed fraction (0..1) per *bounded* budget axis
    budget: Dict[str, float]
    #: overall bounded completion estimate, monotone within a run
    fraction: float
    eta_seconds: Optional[float] = None
    rate_paths_per_s: Optional[float] = None

    def to_document(self) -> dict:
        """JSON-ready form (heartbeat documents, SSE frames)."""
        return {
            "schema": PROGRESS_SCHEMA,
            "unix": self.unix,
            "paths": self.paths,
            "pending": self.pending,
            "cycles": self.cycles,
            "merged_states": self.merged_states,
            "violations": self.violations,
            "budget": dict(self.budget),
            "fraction": self.fraction,
            "eta_seconds": self.eta_seconds,
            "rate_paths_per_s": self.rate_paths_per_s,
        }

    @classmethod
    def from_document(cls, document: dict) -> "ProgressSnapshot":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in document.items() if k in known})


class ProgressEstimator:
    """Periodic exploration-progress snapshots for one tracker run.

    Attach via ``TaintTracker(..., progress=estimator)``; the tracker
    calls :meth:`attach` itself and then drives :meth:`update` (worklist
    pops, interval-throttled) and :meth:`tick` (fetch boundaries,
    counter- then interval-throttled).  ``sink`` receives every
    :class:`ProgressSnapshot` taken.
    """

    def __init__(
        self,
        interval_seconds: float = DEFAULT_INTERVAL,
        sink: Optional[Callable[[ProgressSnapshot], None]] = None,
        clock: Clock = CLOCK,
    ):
        self.interval_seconds = max(0.0, float(interval_seconds))
        self.sink = sink
        self.clock = clock
        self.latest: Optional[ProgressSnapshot] = None
        self.snapshots_taken = 0
        self._tracker = None
        self._ticks = 0
        self._last_wall: Optional[float] = None
        self._samples: Deque[Tuple[float, int]] = deque(maxlen=RATE_WINDOW)
        #: monotone clamp for the published fraction
        self._fraction_mark = 0.0

    # ------------------------------------------------------------------
    def attach(self, tracker) -> None:
        """Bind to *tracker* (called from ``TaintTracker.__init__``)."""
        self._tracker = tracker

    # ------------------------------------------------------------------
    # Tracker-driven hooks
    # ------------------------------------------------------------------
    def tick(self, pending: int) -> None:
        """Hot-path hook (instruction-fetch boundaries): a counter gates
        the clock probe, the clock gates the snapshot."""
        self._ticks += 1
        if self._ticks % TICK_CHECK_INTERVAL:
            return
        self.update(pending)

    def update(
        self, pending: int, force: bool = False, done: bool = False
    ) -> None:
        """Cool-path hook (worklist pops, run completion): snapshot if
        the interval elapsed, or unconditionally when *force*.  ``done``
        marks the run-completion snapshot: exploration has ended, so no
        path is in flight and a drained frontier means 100%."""
        if self._tracker is None:
            return
        now = self.clock.wall()
        if (
            not force
            and self._last_wall is not None
            and now - self._last_wall < self.interval_seconds
        ):
            return
        self._snapshot(pending, now, done=done)

    # ------------------------------------------------------------------
    def _budget_fractions(self, stats, merged_states: int) -> Dict[str, float]:
        budget = self._tracker.budget
        fractions: Dict[str, float] = {}
        if budget.max_paths:
            fractions["paths"] = min(1.0, stats.paths / budget.max_paths)
        if budget.max_cycles:
            fractions["cycles"] = min(
                1.0, stats.cycles_simulated / budget.max_cycles
            )
        if budget.max_merged_states:
            fractions["merged_states"] = min(
                1.0, merged_states / budget.max_merged_states
            )
        if budget.deadline_seconds:
            fractions["deadline"] = min(
                1.0, budget.elapsed_seconds() / budget.deadline_seconds
            )
        # max_rss is deliberately absent: probing RSS is a syscall, and
        # consumed memory is not progress toward completion anyway.
        return fractions

    def _rate(self, now: float, paths: int) -> Optional[float]:
        self._samples.append((now, paths))
        first_wall, first_paths = self._samples[0]
        span = now - first_wall
        if span <= 0.0 or len(self._samples) < 2:
            return None
        delta = paths - first_paths
        if delta <= 0:
            return 0.0
        return delta / span

    def _snapshot(self, pending: int, now: float, done: bool = False) -> None:
        tracker = self._tracker
        stats = tracker.stats
        merged_states = tracker._merged_states
        violations = len(tracker.checker.violations())
        fractions = self._budget_fractions(stats, merged_states)

        # Frontier estimate: the popped item being explored is neither
        # done nor pending, so done = paths - 1 while a path is open
        # (none is after the run: a drained frontier then means 100%).
        in_flight = 0 if done else 1
        total = stats.paths + pending
        frontier = (
            max(0, stats.paths - in_flight) / total if total else 0.0
        )
        fraction = max([frontier] + list(fractions.values()))
        fraction = min(1.0, max(self._fraction_mark, fraction))
        self._fraction_mark = fraction

        rate = self._rate(now, stats.paths)
        eta: Optional[float] = None
        if rate is not None and rate > 0.0:
            eta = pending / rate
        budget = tracker.budget
        if budget.deadline_seconds is not None:
            remaining = max(
                0.0, budget.deadline_seconds - budget.elapsed_seconds()
            )
            eta = remaining if eta is None else min(eta, remaining)
        if eta is not None:
            eta = min(eta, ETA_CAP_SECONDS)

        snapshot = ProgressSnapshot(
            unix=time.time(),
            paths=stats.paths,
            pending=pending,
            cycles=stats.cycles_simulated,
            merged_states=merged_states,
            violations=violations,
            budget=fractions,
            fraction=round(fraction, 6),
            eta_seconds=round(eta, 3) if eta is not None else None,
            rate_paths_per_s=(
                round(rate, 6) if rate is not None else None
            ),
        )
        self.latest = snapshot
        self.snapshots_taken += 1
        self._last_wall = now

        obs = tracker.obs
        if obs.enabled:
            obs.emit(
                "progress",
                paths=snapshot.paths,
                pending=snapshot.pending,
                cycles=snapshot.cycles,
                merged_states=snapshot.merged_states,
                violations=snapshot.violations,
                fraction=snapshot.fraction,
                eta_seconds=snapshot.eta_seconds,
                rate_paths_per_s=snapshot.rate_paths_per_s,
                budget=snapshot.budget,
            )
            obs.gauge("tracker.progress_fraction").set(snapshot.fraction)
            obs.gauge("tracker.progress_pending").set(snapshot.pending)
        if self.sink is not None:
            self.sink(snapshot)
