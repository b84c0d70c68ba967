"""The supervised analysis daemon: journal + supervisor + REST glue.

:class:`AnalysisService` composes the durable :class:`JobJournal`, the
process :class:`Supervisor` and the HTTP front end into one lifecycle:

* **submit** journals the job (fsync) *before* acknowledging, so an
  accepted job survives ``kill -9`` of the daemon;
* **tick** reaps worker ends, classifies them through the
  :class:`RetryPolicy` (verdict / retry-with-backoff / fail-fast) and
  launches eligible work into free slots;
* **recovery** replays the journal on start and moves jobs that were
  ``running`` when the daemon died to ``retrying`` -- their next attempt
  resumes from the per-job checkpoint, and exploration determinism makes
  the eventual verdict identical to an uninterrupted run;
* **backpressure and shedding**: the queue is bounded (submit raises
  :class:`QueueFull` -> HTTP 429); above the shed threshold newly
  *launched* jobs get clamped budgets, trading ``inconclusive`` verdicts
  for queue survival -- degradation is sound (over-taint only adds
  violations), collapse is not;
* **drain** (SIGINT/SIGTERM): stop accepting, SIGTERM workers (they
  checkpoint and exit 130), journal everything, compact, exit 130.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.obs import Observer
from repro.resilience.budget import AnalysisBudget
from repro.resilience.errors import EXIT_INTERRUPTED
from repro.service.jobs import (
    JobRecord,
    TERMINAL_STATES,
    VERDICT_STATES,
    new_job,
    transition,
)
from repro.service.journal import JobJournal
from repro.service.retry import RetryPolicy
from repro.service.supervisor import Supervisor, WorkerEnd


#: Histogram bounds (seconds) for service latencies: submit-fsync sits
#: in the low milliseconds, job turnaround in seconds-to-minutes.
TIME_BOUNDS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
)


class QueueFull(RuntimeError):
    """The bounded queue rejected a submission (HTTP 429)."""


class Draining(RuntimeError):
    """The daemon is shutting down and no longer accepts work (503)."""


@dataclass
class ServiceConfig:
    root: str = ".repro-service"
    host: str = "127.0.0.1"
    port: int = 8437
    workers: int = 2
    queue_capacity: int = 64
    #: backlog size above which launches get shed budgets (default:
    #: three quarters of capacity).
    shed_after: Optional[int] = None
    max_attempts: int = 4
    checkpoint_every: int = 8
    heartbeat_timeout: float = 15.0
    heartbeat_interval: float = 0.5
    drain_grace: float = 10.0
    poll_interval: float = 0.05
    compact_every: int = 256
    #: budget for submissions that bring none (empty: every axis keeps
    #: the :class:`AnalysisBudget` default)
    default_budget: Dict[str, Any] = field(default_factory=dict)
    #: budget clamps applied to launches while shedding.
    shed_budget: Dict[str, Any] = field(
        default_factory=lambda: {"max_paths": 64, "deadline_seconds": 10.0}
    )
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    @property
    def shed_threshold(self) -> int:
        if self.shed_after is not None:
            return self.shed_after
        return max(1, (self.queue_capacity * 3) // 4)


class AnalysisService:
    """Thread-safe facade over jobs, journal, supervisor and server."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        observer: Optional[Observer] = None,
        spawn_command: Optional[Callable[[str], List[str]]] = None,
    ):
        self.config = config or ServiceConfig()
        # The daemon always keeps live metrics: /metrics and
        # ``repro jobs --stats`` must have numbers to report.
        self.obs = observer if observer is not None else Observer()
        self.root = Path(self.config.root)
        self.journal = JobJournal(self.root)
        self.supervisor = Supervisor(
            workers=self.config.workers,
            heartbeat_timeout=self.config.heartbeat_timeout,
        )
        if spawn_command is not None:
            self.supervisor.spawn_command = spawn_command
        self.jobs: Dict[str, JobRecord] = {}
        self.lock = threading.RLock()
        self.draining = False
        self.recovered: List[str] = []
        self.started_unix = time.time()
        self._stop = threading.Event()
        self._server = None
        self._server_thread = None
        #: per-tick hooks (the chaos harness registers here)
        self.on_tick: List[Callable[["AnalysisService"], None]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Replay the journal, run crash recovery, open for appends."""
        with self.lock:
            self.jobs = self.journal.replay()
            for record in sorted(self.jobs.values(), key=lambda r: r.seq):
                if record.state == "running":
                    # In flight when the daemon died: resume from the
                    # job's checkpoint on the next launch.  The crash is
                    # the daemon's fault, so it costs no attempt.
                    transition(
                        record,
                        "retrying",
                        note="daemon restart recovery",
                        not_before=0.0,
                    )
                    self.journal.append(record)
                    self.recovered.append(record.job_id)
            self.journal.open_log()
        self._emit(
            "service_started",
            jobs=len(self.jobs),
            recovered=len(self.recovered),
        )

    def start_server(self) -> str:
        """Bind the REST server (port 0 picks a free port) and publish
        the address in ``<root>/address``."""
        from repro.service.server import ServiceHTTPServer

        self._server = ServiceHTTPServer(
            (self.config.host, self.config.port), self
        )
        host, port = self._server.server_address[:2]
        url = f"http://{host}:{port}"
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        self._server_thread.start()
        (self.root / "address").write_text(url + "\n")
        return url

    def stop_server(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    def request_stop(self, reason: str = "stop") -> None:
        """Signal-handler safe: ask the run loop to drain and exit."""
        self.draining = True
        self._stop.set()

    def run(self, install_signals: bool = True) -> int:
        """Serve until SIGINT/SIGTERM, then drain.  Returns 130."""
        if install_signals:
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    signal.signal(
                        sig,
                        lambda signum, frame: self.request_stop(
                            signal.Signals(signum).name
                        ),
                    )
                except ValueError:
                    pass  # not the main thread
        while not self._stop.is_set():
            self.tick()
            self._stop.wait(self.config.poll_interval)
        self.shutdown()
        return EXIT_INTERRUPTED

    def shutdown(self) -> None:
        """Cooperative drain: refuse new work, checkpoint the running
        jobs, journal every outcome, compact, close."""
        self.draining = True
        self._emit("service_drain", jobs=len(self.supervisor.live))
        for end in self.supervisor.drain(self.config.drain_grace):
            self._on_worker_end(end)
        self.stop_server()
        with self.lock:
            self.journal.compact(self.jobs)
            self.journal.close()

    # ------------------------------------------------------------------
    # Submission / queries (called from HTTP handler threads)
    # ------------------------------------------------------------------
    def backlog(self) -> int:
        return sum(
            1 for r in self.jobs.values() if r.state not in TERMINAL_STATES
        )

    def submit(
        self,
        *,
        source: str,
        name: str = "submission",
        policy: str = "untrusted",
        max_cycles: Optional[int] = None,
        budget: Optional[Dict[str, Any]] = None,
        fault_injection: Optional[Dict[str, Any]] = None,
    ) -> JobRecord:
        if policy not in ("untrusted", "secret"):
            raise ValueError(f"unknown policy {policy!r} (untrusted|secret)")
        max_cycles = int(
            AnalysisBudget.max_cycles if max_cycles is None else max_cycles
        )
        with self.lock:
            if self.draining:
                raise Draining("service is draining; resubmit elsewhere")
            if self.backlog() >= self.config.queue_capacity:
                raise QueueFull(
                    f"queue full ({self.config.queue_capacity} jobs in "
                    "flight); retry after a verdict frees a slot"
                )
            record = new_job(
                seq=self.journal.next_seq,
                name=name,
                source=source,
                policy=policy,
                max_cycles=max_cycles,
                budget=dict(
                    budget
                    if budget is not None
                    else self.config.default_budget
                ),
                max_attempts=self.config.max_attempts,
                fault_injection=fault_injection,
            )
            self.jobs[record.job_id] = record
            fsync_start = time.perf_counter()
            self.journal.append(record)  # fsync: the 202 is now durable
            fsync_seconds = time.perf_counter() - fsync_start
        self._emit("job_submitted", job=record.job_id, name=record.name)
        self._counter("service.jobs_submitted")
        self._observe("service.submit_fsync_seconds", fsync_seconds)
        return record

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self.lock:
            return self.jobs.get(job_id)

    def list_jobs(self) -> List[Dict[str, Any]]:
        with self.lock:
            ordered = sorted(self.jobs.values(), key=lambda r: r.seq)
            return [record.summary() for record in ordered]

    def report(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The verdict document a finished worker wrote, if any."""
        record = self.get(job_id)
        if record is None:
            return None
        result = record.artifacts.get("result")
        if not result or not Path(result).exists():
            return None
        if not record.terminal:
            return None
        import json

        try:
            return json.loads(Path(result).read_text())
        except ValueError:
            return None

    def job_events_snapshot(self, job_id: str) -> Optional[Dict[str, Any]]:
        """A consistent point-in-time view of one job for the SSE
        stream: full transition history, latest progress, terminality.
        Copied under the lock so the streaming thread never reads a
        record mid-mutation."""
        with self.lock:
            record = self.jobs.get(job_id)
            if record is None:
                return None
            return {
                "history": [dict(entry) for entry in record.history],
                "progress": (
                    dict(record.progress) if record.progress else None
                ),
                "terminal": record.terminal,
                "summary": record.summary(),
            }

    def health(self) -> Dict[str, Any]:
        with self.lock:
            counts: Dict[str, int] = {}
            for record in self.jobs.values():
                counts[record.state] = counts.get(record.state, 0) + 1
            return {
                "status": "ok",
                "uptime_seconds": time.time() - self.started_unix,
                "draining": self.draining,
                "workers": self.config.workers,
                "workers_live": len(self.supervisor.live),
                "backlog": self.backlog(),
                "queue_capacity": self.config.queue_capacity,
                "shedding": self.backlog() > self.config.shed_threshold,
                "jobs": counts,
            }

    # ------------------------------------------------------------------
    # Telemetry (GET /metrics, GET /statsz, repro jobs --stats)
    # ------------------------------------------------------------------
    def fleet_progress(self) -> Dict[str, Any]:
        """Fleet-level progress over the running jobs: the summed
        pending exploration frontier, the oldest running job's age, and
        each running job's latest progress document."""
        now = time.time()
        with self.lock:
            running = [
                record
                for record in self.jobs.values()
                if record.state == "running"
            ]
            per_job: Dict[str, Any] = {}
            paths_in_flight = 0
            for record in running:
                if record.progress:
                    per_job[record.job_id] = dict(record.progress)
                    paths_in_flight += int(
                        record.progress.get("pending") or 0
                    )
            oldest = max(
                (
                    now - record.updated_unix
                    for record in running
                    if record.updated_unix
                ),
                default=0.0,
            )
        return {
            "running": per_job,
            "paths_in_flight": paths_in_flight,
            "oldest_running_job_age_seconds": oldest,
        }

    def _scrape_gauges(self):
        """Scrape-time gauges derived from job state rather than
        accumulated: queue depth, per-state population, worker count,
        fleet progress."""
        health = self.health()
        fleet = self.fleet_progress()
        entries = [
            (
                "service.backlog",
                health["backlog"],
                None,
                "jobs not yet terminal (queue depth)",
            ),
            (
                "service.queue_capacity",
                health["queue_capacity"],
                None,
                "bounded queue size; submissions beyond it get 429",
            ),
            (
                "service.workers_live",
                health["workers_live"],
                None,
                "worker processes currently running",
            ),
            (
                "service.workers_configured",
                health["workers"],
                None,
                "configured worker slots",
            ),
            (
                "service.draining",
                health["draining"],
                None,
                "1 while the daemon is shutting down",
            ),
            (
                "service.shedding",
                health["shedding"],
                None,
                "1 while launches get shed (clamped) budgets",
            ),
            (
                "service.uptime_seconds",
                health["uptime_seconds"],
                None,
                "seconds since the daemon started",
            ),
            (
                "service.paths_in_flight",
                fleet["paths_in_flight"],
                None,
                "pending exploration frontier summed over running jobs",
            ),
            (
                "service.oldest_running_job_age_seconds",
                fleet["oldest_running_job_age_seconds"],
                None,
                "age of the longest-running in-flight job (0 when idle)",
            ),
        ]
        for state in sorted(health["jobs"]):
            entries.append(
                (
                    "service.jobs_state",
                    health["jobs"][state],
                    {"state": state},
                    "jobs currently in each lifecycle state",
                )
            )
        return entries

    def _registry(self):
        metrics = getattr(self.obs, "metrics", None)
        if metrics is None:  # a NullObserver was injected explicitly
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        return metrics

    def metrics_text(self) -> str:
        """The Prometheus text-exposition payload for ``GET /metrics``."""
        from repro.obs.exposition import render_prometheus

        return render_prometheus(
            self._registry(), extra_gauges=self._scrape_gauges()
        )

    def stats(self) -> Dict[str, Any]:
        """The same telemetry as JSON (``GET /statsz``, ``jobs --stats``)."""
        return {
            "health": self.health(),
            "metrics": self._registry().snapshot(),
            "progress": self.fleet_progress(),
        }

    def readiness(self):
        with self.lock:
            if self.draining:
                return False, {"ready": False, "reason": "draining"}
            if self.backlog() >= self.config.queue_capacity:
                return False, {"ready": False, "reason": "queue full"}
        return True, {"ready": True}

    # ------------------------------------------------------------------
    # The supervision loop
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One supervision round: reap, classify, launch, ingest."""
        for end in self.supervisor.poll():
            self._on_worker_end(end)
        if not self.draining:
            self._launch_eligible()
        self._ingest_progress()
        for hook in list(self.on_tick):
            hook(self)

    def _ingest_progress(self) -> None:
        """Parse every live worker's heartbeat progress document onto
        its job record (in memory only: progress is ephemeral telemetry;
        journaling every beat would turn the fsync'd log into a spam
        channel).  Bare-touch heartbeats and torn files parse to None
        and leave the record untouched."""
        for job_id, handle in list(self.supervisor.live.items()):
            document = handle.progress()
            if not document:
                continue
            if document.get("job_id") not in (None, job_id):
                continue  # stale file from an artifact-dir reuse
            snapshot = document.get("progress")
            if not isinstance(snapshot, dict):
                continue  # alive, but no snapshot taken yet
            merged: Dict[str, Any] = {
                "attempt": document.get("attempt"),
                "run_id": document.get("run_id"),
                "unix": document.get("unix"),
            }
            merged.update(snapshot)
            with self.lock:
                record = self.jobs.get(job_id)
                if record is not None and record.state == "running":
                    record.progress = merged

    def _eligible(self, now: float) -> List[JobRecord]:
        runnable = [
            record
            for record in self.jobs.values()
            if record.job_id not in self.supervisor.live
            and (
                record.state == "queued"
                or (record.state == "retrying" and now >= record.not_before)
            )
        ]
        return sorted(runnable, key=lambda r: r.seq)

    def _launch_eligible(self) -> None:
        now = time.time()
        with self.lock:
            for record in self._eligible(now)[: self.supervisor.free_slots]:
                self._launch(record, now)

    def _launch(self, record: JobRecord, now: float) -> None:
        art = self.root / "artifacts" / record.job_id
        art.mkdir(parents=True, exist_ok=True)
        budget = dict(record.budget)
        shed = self.backlog() > self.config.shed_threshold
        if shed:
            # Overload: clamp toward fast inconclusive degradation.
            for axis, clamp in self.config.shed_budget.items():
                current = budget.get(axis)
                budget[axis] = (
                    clamp if current is None else min(current, clamp)
                )
        spec = {
            "job_id": record.job_id,
            "name": record.name,
            "source": record.source,
            "policy": record.policy,
            "max_cycles": record.max_cycles,
            "budget": budget,
            "attempt": record.attempts + 1,
            "checkpoint": str(art / "checkpoint.ckpt"),
            "checkpoint_every": self.config.checkpoint_every,
            "heartbeat": str(art / "heartbeat"),
            "heartbeat_interval": self.config.heartbeat_interval,
            "result": str(art / "result.json"),
            "trace": str(art / "trace.jsonl"),
            "fault_injection": record.fault_injection,
            "spec_path": str(art / "spec.json"),
        }
        # A stale result document from a previous attempt must not be
        # read as this attempt's verdict: the worker rewrites it, but
        # only if it gets far enough to run at all.  Same for the
        # heartbeat: a previous attempt's progress document must not be
        # ingested as this attempt's (liveness falls back to the spawn
        # wall-clock until the new worker's first beat).
        for stale in (spec["result"], spec["heartbeat"]):
            try:
                Path(stale).unlink()
            except OSError:
                pass
        transition(
            record,
            "running",
            note="shed launch" if shed else "launch",
            now=now,
            attempts=record.attempts + 1,
            shed=record.shed or shed,
            artifacts={
                "dir": str(art),
                "checkpoint": spec["checkpoint"],
                "result": spec["result"],
                "heartbeat": spec["heartbeat"],
                "trace": spec["trace"],
            },
            progress=None,  # a fresh attempt starts a fresh stream
        )
        self.journal.append(record)
        self.supervisor.spawn(spec)
        self._emit(
            "job_started",
            job=record.job_id,
            attempt=record.attempts,
            shed=shed,
        )
        self._counter("service.jobs_started")
        if shed:
            self._counter("service.jobs_shed")

    # ------------------------------------------------------------------
    def _on_worker_end(self, end: WorkerEnd) -> None:
        import json

        with self.lock:
            record = self.jobs.get(end.handle.job_id)
            if record is None or record.state != "running":
                return
            error = None
            result_verdict = None
            result_path = Path(end.handle.spec["result"])
            if result_path.exists():
                try:
                    document = json.loads(result_path.read_text())
                    error = document.get("error")
                    result_verdict = document.get("verdict")
                except ValueError:
                    pass  # torn write cannot happen (atomic rename)
            outcome = self.config.retry.classify(
                attempts=record.attempts,
                exit_code=end.exit_code,
                error=error,
                crashed=end.crashed,
                reason=end.reason,
                result_verdict=result_verdict,
                max_attempts=record.max_attempts,
            )
            if end.crashed:
                self._counter("service.workers_crashed")
                self._emit(
                    "worker_killed", job=record.job_id, reason=end.reason
                )
            if outcome.kind == "verdict":
                transition(
                    record,
                    VERDICT_STATES[outcome.verdict],
                    note=outcome.reason,
                    verdict=outcome.verdict,
                    exit_code=outcome.exit_code,
                    error=None,
                )
                self._counter("service.jobs_finished")
            elif outcome.kind == "retry":
                delay = self.config.retry.backoff_seconds(
                    record.job_id, record.attempts
                )
                transition(
                    record,
                    "retrying",
                    note=f"{outcome.reason}; backoff {delay:.2f}s",
                    not_before=time.time() + delay,
                    error=error,
                    exit_code=outcome.exit_code,
                )
                self._counter("service.jobs_retried")
                self._emit(
                    "job_retrying",
                    job=record.job_id,
                    attempt=record.attempts,
                    delay=round(delay, 3),
                    reason=outcome.reason,
                )
            else:
                transition(
                    record,
                    "failed",
                    note=outcome.reason,
                    error=error,
                    exit_code=outcome.exit_code,
                )
                self._counter("service.jobs_failed")
            self.journal.append(record)
            if record.terminal and record.submitted_unix:
                self._observe(
                    "service.turnaround_seconds",
                    max(0.0, time.time() - record.submitted_unix),
                )
            if record.terminal:
                self._emit(
                    "job_finished",
                    job=record.job_id,
                    state=record.state,
                    verdict=record.verdict,
                    exit_code=record.exit_code,
                    attempts=record.attempts,
                )
            if self.journal.appended >= self.config.compact_every:
                self.journal.compact(self.jobs)
                self.journal.appended = 0
                self.journal.open_log()

    # ------------------------------------------------------------------
    def _emit(self, event: str, **fields) -> None:
        if self.obs.enabled:
            self.obs.emit(event, **fields)

    def _counter(self, name: str) -> None:
        if self.obs.enabled:
            self.obs.metrics.counter(name).inc()

    def _observe(self, name: str, seconds: float) -> None:
        if self.obs.enabled:
            self.obs.histogram(name, TIME_BOUNDS).observe(seconds)
