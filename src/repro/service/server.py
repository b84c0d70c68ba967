"""Minimal REST surface over :mod:`http.server`.

Endpoints (JSON in, JSON out)::

    POST /jobs              submit {"source": ..., "name", "policy",
                            "max_cycles", "budget", "fault_injection"}
                            -> 202 {"id": ...}
                            (or {"workload": "intAVG"} for a registry
                            name); other keys are ignored; 429 when the
                            queue is full, 503 when draining, 400/413
                            for bad input
    GET  /jobs              every job's summary, newest last
    GET  /jobs/<id>         the full job record (minus the source body)
    GET  /jobs/<id>/report  the verdict document once terminal
                            (202 + state while still in flight)
    GET  /jobs/<id>/events  live progress stream (``text/event-stream``):
                            replays the job's state transitions as
                            ``state`` frames, then streams ``progress``
                            frames as the worker's heartbeat documents
                            change, ``: keepalive`` comments while idle,
                            and one final ``end`` frame (the job
                            summary) when the job reaches a terminal
                            state -- then closes.  Each frame is
                            ``event: <type>`` + ``data: <one JSON
                            object>``.
    GET  /healthz           liveness: 200 while the daemon runs
    GET  /readyz            readiness: 503 while draining or saturated
    GET  /metrics           Prometheus text exposition (queue depth,
                            per-state job gauges, retry counters,
                            submit-fsync / turnaround histograms)
    GET  /statsz            the same telemetry as one JSON document

The handler threads only ever call the thread-safe
:class:`~repro.service.daemon.AnalysisService` facade; all job state
mutation happens under the service lock, and durability (the journal
fsync) is part of ``submit`` -- a 202 means the job survives ``kill
-9``.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: Submissions above this are rejected 413 before being parsed.
MAX_BODY_BYTES = 2 << 20

#: Seconds between ``: keepalive`` comments on an idle event stream
#: (keeps proxies and client read-timeouts from severing a quiet job).
SSE_KEEPALIVE_SECONDS = 5.0

#: Seconds between job-state polls while streaming events.
SSE_POLL_SECONDS = 0.1

#: How much of an oversized body the server drains so the client can
#: read the 413 instead of dying on EPIPE mid-upload (urllib writes the
#: whole request before reading the response).  Bodies beyond this are
#: abandoned and the connection closed.
MAX_DRAIN_BYTES = 64 << 20


class ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service):
        super().__init__(address, ServiceRequestHandler)
        self.service = service


class ServiceRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service"

    # ------------------------------------------------------------------
    def _send(self, status: int, document: dict) -> None:
        body = json.dumps(document, sort_keys=True).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging goes through the service observer instead

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        service = self.server.service
        path = self.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send(200, service.health())
            return
        if path == "/readyz":
            ready, document = service.readiness()
            self._send(200 if ready else 503, document)
            return
        if path == "/metrics":
            from repro.obs.exposition import CONTENT_TYPE

            body = service.metrics_text().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if path == "/statsz":
            self._send(200, service.stats())
            return
        if path == "/jobs":
            self._send(200, {"jobs": service.list_jobs()})
            return
        if path.startswith("/jobs/"):
            parts = path.split("/")[2:]
            record = service.get(parts[0]) if parts else None
            if record is None:
                self._send(404, {"error": {"code": "NO_SUCH_JOB"}})
                return
            if len(parts) == 1:
                document = record.to_dict()
                document.pop("source", None)  # bodies stay in the journal
                self._send(200, document)
                return
            if len(parts) == 2 and parts[1] == "events":
                self._stream_events(record.job_id)
                return
            if len(parts) == 2 and parts[1] == "report":
                report = service.report(record.job_id)
                if report is not None:
                    self._send(200, report)
                elif record.terminal:
                    self._send(
                        200,
                        {
                            "job_id": record.job_id,
                            "state": record.state,
                            "error": record.error,
                            "exit_code": record.exit_code,
                        },
                    )
                else:
                    self._send(
                        202,
                        {"job_id": record.job_id, "state": record.state},
                    )
                return
        self._send(404, {"error": {"code": "NO_SUCH_ROUTE"}})

    # ------------------------------------------------------------------
    def _sse(self, event: str, document: dict) -> None:
        frame = (
            f"event: {event}\n"
            f"data: {json.dumps(document, sort_keys=True)}\n\n"
        )
        self.wfile.write(frame.encode("utf-8"))
        self.wfile.flush()

    def _stream_events(self, job_id: str) -> None:
        """``GET /jobs/<id>/events``: long-lived SSE stream.

        Replays the job's transition history as ``state`` frames, then
        streams new transitions and changed ``progress`` documents until
        the job is terminal, closing with an ``end`` frame carrying the
        final summary.  The connection is marked close-on-finish (a live
        stream has no Content-Length to promise under HTTP/1.1
        keep-alive) and a disconnected client simply ends the thread.
        """
        service = self.server.service
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        sent_transitions = 0
        last_progress = None
        last_write = time.monotonic()
        try:
            while True:
                view = service.job_events_snapshot(job_id)
                if view is None:
                    return  # record vanished (never happens in practice)
                history = view["history"]
                for entry in history[sent_transitions:]:
                    self._sse("state", {"job_id": job_id, **entry})
                    last_write = time.monotonic()
                sent_transitions = len(history)
                progress = view["progress"]
                if progress and progress != last_progress:
                    self._sse("progress", {"job_id": job_id, **progress})
                    last_progress = progress
                    last_write = time.monotonic()
                if view["terminal"]:
                    self._sse("end", view["summary"])
                    return
                if (
                    time.monotonic() - last_write
                    > SSE_KEEPALIVE_SECONDS
                ):
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    last_write = time.monotonic()
                time.sleep(SSE_POLL_SECONDS)
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # client went away; nothing to clean up

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        from repro.service.daemon import Draining, QueueFull

        service = self.server.service
        if self.path.rstrip("/") != "/jobs":
            self._send(404, {"error": {"code": "NO_SUCH_ROUTE"}})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            remaining = min(max(length, 0), MAX_DRAIN_BYTES)
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 64 << 10))
                if not chunk:
                    break
                remaining -= len(chunk)
            self.close_connection = True
            self._send(
                413, {"error": {"code": "BODY_TOO_LARGE", "max": MAX_BODY_BYTES}}
            )
            return
        try:
            request = json.loads(self.rfile.read(length) or b"{}")
        except ValueError as error:
            self._send(
                400, {"error": {"code": "BAD_JSON", "message": str(error)}}
            )
            return
        source, name = request.get("source"), request.get("name")
        workload = request.get("workload")
        if source is None and workload:
            try:
                from repro.cli import _resolve_workload

                source, name = _resolve_workload(workload)
            except SystemExit as error:
                self._send(
                    400,
                    {"error": {"code": "NO_SUCH_WORKLOAD", "message": str(error)}},
                )
                return
        if not source:
            self._send(
                400,
                {"error": {"code": "NO_SOURCE", "message": "submit a "
                           '"source" body or a registry "workload" name'}},
            )
            return
        try:
            record = service.submit(
                source=source,
                name=name or "submission",
                policy=request.get("policy", "untrusted"),
                max_cycles=request.get("max_cycles"),
                budget=request.get("budget"),
                fault_injection=request.get("fault_injection"),
            )
        except QueueFull as error:
            # 429: the backpressure verdict -- retriable by contract.
            self._send(
                429,
                {"error": {"code": "QUEUE_FULL", "retriable": True,
                           "message": str(error)}},
            )
            return
        except Draining as error:
            self._send(
                503,
                {"error": {"code": "DRAINING", "retriable": True,
                           "message": str(error)}},
            )
            return
        except ValueError as error:
            self._send(
                400, {"error": {"code": "BAD_REQUEST", "message": str(error)}}
            )
            return
        self._send(202, {"id": record.job_id, "state": record.state})
