"""Analysis worker subprocess (``python -m repro.service.worker``).

One worker runs one job attempt: assemble the journaled source, build a
:class:`~repro.core.TaintTracker` with the job's budget and a
:class:`~repro.resilience.Checkpointer` keyed by job id, resume from the
job's checkpoint when a valid one exists, and write the verdict document
atomically before exiting with the taxonomy exit code.  The contract
with the supervisor:

* ``--spec`` names a JSON job spec (see :func:`run_worker`);
* the heartbeat file is rewritten every ``heartbeat_interval`` seconds
  from a daemon thread -- a stale heartbeat means the worker is hung
  (not merely slow: the thread beats even while numpy holds the GIL).
  Since trace schema v4 the beat is a JSON **progress document**
  (atomic tmp+rename, so the supervisor never reads a torn one)
  carrying the correlation context and the tracker's latest
  :class:`~repro.resilience.ProgressSnapshot`; supervisors still accept
  the old bare-touch (empty) heartbeat from downlevel workers -- the
  file's mtime alone drives liveness either way;
* when the spec names a ``trace`` path the worker records the full v4
  JSONL trace of the attempt, every event stamped with the correlation
  context (``job_id``, ``attempt``, ``run_id``) so the journaled job
  joins its trace stream one-to-one;
* SIGTERM/SIGINT are cooperative: the tracker checkpoints at the next
  safe boundary and the worker exits 130 with an ``interrupted`` error
  document, so a drained job resumes bit-identically later;
* the result file appears atomically (tmp + rename) -- the supervisor
  never observes a torn document;
* a checkpoint that is stale or corrupt is *ignored* (fresh start), not
  fatal: worst case the attempt redoes work it already did.

Exit code: the verdict's code (0/1/3) on completion, otherwise the typed
error's ``exit_code`` (130 for interrupts).  Fault injection, when the
spec asks for it, is seeded -- the chaos harness composes it with
process kills to soak the whole retry loop deterministically.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import uuid
from pathlib import Path

from repro.core import TaintTracker
from repro.cpu import compiled_cpu
from repro.isa.assembler import AssemblyError, assemble
from repro.obs import Observer, TraceRecorder
from repro.resilience import (
    AnalysisBudget,
    AnalysisInterrupted,
    CheckpointError,
    Checkpointer,
    FaultInjector,
    InputError,
    ProgressEstimator,
    ReproError,
    VERDICT_EXIT_CODES,
    read_checkpoint,
)
from repro.resilience.errors import EXIT_ANALYSIS

#: Default seconds between heartbeat touches.
HEARTBEAT_INTERVAL = 0.5

#: Schema tag of the heartbeat progress document.
HEARTBEAT_SCHEMA = 1


def _policy(name: str):
    from repro.core import default_policy, secret_policy

    if name == "secret":
        return secret_policy()
    return default_policy()


class _HeartbeatState:
    """The latest progress document, shared between the tracker's sink
    (analysis thread) and the beat thread under a lock."""

    def __init__(self, job_id: str, attempt: int, run_id: str):
        self._lock = threading.Lock()
        self._context = {
            "v": HEARTBEAT_SCHEMA,
            "job_id": job_id,
            "attempt": attempt,
            "run_id": run_id,
        }
        self._progress = None

    def set_progress(self, snapshot) -> None:
        with self._lock:
            self._progress = snapshot.to_document()

    def document(self) -> dict:
        with self._lock:
            document = dict(self._context)
            document["unix"] = time.time()
            document["progress"] = self._progress
            return document


def write_heartbeat(path: Path, state: _HeartbeatState) -> None:
    """Atomically replace the heartbeat file with the current progress
    document.  The rename both publishes the JSON and bumps ``st_mtime``
    -- one write serves liveness and progress at once."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(state.document(), sort_keys=True) + "\n")
    os.replace(tmp, path)


def _beat_forever(
    path: Path, interval: float, stop: threading.Event, state: _HeartbeatState
):
    while not stop.wait(interval):
        try:
            write_heartbeat(path, state)
        except OSError:
            return  # artifact dir vanished: the supervisor gave up on us


def _write_result(path, document: dict) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, path)


def run_worker(spec: dict) -> int:
    """Execute one job attempt described by *spec*; returns the exit
    code (and writes the result document as a side effect)."""
    result_path = spec["result"]
    heartbeat_path = Path(spec["heartbeat"])
    attempt = int(spec.get("attempt", 0))
    run_id = uuid.uuid4().hex[:12]
    heartbeat_state = _HeartbeatState(spec["job_id"], attempt, run_id)
    write_heartbeat(heartbeat_path, heartbeat_state)
    stop_beating = threading.Event()
    beat = threading.Thread(
        target=_beat_forever,
        args=(
            heartbeat_path,
            float(spec.get("heartbeat_interval", HEARTBEAT_INTERVAL)),
            stop_beating,
            heartbeat_state,
        ),
        daemon=True,
    )
    beat.start()

    observer = None
    trace_path = spec.get("trace")
    if trace_path:
        observer = Observer(
            trace=TraceRecorder(
                trace_path,
                context={
                    "job_id": spec["job_id"],
                    "attempt": attempt,
                    "run_id": run_id,
                },
            )
        )
    try:
        try:
            program = assemble(spec["source"], name=spec["name"])
        except AssemblyError as error:
            raise InputError(
                f"cannot assemble job source: {error}",
                job=spec["job_id"],
            ) from error
        budget = AnalysisBudget(**dict(spec.get("budget") or {}))
        # The job's max_cycles field and its budget both cap the cycles
        # simulated: fold the field into the budget, the smaller wins.
        max_cycles = spec.get("max_cycles")
        if max_cycles is not None and (
            budget.max_cycles is None or max_cycles < budget.max_cycles
        ):
            budget.max_cycles = max_cycles
        checkpointer = Checkpointer(
            spec["checkpoint"],
            every_paths=int(spec.get("checkpoint_every", 8)),
        )
        progress = ProgressEstimator(
            interval_seconds=float(
                spec.get(
                    "progress_interval",
                    spec.get("heartbeat_interval", HEARTBEAT_INTERVAL),
                )
            ),
            sink=heartbeat_state.set_progress,
        )
        injection = spec.get("fault_injection")
        tracker = TaintTracker(
            program,
            policy=_policy(spec.get("policy", "untrusted")),
            circuit=compiled_cpu(),
            budget=budget,
            checkpointer=checkpointer,
            progress=progress,
            obs=observer,
            faults=FaultInjector(**injection) if injection else None,
        )

        resumed = False
        checkpoint = Path(spec["checkpoint"])
        if checkpoint.exists():
            try:
                payload = read_checkpoint(
                    checkpoint, expected_digest=tracker.config_digest()
                )
                tracker.restore_checkpoint(payload)
                resumed = True
            except CheckpointError as error:
                print(
                    f"ignoring unusable checkpoint: {error.render()}",
                    file=sys.stderr,
                )

        def _interrupt(signum, frame):
            tracker.request_interrupt(signal.Signals(signum).name)

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(sig, _interrupt)
            except ValueError:
                pass  # not the main thread (in-process tests)

        result = tracker.run()

        from repro.cli import _analysis_document

        document = _analysis_document(result)
        document["resumed"] = resumed
        document["job_id"] = spec["job_id"]
        document["attempt_unix"] = time.time()
        _write_result(result_path, document)
        return VERDICT_EXIT_CODES[result.verdict]
    except AnalysisInterrupted as error:
        _write_result(
            result_path,
            {"job_id": spec["job_id"], "error": error.to_document()},
        )
        return error.exit_code
    except ReproError as error:
        _write_result(
            result_path,
            {"job_id": spec["job_id"], "error": error.to_document()},
        )
        return error.exit_code
    except Exception as error:  # pragma: no cover - defensive
        _write_result(
            result_path,
            {
                "job_id": spec["job_id"],
                "error": {
                    "code": "WORKER_CRASH",
                    "retriable": True,
                    "exit_code": EXIT_ANALYSIS,
                    "message": f"{type(error).__name__}: {error}",
                },
            },
        )
        return EXIT_ANALYSIS
    finally:
        stop_beating.set()
        if observer is not None:
            observer.close()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="repro-service-worker")
    parser.add_argument("--spec", required=True, help="job spec JSON file")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    return run_worker(spec)


if __name__ == "__main__":
    raise SystemExit(main())
