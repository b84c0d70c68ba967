"""Workload-level parallelism: ``repro analyze-all --jobs N``.

Fan the Table 1 workload registry over a process pool -- one workload
per worker, each running the serial analysis -- and aggregate the
per-workload verdict documents, exit codes and timing into one JSON
report.

Per-workload runs are fully independent (own program, own tracker, own
budget instance built from the same spec), so the aggregate document is
deterministic regardless of worker count or completion order: results
are always reported in the requested workload order.
"""

from __future__ import annotations

import concurrent.futures
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional

from repro.obs import CLOCK, MetricsRegistry, Observer
from repro.resilience import (
    AnalysisInterrupted,
    ReproError,
    VERDICT_EXIT_CODES,
)

#: Schema tag for the aggregate document (bump on breaking changes).
ANALYZE_ALL_SCHEMA = 1

#: Exit code reported for a workload whose analysis raised (matches the
#: single-workload CLI contract: typed errors carry their own code).
ERROR_EXIT_CODE = 6


def _analyze_one(spec: dict) -> dict:
    """Run one workload's full serial analysis; executed in a worker.

    Returns a JSON-ready document (never raises: errors ship as data so
    one failing workload cannot take down the sweep).
    """
    name = spec["workload"]
    started = CLOCK.wall()
    try:
        from repro.cli import _analysis_document, _policy, _resolve_workload
        from repro.core import TaintTracker
        from repro.isa.assembler import assemble
        from repro.resilience.budget import AnalysisBudget

        from repro.cpu import compiled_cpu

        source, resolved = _resolve_workload(name)
        program = assemble(source, name=resolved)
        budget = AnalysisBudget(**spec["budget"])
        observer = Observer()
        result = TaintTracker(
            program,
            circuit=compiled_cpu(),
            policy=_policy(spec["policy"]),
            budget=budget,
            obs=observer,
        ).run()
        document = _analysis_document(result)
        document["workload"] = resolved
        document["exit_code"] = VERDICT_EXIT_CODES[result.verdict]
        document["wall_seconds"] = CLOCK.wall() - started
        document["metrics_state"] = observer.metrics.export_state()
        return document
    except ReproError as error:
        return {
            "workload": name,
            "verdict": "error",
            "exit_code": error.exit_code,
            "wall_seconds": CLOCK.wall() - started,
            "error": error.to_document(),
        }
    except Exception as error:  # pragma: no cover - defensive
        return {
            "workload": name,
            "verdict": "error",
            "exit_code": ERROR_EXIT_CODE,
            "wall_seconds": CLOCK.wall() - started,
            "error": {"type": type(error).__name__, "message": str(error)},
        }


def _reap_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Forcefully end a pool's worker processes (SIGTERM, then SIGKILL
    for any that linger) so an interrupted sweep leaves no orphans
    holding checkpoints or cache files open.

    ``_processes`` is a private-but-stable attribute (present since
    3.7); if a future Python renames it we degrade to the old
    wait-for-completion behaviour instead of crashing.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(timeout=3.0)
    for process in processes:
        if process.is_alive():
            process.kill()
            process.join(timeout=3.0)


def _run_pool(specs: List[dict], workers: int) -> List[dict]:
    """Fan the sweep over a process pool, reaping every worker on
    SIGINT/SIGTERM instead of silently finishing the whole sweep.

    The default executor behaviour on an exception is
    ``shutdown(wait=True)``: a Ctrl-C'd sweep would keep *all* its
    workers running to completion.  Here the signal sets a flag, the
    collection loop notices within 200ms, pending futures are
    cancelled, live workers are terminated and joined, and a typed
    :class:`AnalysisInterrupted` (exit 130) propagates to the CLI.
    """
    interrupted: List[str] = []

    def _note_signal(signum, frame):
        interrupted.append(signal.Signals(signum).name)

    previous = {}
    if threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, _note_signal)
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = {
            pool.submit(_analyze_one, spec): index
            for index, spec in enumerate(specs)
        }
        results: List[Optional[dict]] = [None] * len(specs)
        pending = set(futures)
        while pending and not interrupted:
            done, pending = concurrent.futures.wait(pending, timeout=0.2)
            for future in done:
                results[futures[future]] = future.result()
        if interrupted:
            for future in pending:
                future.cancel()
            _reap_pool_processes(pool)
            finished = sum(1 for r in results if r is not None)
            raise AnalysisInterrupted(
                f"analyze-all interrupted ({interrupted[0]}) with "
                f"{finished}/{len(specs)} workload(s) finished; "
                "worker processes reaped",
                reason=interrupted[0],
                finished=finished,
                total=len(specs),
            )
        return results
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        pool.shutdown(wait=False, cancel_futures=True)


def run_analyze_all(
    workloads: List[str],
    jobs: int = 1,
    policy: str = "untrusted",
    budget: Optional[dict] = None,
) -> dict:
    """Analyze every workload (one serial analysis per worker process)
    and return the aggregate document.

    ``budget`` is an :class:`AnalysisBudget` kwargs dict applied *per
    workload* (each analysis gets its own fresh instance, so a deadline
    bounds each workload, not the sweep).
    """
    jobs = max(1, int(jobs))
    specs = [
        {
            "workload": name,
            "policy": policy,
            "budget": dict(budget or {}),
        }
        for name in workloads
    ]
    started = CLOCK.wall()

    # Build the compiled circuit once before forking: workers inherit the
    # process-wide cache and skip their own levelization entirely.
    from repro.cpu import compiled_cpu

    compiled_cpu()

    if jobs == 1 or len(specs) <= 1:
        results = [_analyze_one(spec) for spec in specs]
    else:
        results = _run_pool(specs, min(jobs, len(specs)))

    merged = MetricsRegistry()
    for document in results:
        state = document.pop("metrics_state", None)
        if state is not None:
            merged.merge_state(state)

    verdicts = [document["verdict"] for document in results]
    exit_code = max(
        (document["exit_code"] for document in results), default=0
    )
    return {
        "schema": ANALYZE_ALL_SCHEMA,
        "tool": "repro analyze-all",
        "jobs": jobs,
        "policy": policy,
        "budget": dict(budget or {}),
        "workloads": results,
        "metrics": merged.snapshot(),
        "summary": {
            "total": len(results),
            "secure": verdicts.count("secure"),
            "insecure": verdicts.count("insecure"),
            "inconclusive": verdicts.count("inconclusive"),
            "errors": verdicts.count("error"),
            "wall_seconds": CLOCK.wall() - started,
            "serial_seconds": sum(
                document["wall_seconds"] for document in results
            ),
            "exit_code": exit_code,
        },
    }
