"""SIGINT/SIGTERM mid-sweep must reap every pool worker.

Regression test for the ``analyze-all --jobs N`` interrupt path: the
stock :class:`~concurrent.futures.ProcessPoolExecutor` behaviour on an
exception is ``shutdown(wait=True)``, which lets already-running workers
finish the whole sweep after Ctrl-C.  ``_run_pool`` must instead notice
the signal promptly, terminate and join every worker, and exit 130 --
leaving no orphan processes holding checkpoints or cache files open.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.parallel.analyze_all import _run_pool
from repro.resilience import AnalysisInterrupted
from repro.workloads.registry import benchmark_names

REPO = Path(__file__).resolve().parents[2]

#: Every Table 1 workload: a sweep of several seconds at ``--jobs 2``,
#: so a signal sent shortly after the workers spin up lands mid-sweep
#: (a sweep of two workloads can end before it).
WORKLOADS = benchmark_names()


def _group_pids(pgid: int) -> list:
    """Every live PID in process group ``pgid`` (scans /proc)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # field 5 (after the parenthesised comm, which may hold spaces)
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 2 and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def test_sigint_mid_sweep_exits_130_and_reaps_workers():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "analyze-all",
            "--workloads",
            *WORKLOADS,
            "--jobs",
            "2",
            "--json",
        ],
        cwd=str(REPO),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    try:
        # Wait until both pool workers exist (parent + >=2 children in
        # the fresh session's process group), so the signal is
        # genuinely mid-sweep, then give them a beat to start working.
        deadline = time.time() + 60.0
        while time.time() < deadline:
            if proc.poll() is not None:
                pytest.fail(
                    f"sweep exited early with {proc.returncode} before "
                    "the signal was sent"
                )
            if len(_group_pids(proc.pid)) >= 3:
                break
            time.sleep(0.1)
        else:
            pytest.fail("pool workers never appeared")
        time.sleep(0.5)

        # SIGINT the *parent only* -- reaping the children is the
        # parent's job, not the kernel's (no killpg here).
        os.kill(proc.pid, signal.SIGINT)
        out, _ = proc.communicate(timeout=30.0)
        assert proc.returncode == 130
        context = json.loads(out)["error"]["context"]
        assert context["total"] == len(WORKLOADS)
        assert context["finished"] < context["total"], context

        # No orphans: the whole process group must drain once the
        # parent is gone (allow a moment for exiting workers).
        deadline = time.time() + 10.0
        while time.time() < deadline:
            leftovers = _group_pids(proc.pid)
            if not leftovers:
                break
            time.sleep(0.1)
        assert leftovers == [], f"orphaned worker processes: {leftovers}"
    finally:
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=10.0)


def test_run_pool_raises_typed_interrupt_on_pending_signal():
    """In-process check of the classification: a signal noted before
    the collection loop finishes surfaces as AnalysisInterrupted with
    exit code 130 and the finished/total counts in context."""
    specs = [
        {
            "workload": name,
            "policy": "untrusted",
            "budget": {"max_paths": 4096},
        }
        for name in WORKLOADS
    ]
    # Cancelled however the sweep ends: a sweep that beats the timer
    # fails this test instead of SIGINTing the test runner afterwards.
    timer = threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT))
    timer.start()
    try:
        with pytest.raises(AnalysisInterrupted) as excinfo:
            _run_pool(specs, workers=2)
    finally:
        timer.cancel()
    error = excinfo.value
    assert error.exit_code == 130
    assert error.retriable is True
    assert error.context["reason"] == "SIGINT"
    assert error.context["total"] == len(specs)
    assert error.context["finished"] < error.context["total"]
