"""End-to-end daemon behaviour with real worker subprocesses:
verdicts, fail-fast, backpressure, shedding, crash recovery."""

import json
import sys

import pytest

from repro.service import AnalysisService, Draining, QueueFull, ServiceConfig
from repro.service.jobs import TERMINAL_STATES
from repro.service.retry import RetryPolicy

from tests.service.conftest import (
    TINY_INSECURE,
    TINY_SECURE,
    drive,
    make_service,
    reap,
)


class TestVerdicts:
    def test_secure_and_insecure_jobs_complete(self, service):
        secure = service.submit(source=TINY_SECURE, name="tiny-secure")
        insecure = service.submit(source=TINY_INSECURE, name="tiny-insecure")
        drive(service, [secure, insecure])

        assert secure.state == "done"
        assert secure.verdict == "secure"
        assert secure.exit_code == 0
        assert secure.attempts == 1

        assert insecure.state == "done"
        assert insecure.verdict == "insecure"
        assert insecure.exit_code == 1
        report = service.report(insecure.job_id)
        assert report["verdict"] == "insecure"
        assert report["violations"]

    def test_cycle_cap_yields_inconclusive_not_secure(self, service):
        # The job's max_cycles field feeds the analysis budget: a cap
        # below binSearch's exploration drains paths (exit 3) instead of
        # truncating them under a secure verdict.
        from repro.workloads.registry import benchmark

        record = service.submit(
            source=benchmark("binSearch").service_source,
            name="binsearch-capped",
            max_cycles=150,
        )
        drive(service, [record])
        assert record.state == "inconclusive"
        assert record.verdict == "inconclusive"
        assert record.exit_code == 3
        report = service.report(record.job_id)
        assert report["exhausted_budgets"] == ["max_cycles"]

    def test_unassemblable_source_fails_fast_with_input_code(self, service):
        record = service.submit(source="this is not assembly\n", name="bad")
        drive(service, [record])
        assert record.state == "failed"
        # Fail fast: InputError is not retriable, one attempt only.
        assert record.attempts == 1
        assert record.exit_code == 4
        assert record.error["code"] == "INPUT"


class TestFalseVerdictGuard:
    def test_worker_dying_before_analysis_is_not_a_verdict(self, tmp_path):
        """A worker that exits 1 without writing a result document (an
        interpreter-level death) must be retried as an infrastructure
        failure, never recorded as verdict ``insecure``; and the
        journaled per-job max_attempts (from ServiceConfig) bounds the
        retries, not the RetryPolicy default of 4."""
        config = ServiceConfig(
            root=str(tmp_path / "svc"),
            workers=1,
            poll_interval=0.02,
            max_attempts=2,
            retry=RetryPolicy(base_seconds=0.05, cap_seconds=0.1),
        )
        service = AnalysisService(
            config,
            spawn_command=lambda spec_path: [
                sys.executable,
                "-c",
                "import sys; sys.exit(1)",
            ],
        )
        service.start()
        try:
            record = service.submit(source=TINY_INSECURE, name="dies-early")
            drive(service, [record], timeout=60.0)
            assert record.state == "failed"
            assert record.verdict is None
            assert record.max_attempts == 2
            assert record.attempts == 2
        finally:
            reap(service)


class TestBackpressure:
    def test_queue_full_raises(self, tmp_path):
        service = make_service(tmp_path, workers=1, queue_capacity=2)
        try:
            service.submit(source=TINY_SECURE, name="a")
            service.submit(source=TINY_SECURE, name="b")
            with pytest.raises(QueueFull):
                service.submit(source=TINY_SECURE, name="c")
            ready, document = service.readiness()
            assert not ready
            assert document["reason"] == "queue full"
        finally:
            reap(service)

    def test_draining_rejects_submissions(self, service):
        service.draining = True
        with pytest.raises(Draining):
            service.submit(source=TINY_SECURE)

    def test_overload_sheds_launch_budgets(self, tmp_path):
        service = make_service(
            tmp_path, workers=1, queue_capacity=8, shed_after=1
        )
        try:
            records = [
                service.submit(source=TINY_SECURE, name=f"s{i}")
                for i in range(3)
            ]
            drive(service, records)
            assert all(r.state == "done" for r in records)
            # Backlog was above the shed threshold while the later jobs
            # launched, so at least one ran with clamped budgets.
            assert any(r.shed for r in records)
            shed_record = next(r for r in records if r.shed)
            assert "shed launch" in {h["note"] for h in shed_record.history}
        finally:
            reap(service)


class TestCrashRecovery:
    def test_accepted_queued_job_survives_daemon_death(self, tmp_path):
        first = make_service(tmp_path)
        record = first.submit(source=TINY_SECURE, name="survivor")
        job_id = record.job_id
        # kill -9 model: no drain, no compaction, no close.
        reap(first)

        second = make_service(tmp_path)
        try:
            recovered = second.get(job_id)
            assert recovered is not None
            assert recovered.state == "queued"
            drive(second, [recovered])
            assert recovered.verdict == "secure"
        finally:
            reap(second)

    def test_journaled_engine_field_replays_and_runs(self, tmp_path):
        """Journals written while jobs carried an ``engine`` field still
        replay: the unknown key is dropped and the job runs to the same
        verdict as a fresh submission."""
        first = make_service(tmp_path)
        record = first.submit(source=TINY_INSECURE, name="old-journal")
        reap(first)
        log = tmp_path / "jobs.log"
        (line,) = log.read_text().splitlines()
        document = json.loads(line)
        document["engine"] = "event"
        log.write_text(json.dumps(document, sort_keys=True) + "\n")

        second = make_service(tmp_path)
        try:
            replayed = second.get(record.job_id)
            assert replayed is not None
            assert "engine" not in replayed.to_dict()
            fresh = second.submit(source=TINY_INSECURE, name="fresh")
            drive(second, [replayed, fresh])
            assert replayed.state == fresh.state == "done"
            assert replayed.verdict == fresh.verdict == "insecure"
            assert second.report(replayed.job_id)["violations"] == (
                second.report(fresh.job_id)["violations"]
            )
        finally:
            reap(second)

    def test_running_job_moves_to_retrying_on_restart(self, tmp_path):
        first = make_service(tmp_path, workers=1)
        record = first.submit(source=TINY_SECURE, name="inflight")
        # Launch it, then model the daemon (and its worker) dying.
        first.tick()
        assert record.state == "running"
        reap(first)

        second = make_service(tmp_path)
        try:
            recovered = second.get(record.job_id)
            assert record.job_id in second.recovered
            assert recovered.state == "retrying"
            # Recovery is the daemon's fault: no attempt consumed.
            assert recovered.attempts == 1
            drive(second, [recovered])
            assert recovered.verdict == "secure"
            assert recovered.attempts == 2
        finally:
            reap(second)

    def test_restart_after_shutdown_replays_terminal_states(self, tmp_path):
        first = make_service(tmp_path)
        record = first.submit(source=TINY_INSECURE, name="done-job")
        drive(first, [record])
        first.shutdown()

        second = make_service(tmp_path)
        try:
            replayed = second.get(record.job_id)
            assert replayed.state in TERMINAL_STATES
            assert replayed.verdict == "insecure"
            assert replayed.exit_code == 1
            assert second.recovered == []
        finally:
            reap(second)


class TestDrain:
    def test_shutdown_journals_and_compacts(self, tmp_path):
        service = make_service(tmp_path)
        record = service.submit(source=TINY_SECURE, name="drained")
        service.shutdown()
        # The queued job is still journaled (snapshot, since shutdown
        # compacts) and a restart picks it up.
        assert (tmp_path / "jobs.snapshot").exists()
        restarted = make_service(tmp_path)
        try:
            assert restarted.get(record.job_id) is not None
        finally:
            reap(restarted)
