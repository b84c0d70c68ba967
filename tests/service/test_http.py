"""The REST surface: submission, queries, backpressure codes."""

import json
import urllib.request

import pytest

from repro.service import ServiceClient, ServiceClientError

from tests.service.conftest import (
    TINY_INSECURE,
    TINY_SECURE,
    drive,
    make_service,
    reap,
)


@pytest.fixture
def served(tmp_path):
    service = make_service(tmp_path, port=0)
    url = service.start_server()
    yield service, ServiceClient(url)
    reap(service)


class TestEndpoints:
    def test_health_and_readiness(self, served):
        service, client = served
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == service.config.workers
        assert health["backlog"] == 0
        assert client.ready()

    def test_address_file_published(self, served):
        service, client = served
        address = (service.root / "address").read_text().strip()
        assert address == client.url

    def test_submit_query_report_roundtrip(self, served):
        service, client = served
        accepted = client.submit(source=TINY_INSECURE, name="http-job")
        assert accepted["state"] == "queued"
        job_id = accepted["id"]

        document = client.job(job_id)
        assert document["name"] == "http-job"
        # The source body never leaves the journal.
        assert "source" not in document

        record = service.get(job_id)
        drive(service, [record])
        final = client.wait(job_id, timeout=60.0)
        assert final["state"] == "done"
        assert final["verdict"] == "insecure"

        report = client.report(job_id)
        assert report["verdict"] == "insecure"
        assert report["violations"]

        listing = client.jobs()
        assert [entry["id"] for entry in listing] == [job_id]

    def test_engine_key_in_submission_is_ignored(self, served):
        """Bodies from clients that still send ``engine`` are accepted;
        the key has no effect."""
        service, client = served
        job_id = client.submit(source=TINY_INSECURE, engine="event")["id"]
        drive(service, [service.get(job_id)])
        final = client.job(job_id)
        assert final["verdict"] == "insecure"
        assert "engine" not in final

    def test_report_of_unfinished_job_is_202(self, served):
        service, client = served
        job_id = client.submit(source=TINY_SECURE)["id"]
        with urllib.request.urlopen(
            f"{client.url}/jobs/{job_id}/report"
        ) as response:
            assert response.status == 202
            body = json.loads(response.read())
        assert body["state"] == "queued"

    def test_unknown_job_is_404(self, served):
        _, client = served
        with pytest.raises(ServiceClientError) as excinfo:
            client.job("j999999-nope")
        assert excinfo.value.status == 404

    def test_submission_without_source_is_400(self, served):
        _, client = served
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(name="empty")
        assert excinfo.value.status == 400
        assert not excinfo.value.retriable

    def test_bad_json_is_400(self, served):
        _, client = served
        request = urllib.request.Request(
            f"{client.url}/jobs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400


class TestBackpressureCodes:
    def test_queue_full_is_429_and_retriable(self, tmp_path):
        service = make_service(tmp_path, port=0, queue_capacity=1)
        client = ServiceClient(service.start_server())
        try:
            client.submit(source=TINY_SECURE, name="a")
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(source=TINY_SECURE, name="b")
            assert excinfo.value.status == 429
            assert excinfo.value.retriable
            assert not client.ready()
        finally:
            reap(service)

    def test_draining_is_503(self, served):
        service, client = served
        service.draining = True
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(source=TINY_SECURE)
        assert excinfo.value.status == 503
        assert not client.ready()

    def test_oversized_body_is_413(self, served):
        _, client = served
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(source="nop\n" * (1 << 20), name="huge")
        assert excinfo.value.status == 413
