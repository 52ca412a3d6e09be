"""Tests for the unix-socket server, client, smoke check, and bench
(``repro.service.server`` / ``client`` / ``smoke`` / ``bench``)."""

import json
import socket
import threading

import pytest

from repro.service.client import ServiceClient
from repro.service.scheduler import ServiceError
from repro.service.server import BackgroundServer

from .conftest import lol

pytestmark = pytest.mark.service

HELLO = lol('VISIBLE "OH HAI SERVER"')


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(max_concurrency=4) as bg:
        yield bg


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.socket_path, timeout=120.0)


class TestProtocol:
    def test_ping(self, client):
        assert isinstance(client.ping(), int)

    def test_submit_wait_result_roundtrip(self, client):
        job_id = client.submit(HELLO, n_pes=2, executor="thread", seed=1)
        assert job_id.startswith("job-")
        row = client.result(job_id, timeout=60)
        assert row["outputs"] == ["OH HAI SERVER\n"] * 2
        status = client.status(job_id)
        assert status["state"] == "done"
        assert status["finished_at"] >= status["submitted_at"]

    def test_workload_submission_verifies(self, client):
        job_id = client.submit(
            workload="ring", smoke=True, n_pes=4, executor="thread", seed=42
        )
        row = client.result(job_id, timeout=60)
        assert row["workload"] == "ring"
        assert row["checker"] == "pass"

    def test_error_job_reported_via_wait(self, client):
        job_id = client.submit(
            lol("I HAS A x ITZ QUOSHUNT OF 1 AN 0"), executor="thread"
        )
        job = client.wait(job_id, timeout=60)
        assert job["state"] == "error"
        assert "QUOSHUNT" in job["error"]
        with pytest.raises(ServiceError, match="finished as error"):
            client.result(job_id, timeout=60)

    def test_unknown_job_and_bad_ops(self, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.status("job-424242")
        with pytest.raises(ServiceError, match="unknown op"):
            client.request("frobnicate")
        with pytest.raises(ServiceError, match="exactly one"):
            client.request("submit")

    def test_malformed_json_gets_error_response(self, server):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(server.socket_path)
            sock.sendall(b"this is not json\n")
            response = json.loads(sock.makefile("rb").readline())
        assert response["ok"] is False
        assert "bad request" in response["error"]

    def test_stats_include_scheduler_counters(self, client):
        stats = client.stats()
        assert stats["max_concurrency"] == 4
        assert stats["jobs"] >= 1

    def test_workloads_listing(self, client):
        names = client.workloads()
        assert "ring" in names and "heat2d" in names

    def test_concurrent_submissions_all_verify(self, client):
        """Many clients at once: every registry job comes back verified."""
        failures = []
        mutex = threading.Lock()

        def one(i):
            try:
                job_id = client.submit(
                    workload="ring",
                    smoke=True,
                    n_pes=2,
                    executor="thread",
                    seed=100 + i,
                )
                row = client.result(job_id, timeout=120)
                if row["checker"] != "pass":
                    raise ServiceError(f"checker: {row['checker']}")
            except ServiceError as exc:
                with mutex:
                    failures.append(str(exc))

        threads = [threading.Thread(target=one, args=(i,)) for i in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert not failures, failures


class TestClientEdges:
    def test_unreachable_socket(self, tmp_path):
        client = ServiceClient(str(tmp_path / "nowhere.sock"), timeout=2.0)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.ping()


class TestSocketLifecycle:
    def test_stale_socket_file_is_cleared(self, tmp_path):
        """After an unclean exit (kill -9) the socket file survives; the
        next serve on the same path must reclaim it, not crash with
        'address already in use'."""
        import socket as socket_mod

        path = str(tmp_path / "stale.sock")
        leftover = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        leftover.bind(path)
        leftover.close()  # file remains, nothing listening: stale
        with BackgroundServer(path) as bg:
            assert isinstance(ServiceClient(bg.socket_path).ping(), int)

    def test_live_server_address_is_not_stolen(self, server):
        with pytest.raises(RuntimeError, match="already listening"):
            with BackgroundServer(server.socket_path):
                pass  # pragma: no cover - must not start


@pytest.mark.procs
class TestSmoke:
    def test_smoke_all_verify(self):
        from repro.service.smoke import run_smoke

        failures = run_smoke(jobs=6, max_concurrency=3)
        assert failures == []
