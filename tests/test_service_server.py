"""Tests for the unix-socket server, client, smoke check, and bench
(``repro.service.server`` / ``client`` / ``smoke`` / ``bench``)."""

import asyncio
import json
import os
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.client import ServiceClient
from repro.service.scheduler import ServiceError
from repro.service.server import BackgroundServer, ServiceServer

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


#: About 1.7 s on the ast engine (300000 trips), so a ``wait`` on it
#: stays blocked long enough for another thread's round trip.
SLOW = lol(
    "I HAS A s ITZ 0\n"
    "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 300000\n"
    "  s R SUM OF s AN MOD OF i AN 7\n"
    "IM OUTTA YR l\n"
    "VISIBLE s"
)


class TestKeptConnections:
    """Each calling thread keeps one connection across its requests."""

    def test_requests_from_one_thread_share_one_connection(self):
        with BackgroundServer() as bg, ServiceClient(bg.socket_path) as client:
            for _ in range(20):
                client.ping()
            job_id = client.submit(HELLO, executor="thread")
            assert client.result(job_id, timeout=60)["output"]
            assert client.stats()["connections"] == {"open": 1, "accepted": 1}

    def test_client_survives_a_server_restart_on_the_same_path(self, tmp_path):
        path = str(tmp_path / "s.sock")
        # No retry budget: the kept connection's EOF must be noticed
        # before the next request is written, not retried after it.
        client = ServiceClient(path, retry=None)
        with BackgroundServer(path):
            first = client.ping()
        with BackgroundServer(path) as bg:
            assert client.ping() == first  # same process, new server
            # A submit is never replayed, so it must not be written into
            # the dead connection either.
            job_id = client.submit(HELLO, executor="thread")
            assert client.result(job_id, timeout=60)["output"]
            with ServiceClient(bg.socket_path) as probe:
                assert probe.stats()["connections"]["accepted"] == 2
        client.close()

    def test_blocked_wait_does_not_delay_another_threads_ping(self, client):
        job_id = client.submit(SLOW, engine="ast", executor="thread")
        outcome = {}

        def waiter():
            outcome["job"] = client.wait(job_id, timeout=120)

        thread = threading.Thread(target=waiter)
        thread.start()
        try:
            deadline = time.monotonic() + 30.0
            while client.status(job_id)["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            t0 = time.perf_counter()
            client.ping()
            elapsed = time.perf_counter() - t0
            assert thread.is_alive(), "the job finished before the ping"
            assert elapsed < 0.5
        finally:
            thread.join(timeout=120)
        assert outcome["job"]["state"] == "done"

    def test_held_connection_reads_eof_once_the_server_stops(self, tmp_path):
        path = str(tmp_path / "s.sock")
        client = ServiceClient(path)
        # Every client call on one thread, so they share its connection.
        calls = ThreadPoolExecutor(max_workers=1)

        async def main():
            server = ServiceServer(path)
            await server.start()
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(calls, client.ping)
            sock = await loop.run_in_executor(
                calls, lambda: client._local.conn.sock
            )
            # stop() must not wait on the idle connection, and must
            # close it before the loop ends.
            await asyncio.wait_for(server.stop(), 10.0)
            sock.settimeout(10.0)
            return await loop.run_in_executor(calls, sock.recv, 1)

        try:
            assert asyncio.run(main()) == b""
        finally:
            calls.submit(client.close).result()
            calls.shutdown()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_never_reuses_the_parents_socket(self):
        with BackgroundServer() as bg, ServiceClient(bg.socket_path) as client:
            pid = client.ping()
            conn = client._local.conn
            child = os.fork()
            if child == 0:  # pragma: no cover - runs in the child
                ok = False
                try:
                    ok = client.ping() == pid and client._local.conn is not conn
                finally:
                    os._exit(0 if ok else 1)
            _, status = os.waitpid(child, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            # The parent's stream is intact and still its own.
            assert client.ping() == pid
            assert client._local.conn is conn
            assert client.stats()["connections"]["accepted"] == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_while_another_thread_holds_the_connection_lock(self):
        with BackgroundServer() as bg, ServiceClient(
            bg.socket_path, timeout=10.0
        ) as client:
            pid = client.ping()
            held, release = threading.Event(), threading.Event()

            def holder():
                with client._conns_lock:
                    held.set()
                    release.wait(30)

            thread = threading.Thread(target=holder)
            thread.start()
            held.wait(30)
            try:
                child = os.fork()
                if child == 0:  # pragma: no cover - runs in the child
                    ok = False
                    try:
                        ok = client.ping() == pid
                    finally:
                        os._exit(0 if ok else 1)
            finally:
                release.set()
                thread.join()
            # The child's ping must answer within the client's timeout;
            # a copied, forever-held lock would hang it instead.
            deadline = time.monotonic() + client.timeout
            while True:
                done, status = os.waitpid(child, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > deadline:
                    os.kill(child, signal.SIGKILL)
                    os.waitpid(child, 0)
                    pytest.fail("the forked child's ping hung")
                time.sleep(0.01)
            assert os.waitstatus_to_exitcode(status) == 0


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
