"""JSON-over-unix-socket front end for the scheduler.

Wire protocol: newline-delimited JSON objects, one request per line,
one response per line, over a ``AF_UNIX`` stream socket.  Requests are
``{"op": ..., ...}``; responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": "..."}``.

=============== ========================================= =================
op              request fields                            response fields
=============== ========================================= =================
``ping``        —                                         ``pid``
``submit``      ``source`` | ``workload`` (+``params``,   ``job_id``
                ``smoke``), ``n_pes``, ``engine``,
                ``executor``, ``seed``, ``trace``,
                ``timeout``
``status``      ``job_id``                                ``job``
``wait``        ``job_id``, ``timeout``                   ``job``
``cancel``      ``job_id``                                ``cancelled``
``workloads``   —                                         ``workloads``
``stats``       —                                         ``stats``
``metrics``     —                                         ``metrics`` (Prom
                                                          text exposition)
``shutdown``    —                                         ``stopping``
=============== ========================================= =================

``job.result`` payloads mirror ``lolbench`` rows (see
:func:`repro.service.scheduler.execute_job`).

:class:`BackgroundServer` runs the whole thing on a daemon thread with
its own event loop — the harness used by the tests, the throughput
benchmark, and the CI smoke check.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import tempfile
import threading
from typing import Optional

from .. import obs as _obs
from ..faults import fault_stats, inject
from .scheduler import (
    DEFAULT_JOB_TIMEOUT,
    DEFAULT_MAX_QUEUE_DEPTH,
    JobSpec,
    Scheduler,
    ServiceError,
)

#: Cap on one request line; a submission is source text, not a payload
#: channel, and an unbounded readline is a trivial memory DoS.
MAX_REQUEST_BYTES = 4 * 1024 * 1024


class ServiceServer:
    """Asyncio unix-socket server owning one :class:`Scheduler`."""

    def __init__(
        self,
        socket_path: str,
        *,
        max_concurrency: int = 2,
        default_timeout: float = DEFAULT_JOB_TIMEOUT,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
    ) -> None:
        self.socket_path = str(socket_path)
        self.scheduler = Scheduler(
            max_concurrency=max_concurrency,
            default_timeout=default_timeout,
            max_queue_depth=max_queue_depth,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        #: Writers of the open client connections, closed by stop():
        #: clients keep their connections between requests.
        self._writers: set[asyncio.StreamWriter] = set()
        self._accepted = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        await self.scheduler.start()
        self._clear_stale_socket()
        self._server = await asyncio.start_unix_server(
            self._handle_connection,
            path=self.socket_path,
            limit=MAX_REQUEST_BYTES,
        )

    def _clear_stale_socket(self) -> None:
        """Remove a leftover socket file from an unclean exit.

        Only the clean-shutdown path unlinks the socket, so after a
        ``kill -9`` the next ``lolserve serve`` would fail with
        "address already in use".  Probe-connect to tell a stale file
        (connection refused -> unlink) from a live server (error out
        loudly instead of stealing its address).
        """
        if not os.path.exists(self.socket_path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(self.socket_path)
        except (ConnectionRefusedError, FileNotFoundError):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        except OSError:
            pass  # unknown state: let the bind surface the real error
        else:
            raise ServiceError(
                f"another server is already listening on {self.socket_path}"
            )
        finally:
            probe.close()

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            # Clients keep their connections open, and on Python 3.12.1
            # and 3.13.0 wait_closed() waits for every open one: close
            # them first.  A client reads the EOF before its next
            # request and reconnects.
            for writer in list(self._writers):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    # -- protocol -----------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        self._accepted += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._reply(
                        writer, {"ok": False, "error": "request too large"}
                    )
                    break
                if not line:
                    break
                rule = inject("server.conn")
                if rule is not None and rule.kind == "drop":
                    # Simulated mid-request connection loss: the request
                    # was read but never processed, so a client retry is
                    # always safe.  Close without replying.
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                    response = await self._dispatch(request)
                except ServiceError as exc:
                    response = {"ok": False, "error": str(exc)}
                    # Typed errors (e.g. QueueFullError) publish their
                    # class and hints so clients can react specifically
                    # instead of string-matching the message.
                    error_type = getattr(exc, "error_type", None)
                    if error_type:
                        response["error_type"] = error_type
                    retry_after = getattr(exc, "retry_after", None)
                    if retry_after is not None:
                        response["retry_after"] = retry_after
                except (json.JSONDecodeError, ValueError) as exc:
                    response = {"ok": False, "error": f"bad request: {exc}"}
                except Exception as exc:  # noqa: BLE001 - connection-scoped
                    response = {
                        "ok": False,
                        "error": f"internal error: {type(exc).__name__}: {exc}",
                    }
                try:
                    await self._reply(writer, response)
                except (ConnectionError, BrokenPipeError):
                    break  # client gave up (e.g. its socket timed out)
        except asyncio.CancelledError:
            pass  # server shutting down mid-connection: close quietly
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _reply(writer, response: dict) -> None:
        writer.write(json.dumps(response).encode("utf-8") + b"\n")
        await writer.drain()

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        if op == "submit":
            spec = JobSpec.from_request(request)
            job = self.scheduler.submit(spec)
            return {"ok": True, "job_id": job.job_id}
        if op == "status":
            job = self.scheduler.get(self._job_id(request))
            return {"ok": True, "job": job.describe()}
        if op == "wait":
            timeout = request.get("timeout")
            job = await self.scheduler.wait(self._job_id(request), timeout)
            return {"ok": True, "job": job.describe()}
        if op == "cancel":
            cancelled = self.scheduler.cancel(self._job_id(request))
            return {"ok": True, "cancelled": cancelled}
        if op == "workloads":
            from ..workloads import workload_names

            return {"ok": True, "workloads": workload_names()}
        if op == "stats":
            from ..compiler.native import native_stats

            stats = dict(self.scheduler.stats())
            stats["pool"] = self._pool_stats()
            stats["native"] = native_stats()
            stats["faults"] = fault_stats()
            stats["connections"] = {
                "open": len(self._writers),
                "accepted": self._accepted,
            }
            return {"ok": True, "stats": stats}
        if op == "metrics":
            self._update_gauges()
            return {
                "ok": True,
                "metrics": _obs.render_prometheus(_obs.get_registry()),
            }
        if op == "shutdown":
            self._shutdown.set()
            return {"ok": True, "stopping": True}
        raise ServiceError(f"unknown op {op!r}")

    @staticmethod
    def _job_id(request: dict) -> str:
        job_id = request.get("job_id")
        if not isinstance(job_id, str):
            raise ServiceError("missing or non-string 'job_id'")
        return job_id

    @staticmethod
    def _pool_stats() -> Optional[dict]:
        # Reach into the default pool without creating it.
        from . import pool as pool_mod

        pool = pool_mod._default_pool
        if pool is None or not pool.alive:
            return None
        return {
            "size": pool.size,
            "workers_alive": pool.workers_alive(),
            "jobs_run": pool.jobs_run,
            "workers_replaced": pool.workers_replaced,
            "rebuilds": pool.rebuilds,
            "segments_created": pool.segments.created,
            "segments_reused": pool.segments.reused,
        }

    def _update_gauges(self) -> None:
        """Refresh point-in-time gauges right before rendering, so the
        exposition reflects this instant rather than the last event."""
        reg = _obs.get_registry()
        sched = self.scheduler.stats()
        reg.gauge("lol_sched_queue_depth", "Jobs waiting in the queue").set(
            sched["queued"]
        )
        reg.gauge("lol_sched_running", "Jobs currently executing").set(
            sched["running"]
        )
        reg.gauge(
            "lol_sched_queue_capacity", "Configured max queue depth"
        ).set(sched["max_queue_depth"])


def serve(
    socket_path: str,
    *,
    max_concurrency: int = 2,
    default_timeout: float = DEFAULT_JOB_TIMEOUT,
    max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
) -> None:
    """Run a server in the foreground until a ``shutdown`` request
    (or KeyboardInterrupt) — the ``lolserve serve`` entry point."""

    async def _main() -> None:
        server = ServiceServer(
            socket_path,
            max_concurrency=max_concurrency,
            default_timeout=default_timeout,
            max_queue_depth=max_queue_depth,
        )
        await server.start()
        try:
            await server.serve_until_shutdown()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class BackgroundServer:
    """A server on a daemon thread with its own event loop.

    Context-manager harness for in-process consumers (tests, the
    throughput bench, the CI smoke check)::

        with BackgroundServer(max_concurrency=4) as bg:
            client = ServiceClient(bg.socket_path)
            ...
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        *,
        max_concurrency: int = 2,
        default_timeout: float = DEFAULT_JOB_TIMEOUT,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
    ) -> None:
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if socket_path is None:
            # AF_UNIX paths are length-limited (~104 bytes): keep it short.
            self._tmpdir = tempfile.TemporaryDirectory(prefix="lolserve-")
            socket_path = os.path.join(self._tmpdir.name, "s.sock")
        self.socket_path = socket_path
        self._max_concurrency = max_concurrency
        self._default_timeout = default_timeout
        self._max_queue_depth = max_queue_depth
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None

    def _run(self) -> None:
        async def _main() -> None:
            try:
                server = ServiceServer(
                    self.socket_path,
                    max_concurrency=self._max_concurrency,
                    default_timeout=self._default_timeout,
                    max_queue_depth=self._max_queue_depth,
                )
                await server.start()
            except BaseException as exc:  # noqa: BLE001 - surfaced to starter
                self._start_error = exc
                self._started.set()
                raise
            self._started.set()
            try:
                await server.serve_until_shutdown()
            finally:
                await server.stop()

        try:
            asyncio.run(_main())
        except BaseException:  # noqa: BLE001 - daemon thread exit
            pass

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="lolserve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("service server failed to start within 30s")
        if self._start_error is not None:
            raise RuntimeError(
                f"service server failed to start: {self._start_error!r}"
            )
        return self

    def __exit__(self, *exc_info) -> None:
        from .client import ServiceClient

        try:
            with ServiceClient(self.socket_path) as client:
                client.shutdown()
        except Exception:
            pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
