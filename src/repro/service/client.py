"""Synchronous client for the execution service.

Speaks the newline-delimited JSON protocol of
:mod:`repro.service.server` over a unix-domain socket.  Each calling
thread keeps one connection open across its requests (a job's
``submit`` and ``wait`` share it), so one client object is safe to
share across threads and a long ``wait`` on one thread never
head-of-line-blocks another thread's calls.  A kept connection that the
server has closed is noticed before the next request is written and
replaced; a forked child opens its own.  :meth:`ServiceClient.close`
(or leaving a ``with`` block) ends every connection the client holds.

Failure handling is typed and retrying:

* :class:`ServerUnavailableError` — connection refused / reset / closed
  before a reply, i.e. *the server is gone* (restarting, crashed).
  Connect-phase failures are retried for every op (nothing was sent);
  mid-request failures are retried only for read-only ops, never for
  ``submit``/``shutdown`` where a blind replay could duplicate work.
* :class:`MalformedReplyError` — the socket spoke, but not JSON: a
  protocol bug or a non-lolserve endpoint, never retried.
* :class:`~repro.service.scheduler.QueueFullError` — re-raised from the
  server's typed ``queue_full`` reply with its ``retry_after`` hint so
  callers can implement polite backpressure.

The retry schedule is a :class:`~repro.faults.RetryPolicy`
(deterministic backoff), so ``lolserve submit --wait`` rides out a
server restart instead of dying on the first refused connect.
"""

from __future__ import annotations

import json
import os
import select
import socket
import threading
import time
import weakref
from typing import Mapping, Optional

from ..faults import RetryPolicy
from .scheduler import QueueFullError, ServiceError

#: Extra slack (seconds) on the socket deadline beyond a wait timeout,
#: so the server's own timeout error arrives before the socket's.
_SOCKET_SLACK = 10.0

#: Ops safe to replay after a *mid-request* connection loss: read-only,
#: or idempotent by construction.  ``submit`` is deliberately absent —
#: the server processes a request before replying, so a reply lost in
#: flight could mean the job was already enqueued.
RETRY_SAFE_OPS = frozenset(
    {"ping", "status", "wait", "cancel", "stats", "metrics", "workloads"}
)

#: Default client-side retry: 3 connect attempts with ~0.1-0.4s backoff
#: rides out a service restart without masking a genuinely absent server
#: for more than a second.
DEFAULT_CLIENT_RETRY = RetryPolicy(
    max_attempts=3, backoff_base=0.1, backoff_factor=2.0, max_backoff=1.0
)


class ServerUnavailableError(ServiceError):
    """The server cannot be reached (refused, reset, or hung up early).

    ``mid_request`` distinguishes "never connected" (always safe to
    retry) from "connection died after the request was sent" (safe only
    for :data:`RETRY_SAFE_OPS`).
    """

    error_type = "server_unavailable"
    retryable = True

    def __init__(self, message: str, *, mid_request: bool) -> None:
        super().__init__(message)
        self.mid_request = mid_request


class MalformedReplyError(ServiceError):
    """The endpoint replied with something that is not protocol JSON."""

    error_type = "malformed_reply"


class _Conn:
    """One thread's kept connection to the server.

    Owned by the thread's slot of :attr:`ServiceClient._local`, so it is
    closed when that thread ends or the client is collected; ``pid``
    marks the process that opened it, so a forked child never writes
    into its parent's stream.
    """

    __slots__ = ("sock", "pid", "__weakref__")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.pid = os.getpid()

    def close(self) -> None:
        self.sock.close()

    __del__ = close


class ServiceClient:
    """Blocking unix-socket client; raises :class:`ServiceError`
    subclasses on protocol-level failures (``ok: false`` responses)."""

    def __init__(
        self,
        socket_path: str,
        *,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = DEFAULT_CLIENT_RETRY,
    ) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout
        self.retry = retry
        self._local = threading.local()
        #: Every live connection of every thread, for :meth:`close`;
        #: ``_pid`` is the process the set and its lock belong to.
        self._conns: "weakref.WeakSet[_Conn]" = weakref.WeakSet()
        self._conns_lock = threading.Lock()
        self._pid = os.getpid()

    def _owned(self) -> "tuple[threading.Lock, weakref.WeakSet[_Conn]]":
        """This process's connection set and the lock guarding it.

        A forked child replaces the copies it inherited on first use: a
        parent thread may have held the lock at the fork, and no thread
        in the child would ever release it.
        """
        if self._pid != os.getpid():
            self._conns_lock = threading.Lock()
            self._conns = weakref.WeakSet()
            self._pid = os.getpid()
        return self._conns_lock, self._conns

    def close(self) -> None:
        """Close every connection this client holds, on every thread.
        A later request opens a new one."""
        lock, owned = self._owned()
        with lock:
            conns = list(owned)
            owned.clear()
        for conn in conns:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ----------------------------------------------------------

    def request(self, op: str, *, _deadline: Optional[float] = None, **fields) -> dict:
        """One request/response round trip (with availability retries)."""
        attempts = self.retry.max_attempts if self.retry else 1
        for attempt in range(1, attempts + 1):
            try:
                return self._request_once(op, _deadline, fields)
            except ServerUnavailableError as exc:
                replayable = not exc.mid_request or op in RETRY_SAFE_OPS
                if attempt >= attempts or not replayable:
                    raise
                time.sleep(self.retry.delay(attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def _connection(self, deadline: float) -> socket.socket:
        """This thread's kept socket, reconnecting when there is none,
        when it belongs to the parent of a fork, when :meth:`close`
        closed it, or when it is readable while idle (the server hung
        up: EOF, or bytes no request asked for)."""
        conn: Optional[_Conn] = getattr(self._local, "conn", None)
        if conn is not None:
            sock = conn.sock
            if conn.pid == os.getpid() and sock.fileno() >= 0:
                idle = select.poll()
                idle.register(sock, select.POLLIN)
                if not idle.poll(0):
                    sock.settimeout(deadline)
                    return sock
            self._drop()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(deadline)
        try:
            sock.connect(self.socket_path)
        except socket.timeout as exc:
            sock.close()
            raise ServerUnavailableError(
                f"no connection to {self.socket_path} within "
                f"{deadline:g}s: {exc}",
                mid_request=False,
            ) from exc
        except OSError as exc:
            sock.close()
            # Refused / socket file missing / reset during the
            # handshake: the server is down or restarting.
            raise ServerUnavailableError(
                f"cannot reach service at {self.socket_path}: {exc}",
                mid_request=False,
            ) from exc
        conn = _Conn(sock)
        self._local.conn = conn
        lock, owned = self._owned()
        with lock:
            owned.add(conn)
        return sock

    def _drop(self) -> None:
        """Forget this thread's connection (closing it in this process;
        a forked child only drops its copy of the parent's descriptor)."""
        conn: Optional[_Conn] = getattr(self._local, "conn", None)
        if conn is None:
            return
        self._local.conn = None
        lock, owned = self._owned()
        with lock:
            owned.discard(conn)
        conn.close()

    def _request_once(
        self, op: str, _deadline: Optional[float], fields: Mapping
    ) -> dict:
        payload = {"op": op, **{k: v for k, v in fields.items() if v is not None}}
        deadline = _deadline if _deadline is not None else self.timeout
        sock = self._connection(deadline)
        answered = False
        try:
            sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
            line = self._read_line(sock)
            answered = True
        except socket.timeout as exc:
            # The server is *reachable* but slow — not an availability
            # failure; a blind retry would stack more load on a
            # struggling server.
            raise ServiceError(
                f"no response from {self.socket_path} within {deadline:g}s"
            ) from exc
        except OSError as exc:
            raise ServerUnavailableError(
                f"connection to {self.socket_path} lost mid-request: {exc}",
                mid_request=True,
            ) from exc
        finally:
            if not answered:
                # A reply still owed on this connection would be read as
                # the answer to the next request.
                self._drop()
        try:
            response = json.loads(line)
            if not isinstance(response, dict):
                raise ValueError("response must be a JSON object")
        except (json.JSONDecodeError, ValueError) as exc:
            self._drop()  # the stream can no longer be trusted
            raise MalformedReplyError(
                f"malformed response from {self.socket_path}: {exc}"
            ) from exc
        if not response.get("ok"):
            message = response.get("error", "unknown service error")
            if response.get("error_type") == "queue_full":
                raise QueueFullError(
                    message, float(response.get("retry_after", 1.0))
                )
            raise ServiceError(message)
        return response

    def _read_line(self, sock: socket.socket) -> bytes:
        """One response line: the server answers each request with
        exactly one line, so the bytes received end with it."""
        chunks: list[bytes] = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        if not chunks:
            # EOF with no data: the server hung up (gone, restarting,
            # shedding, or dropping this connection) before replying.
            raise ServerUnavailableError(
                f"{self.socket_path} closed the connection before a "
                f"response arrived",
                mid_request=True,
            )
        return b"".join(chunks)

    # -- operations ---------------------------------------------------------

    def ping(self) -> int:
        """Round-trip check; returns the server pid."""
        return self.request("ping")["pid"]

    def submit(
        self,
        source: Optional[str] = None,
        *,
        workload: Optional[str] = None,
        params: Optional[Mapping[str, int]] = None,
        smoke: bool = False,
        n_pes: int = 1,
        engine: str = "vm",
        executor: str = "pool",
        seed: Optional[int] = None,
        trace: bool = False,
        timeout: Optional[float] = None,
        filename: Optional[str] = None,
    ) -> str:
        """Submit a job; returns its job id immediately."""
        return self.request(
            "submit",
            source=source,
            workload=workload,
            params=dict(params) if params else None,
            smoke=smoke or None,
            n_pes=n_pes,
            engine=engine,
            executor=executor,
            seed=seed,
            trace=trace or None,
            timeout=timeout,
            filename=filename,
        )["job_id"]

    def status(self, job_id: str) -> dict:
        return self.request("status", job_id=job_id)["job"]

    def wait(self, job_id: str, timeout: Optional[float] = None) -> dict:
        """Block until the job is terminal; returns its description.

        ``timeout`` defaults to the client's timeout and is enforced
        server-side (the socket deadline gets extra slack), so the
        server's "timed out waiting" error — which names the job's
        current state — always arrives before the socket gives up.
        """
        timeout = timeout if timeout is not None else self.timeout
        return self.request(
            "wait",
            job_id=job_id,
            timeout=timeout,
            _deadline=timeout + _SOCKET_SLACK,
        )["job"]

    def result(self, job_id: str, timeout: Optional[float] = None) -> dict:
        """Wait for the job and return its ``lolbench``-row result,
        raising :class:`ServiceError` if it did not complete."""
        job = self.wait(job_id, timeout)
        if job["state"] != "done":
            raise ServiceError(
                f"{job_id} finished as {job['state']}: "
                f"{job.get('error', 'no error recorded')}"
            )
        return job["result"]

    def cancel(self, job_id: str) -> bool:
        return self.request("cancel", job_id=job_id)["cancelled"]

    def workloads(self) -> list[str]:
        return self.request("workloads")["workloads"]

    def stats(self) -> dict:
        return self.request("stats")["stats"]

    def metrics(self) -> str:
        """Server-side metric registry in Prometheus text exposition
        format (see :func:`repro.obs.render_prometheus`)."""
        return self.request("metrics")["metrics"]

    def shutdown(self) -> None:
        self.request("shutdown")
