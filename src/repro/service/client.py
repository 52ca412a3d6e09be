"""Synchronous client for the execution service.

Speaks the newline-delimited JSON protocol of
:mod:`repro.service.server` over a unix-domain socket.  Each request
opens its own connection, so one client object is safe to share across
threads and a long ``wait`` never head-of-line-blocks other calls.

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
import socket
import time
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

    def _request_once(
        self, op: str, _deadline: Optional[float], fields: Mapping
    ) -> dict:
        payload = {"op": op, **{k: v for k, v in fields.items() if v is not None}}
        deadline = _deadline if _deadline is not None else self.timeout
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(deadline)
        try:
            try:
                sock.connect(self.socket_path)
            except socket.timeout as exc:
                raise ServerUnavailableError(
                    f"no connection to {self.socket_path} within "
                    f"{deadline:g}s: {exc}",
                    mid_request=False,
                ) from exc
            except OSError as exc:
                # Refused / socket file missing / reset during the
                # handshake: the server is down or restarting.
                raise ServerUnavailableError(
                    f"cannot reach service at {self.socket_path}: {exc}",
                    mid_request=False,
                ) from exc
            try:
                sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
                line = self._read_line(sock)
            except socket.timeout as exc:
                # The server is *reachable* but slow — not an
                # availability failure; a blind retry would stack more
                # load on a struggling server.
                raise ServiceError(
                    f"no response from {self.socket_path} within {deadline:g}s"
                ) from exc
            except OSError as exc:
                raise ServerUnavailableError(
                    f"connection to {self.socket_path} lost mid-request: {exc}",
                    mid_request=True,
                ) from exc
        finally:
            sock.close()
        try:
            response = json.loads(line)
            if not isinstance(response, dict):
                raise ValueError("response must be a JSON object")
        except (json.JSONDecodeError, ValueError) as exc:
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
        chunks: list[bytes] = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        if not chunks:
            # EOF with no data: the server accepted the connection and
            # hung up — gone (or shedding) between accept and reply.
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
        fallback_engine: Optional[str] = None,
        max_attempts: Optional[int] = None,
    ) -> str:
        """Submit a job; returns its job id immediately.

        ``fallback_engine`` opts into graceful degradation (the result
        row is marked ``degraded`` if the fallback ran); ``max_attempts``
        overrides the scheduler's retry budget for this job.
        """
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
            fallback_engine=fallback_engine,
            max_attempts=max_attempts,
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
