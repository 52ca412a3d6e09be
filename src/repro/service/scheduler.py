"""Asyncio job scheduler for the execution service.

One :class:`Scheduler` owns a FIFO :class:`asyncio.Queue` drained by
``max_concurrency`` worker tasks — bounded concurrency and first-come
first-served fairness fall out of that shape directly.  Each job runs
``run_lolcode`` on a thread (:func:`asyncio.to_thread`) under
:func:`asyncio.wait_for`, so a per-job timeout cannot stall the queue.

Compilation is **single-flight**: ``run_lolcode`` goes through the
process-wide compile cache (:func:`repro.interp.compile_vm_cached`),
which serialises concurrent identical keys — N simultaneous submissions of one source
compile it once, the other N-1 block briefly and reuse the warm entry.

Result payloads mirror ``lolbench`` rows (workload / engine / executor /
n_pes / params / seconds / checker), so a service consumer and a sweep
consumer read the same schema.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from .. import obs as _obs
from ..faults import RetryPolicy, inject, is_retryable
from ..lang.errors import LolError

# Registry-mirrored scheduler metrics.  Instance attributes stay
# canonical for `stats()` (a process may host several schedulers in
# tests); these feed the same increments into the process-wide registry
# so the Prometheus `metrics` op reads identical numbers.
_REG = _obs.get_registry()
_M_SUBMITTED = _REG.counter(
    "lol_sched_jobs_submitted_total", "Jobs admitted to the queue"
)
_M_FINISHED = _REG.counter(
    "lol_sched_jobs_finished_total", "Jobs reaching a terminal state"
)
_M_SHED = _REG.counter(
    "lol_sched_shed_total", "Submissions rejected with QueueFullError"
)
_M_RETRIES = _REG.counter(
    "lol_sched_retries_total", "Retry attempts actually performed"
)
_M_DEGRADED = _REG.counter(
    "lol_sched_degraded_total", "Jobs completed on a fallback engine"
)
_M_JOB_LATENCY = _REG.histogram(
    "lol_job_latency_seconds", "Job wall time from dispatch to terminal"
)

#: Per-engine latency samples retained per scheduler for p50/p99 rows.
_LATENCY_WINDOW = 512

#: Fallback per-job timeout (seconds) when a submission does not set one.
DEFAULT_JOB_TIMEOUT = 120.0

#: Bound on queued-but-not-running jobs; beyond it, submissions are shed
#: with a typed :class:`QueueFullError` instead of growing the queue
#: (and the server's memory) without limit.
DEFAULT_MAX_QUEUE_DEPTH = 256

#: Default re-submission policy for jobs failing with *retryable* typed
#: errors (worker death, toolchain transients, injected faults).  Those
#: are rare in a healthy deployment, so retries are on by default —
#: program-level errors never carry ``retryable`` and are never retried.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=3, backoff_base=0.05, backoff_factor=2.0, max_backoff=1.0
)


class ServiceError(Exception):
    """A request-level failure (bad submission, unknown job, ...)."""


class QueueFullError(ServiceError):
    """Submission shed: the scheduler's queue is at capacity.

    Carries ``retry_after`` (seconds, estimated from recent job
    durations and the concurrency) so clients can back off politely;
    the server forwards both as ``error_type: "queue_full"`` +
    ``retry_after`` wire fields.
    """

    error_type = "queue_full"
    retryable = True

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class JobState(str, enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    ERROR = "error"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to execute one submission."""

    source: str
    n_pes: int = 1
    engine: str = "vm"
    executor: str = "pool"
    seed: Optional[int] = None
    trace: bool = False
    filename: str = "<service>"
    workload: Optional[str] = None
    params: Mapping[str, int] = field(default_factory=dict)
    timeout: Optional[float] = None
    fallback_engine: Optional[str] = None
    max_attempts: Optional[int] = None

    @classmethod
    def from_request(cls, payload: Mapping) -> "JobSpec":
        """Validate and resolve a wire-format submission.

        Submissions carry either raw ``source`` or a registry
        ``workload`` name (plus ``params`` overrides); a workload job
        gets its source generated here and its checker run on the
        result, exactly like a ``lolbench`` sweep cell.

        ``engine="c"`` jobs run as native OS processes under any
        executor (the native build cache keeps repeat jobs warm), skip
        the scheduler's pool gate, and refuse ``trace``.
        """
        from ..launcher import ENGINES, EXECUTORS

        source = payload.get("source")
        workload = payload.get("workload")
        params = dict(payload.get("params") or {})
        if (source is None) == (workload is None):
            raise ServiceError(
                "submit needs exactly one of 'source' or 'workload'"
            )
        if workload is not None:
            from ..workloads import WorkloadError, get_workload

            try:
                w = get_workload(workload)
                params = dict(
                    w.bind_params(params, smoke=bool(payload.get("smoke")))
                )
                source = w.source(params)
            except WorkloadError as exc:
                raise ServiceError(str(exc)) from exc
        engine = payload.get("engine", "vm")
        executor = payload.get("executor", "pool")
        if engine not in ENGINES:
            raise ServiceError(
                f"unknown engine {engine!r} (choose from {ENGINES})"
            )
        if executor not in EXECUTORS:
            raise ServiceError(
                f"unknown executor {executor!r} (choose from {EXECUTORS})"
            )
        if engine == "c" and payload.get("trace"):
            # Don't accept a job that can only fail later in the launcher.
            raise ServiceError(
                "engine 'c' does not support op tracing; submit with "
                "engine 'vm' for traced runs"
            )
        n_pes = payload.get("n_pes", 1)
        if not isinstance(n_pes, int) or n_pes < 1:
            raise ServiceError(f"n_pes must be a positive integer, got {n_pes!r}")
        timeout = payload.get("timeout")
        if timeout is not None and not (
            isinstance(timeout, (int, float)) and timeout > 0
        ):
            raise ServiceError(f"timeout must be a positive number, got {timeout!r}")
        fallback_engine = payload.get("fallback_engine")
        if fallback_engine is not None:
            if fallback_engine not in ENGINES:
                raise ServiceError(
                    f"unknown fallback_engine {fallback_engine!r} "
                    f"(choose from {ENGINES})"
                )
            if fallback_engine == engine:
                raise ServiceError(
                    "fallback_engine must differ from engine "
                    f"(both {engine!r})"
                )
        max_attempts = payload.get("max_attempts")
        if max_attempts is not None and not (
            isinstance(max_attempts, int) and max_attempts >= 1
        ):
            raise ServiceError(
                f"max_attempts must be a positive integer, got {max_attempts!r}"
            )
        return cls(
            source=source,
            n_pes=n_pes,
            engine=engine,
            executor=executor,
            seed=payload.get("seed"),
            trace=bool(payload.get("trace", False)),
            filename=payload.get("filename")
            or (f"<workload:{workload}>" if workload else "<service>"),
            workload=workload,
            params=params,
            timeout=timeout,
            fallback_engine=fallback_engine,
            max_attempts=max_attempts,
        )


@dataclass
class Job:
    """One submission's lifecycle record."""

    job_id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[str] = None
    done: asyncio.Event = field(default_factory=asyncio.Event)
    #: per-attempt failure records (empty when the first attempt worked)
    attempts: list = field(default_factory=list)

    def describe(self) -> dict:
        """Wire-format job status (the ``status``/``wait`` payload)."""
        out = {
            "job_id": self.job_id,
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.attempts:
            out["attempts"] = list(self.attempts)
        return out


def execute_job(spec: JobSpec) -> dict:
    """Run one job synchronously; returns a ``lolbench``-row-shaped dict.

    Raises on infrastructure failures; LOLCODE/program failures are
    raised as :class:`~repro.lang.errors.LolError` and recorded by the
    scheduler as the job's error.
    """
    from ..launcher import run_lolcode

    t0 = time.perf_counter()
    result = run_lolcode(
        spec.source,
        spec.n_pes,
        executor=spec.executor,
        engine=spec.engine,
        seed=spec.seed,
        trace=spec.trace,
        filename=spec.filename,
        fallback_engine=spec.fallback_engine,
    )
    elapsed = time.perf_counter() - t0
    row = {
        "workload": spec.workload or "<source>",
        "engine": spec.engine,
        "executor": spec.executor,
        "n_pes": spec.n_pes,
        "params": dict(spec.params),
        "seconds": round(elapsed, 6),
        "outputs": result.outputs,
        "output": result.output,
    }
    if result.degraded:
        # The requested engine failed and the recorded fallback ran
        # instead — the result is real but the row must say so.
        row["degraded"] = True
        row["degraded_reason"] = result.degraded_reason
    if spec.trace and result.trace is not None:
        row["trace"] = result.trace.summary()
    if spec.workload is not None:
        from ..workloads import get_workload

        try:
            problems = get_workload(spec.workload).check(
                result, spec.n_pes, dict(spec.params)
            )
        except Exception as exc:  # noqa: BLE001 - a checker tripping over
            # malformed output is a verification failure, not a crash
            problems = [f"checker raised {type(exc).__name__}: {exc}"]
        row["checker"] = "pass" if not problems else problems
    return row


class Scheduler:
    """FIFO queue + bounded worker tasks over :func:`execute_job`."""

    def __init__(
        self,
        *,
        max_concurrency: int = 2,
        default_timeout: float = DEFAULT_JOB_TIMEOUT,
        max_retained_jobs: int = 1000,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.max_concurrency = max_concurrency
        self.default_timeout = default_timeout
        self.max_retained_jobs = max_retained_jobs
        self.max_queue_depth = max_queue_depth
        self.retry_policy = retry_policy
        self._queue: asyncio.Queue[Job] = asyncio.Queue()
        self._jobs: Dict[str, Job] = {}
        #: terminal job ids in completion order, oldest first — the
        #: eviction queue that keeps a long-lived service's memory flat
        self._terminal_order: deque[str] = deque()
        self._ids = itertools.count(1)
        self._workers: list[asyncio.Task] = []
        #: pool-executor jobs serialise here *before* their timeout
        #: clock starts: the warm pool runs one job at a time, and a
        #: job must not be "timed out" for time spent queued behind
        #: sibling pool jobs it could never preempt.
        self._pool_gate = asyncio.Lock()
        self._running = 0
        self.peak_running = 0  # observability: max concurrent jobs seen
        #: robustness counters, surfaced through ``stats`` (and from
        #: there ``lolserve stats``)
        self.retries_total = 0  # retry attempts actually performed
        self.shed_total = 0  # submissions rejected with QueueFullError
        self.degraded_total = 0  # jobs completed on a fallback engine
        #: EMA of job wall time, feeding QueueFullError's retry-after
        self._ema_job_s = 0.1
        #: recent job wall times per engine (bounded), feeding the
        #: per-engine p50/p99 block in ``stats()`` — the load-shedding
        #: inputs ROADMAP item 3 names
        self._latency: Dict[str, deque] = {}

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self._workers:
            return
        self._workers = [
            asyncio.create_task(self._worker_loop(), name=f"sched-worker-{i}")
            for i in range(self.max_concurrency)
        ]

    async def stop(self) -> None:
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []

    # -- client-facing operations -------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Enqueue a job (FIFO); returns its record immediately.

        Admission is bounded: past ``max_queue_depth`` queued jobs the
        submission is shed with :class:`QueueFullError` (carrying a
        retry-after estimate) instead of growing the backlog without
        limit — under overload, fast rejection beats slow timeouts.
        """
        depth = self._queue.qsize()
        rule = inject("scheduler.enqueue")
        forced = rule is not None and rule.kind == "queue_full"
        if forced or depth >= self.max_queue_depth:
            self.shed_total += 1
            _M_SHED.inc()
            retry_after = round(
                max(0.05, (depth + 1) * self._ema_job_s / self.max_concurrency),
                3,
            )
            raise QueueFullError(
                f"queue full ({depth}/{self.max_queue_depth} jobs queued"
                + (", injected fault at site 'scheduler.enqueue'" if forced else "")
                + f"); retry in ~{retry_after:g}s",
                retry_after,
            )
        job = Job(job_id=f"job-{next(self._ids)}", spec=spec)
        self._jobs[job.job_id] = job
        self._queue.put_nowait(job)
        _M_SUBMITTED.inc(engine=job.spec.engine)
        rt = _obs.ACTIVE
        if rt is not None and rt.trace_on:
            rt.tracer.instant(
                "sched",
                f"queued:{job.job_id}",
                args={"engine": job.spec.engine, "depth": depth + 1},
            )
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job id {job_id!r}") from None

    async def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job reaches a terminal state."""
        job = self.get(job_id)
        try:
            await asyncio.wait_for(job.done.wait(), timeout)
        except asyncio.TimeoutError:
            raise ServiceError(
                f"timed out waiting for {job_id} (state: {job.state.value})"
            ) from None
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running jobs cannot be revoked (their
        worker thread is already executing) and return ``False``."""
        job = self.get(job_id)
        if job.state is JobState.QUEUED:
            job.state = JobState.CANCELLED
            job.finished_at = time.time()
            job.done.set()
            self._retire(job)
            return True
        return False

    def _retire(self, job: Job) -> None:
        """Record a terminal job and evict the oldest terminal records
        beyond ``max_retained_jobs`` — a persistent service must not
        accumulate every result (with its full per-PE outputs) forever."""
        self._terminal_order.append(job.job_id)
        while len(self._terminal_order) > self.max_retained_jobs:
            self._jobs.pop(self._terminal_order.popleft(), None)

    def stats(self) -> dict:
        states = {state.value: 0 for state in JobState}
        for job in self._jobs.values():
            states[job.state.value] += 1
        return {
            "jobs": len(self._jobs),
            "states": states,
            "queued": self._queue.qsize(),
            "running": self._running,
            "peak_running": self.peak_running,
            "max_concurrency": self.max_concurrency,
            "max_queue_depth": self.max_queue_depth,
            "retries": self.retries_total,
            "shed": self.shed_total,
            "degraded": self.degraded_total,
            "retry_policy": self.retry_policy.describe(),
            "latency": self.latency_summary(),
        }

    def latency_summary(self) -> dict:
        """Per-engine job wall-time p50/p99 over the recent window —
        with queue depth and worker liveness, the third load-shedding
        input ROADMAP item 3 names."""
        out = {}
        for engine in sorted(self._latency):
            window = self._latency[engine]
            if not window:
                continue
            samples = list(window)
            out[engine] = {
                "count": len(samples),
                "p50_s": round(_obs.percentile(samples, 50), 6),
                "p99_s": round(_obs.percentile(samples, 99), 6),
                "mean_s": round(sum(samples) / len(samples), 6),
            }
        return out

    # -- execution ----------------------------------------------------------

    async def _worker_loop(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                if job.state is JobState.QUEUED:
                    await self._run_job(job)
            finally:
                self._queue.task_done()

    async def _run_job(self, job: Job) -> None:
        job.state = JobState.RUNNING
        self._running += 1
        self.peak_running = max(self.peak_running, self._running)
        rt = _obs.ACTIVE
        t0 = time.perf_counter() if rt is not None else 0.0
        try:
            # Native jobs run their own OS processes, never the pool's
            # workers, so only Python-engine pool jobs queue on the gate.
            if job.spec.executor == "pool" and job.spec.engine != "c":
                async with self._pool_gate:
                    await self._execute(job)
            else:
                await self._execute(job)
        finally:
            self._running -= 1
            job.finished_at = time.time()
            if job.started_at is not None:
                self._record_latency(
                    job.spec.engine, job.finished_at - job.started_at
                )
            _M_FINISHED.inc(engine=job.spec.engine, state=job.state.value)
            if rt is not None and rt.trace_on:
                rt.tracer.complete(
                    "sched",
                    f"job:{job.job_id}",
                    t0,
                    time.perf_counter() - t0,
                    args={
                        "engine": job.spec.engine,
                        "executor": job.spec.executor,
                        "state": job.state.value,
                        "queued_s": round(
                            (job.started_at or job.finished_at)
                            - job.submitted_at,
                            6,
                        ),
                    },
                )
            job.done.set()
            self._retire(job)

    def _record_latency(self, engine: str, seconds: float) -> None:
        window = self._latency.get(engine)
        if window is None:
            window = self._latency[engine] = deque(maxlen=_LATENCY_WINDOW)
        window.append(seconds)
        _M_JOB_LATENCY.observe(seconds, engine=engine)

    async def _execute(self, job: Job) -> None:
        job.started_at = time.time()
        timeout = job.spec.timeout or self.default_timeout
        try:
            # The per-job timeout bounds the *whole* attempt loop
            # (including backoff sleeps): retries must never let one
            # job hold a worker slot longer than its budget.
            job.result = await asyncio.wait_for(
                self._run_attempts(job), timeout
            )
            job.state = JobState.DONE
            if job.result.get("degraded"):
                self.degraded_total += 1
                _M_DEGRADED.inc()
        except asyncio.TimeoutError:
            # The worker thread cannot be killed; the run itself is
            # bounded by its barrier timeout.  The *job* is failed now
            # so the queue keeps moving.
            job.state = JobState.ERROR
            job.error = f"job timed out after {timeout:g}s"
            if job.attempts:
                job.error += (
                    f" (attempt {len(job.attempts)} had failed with: "
                    f"{job.attempts[-1]['error']})"
                )
        except LolError as exc:
            job.state = JobState.ERROR
            job.error = exc.render()
        except Exception as exc:  # noqa: BLE001 - recorded per job
            job.state = JobState.ERROR
            job.error = f"{type(exc).__name__}: {exc}"
        finally:
            if job.started_at is not None:
                elapsed = time.time() - job.started_at
                self._ema_job_s = 0.8 * self._ema_job_s + 0.2 * elapsed

    async def _run_attempts(self, job: Job) -> dict:
        """Run the job, re-submitting on *retryable* typed failures.

        Worker death, toolchain transients, and injected faults carry
        ``retryable = True`` and get up to ``max_attempts`` tries with
        deterministic exponential backoff; every failed attempt is
        recorded on the job (and echoed into the result row), so "it
        worked, on the second try, after a worker crash" is visible to
        the submitter, not silently papered over.
        """
        policy = self.retry_policy
        max_attempts = job.spec.max_attempts or policy.max_attempts
        for attempt in itertools.count(1):
            try:
                row = await asyncio.to_thread(execute_job, job.spec)
            except Exception as exc:  # noqa: BLE001 - classified below
                retryable = is_retryable(exc)
                brief = f"{type(exc).__name__}: {exc}"
                record = {
                    "attempt": attempt,
                    "error": brief[:300],
                    "retryable": retryable,
                }
                job.attempts.append(record)
                if not retryable or attempt >= max_attempts:
                    raise
                delay = policy.delay(attempt, seed=job.spec.seed or 0)
                record["backoff_s"] = round(delay, 4)
                self.retries_total += 1
                _M_RETRIES.inc()
                await asyncio.sleep(delay)
                continue
            row["attempt_count"] = attempt
            if job.attempts:
                row["retries"] = list(job.attempts)
            return row
