"""Warm process-worker pool: the executor that runs every process world.

Each PE of a pooled job runs in its own worker process over the
shared-memory world of :mod:`repro.shmem.runtime_procs`.  Spawning a
fresh Python interpreter (importing :mod:`repro` and :mod:`numpy`) per
PE per ``run_lolcode`` call would cost hundreds of milliseconds, far
more than a small kernel runs, so the pool keeps the workers alive:

* **workers** are spawned once and then accept successive jobs over a
  per-worker duplex pipe; each job message carries the picklable
  ``pe_main`` (the launcher's ``partial(_pe_main, source, ...)``), so a
  worker's per-process compile caches stay warm across jobs of the same
  source;
* **synchronisation primitives** (barriers for every party count up to
  the pool size, a fixed bank of symbol locks, the epoch counter, the
  atomics mutex) are created with the pool and inherited by workers at
  spawn time — multiprocessing primitives cannot travel over pipes, so
  they must pre-exist; the per-job world is rebuilt around them;
* **shared-memory segments** are pooled and recycled by power-of-two
  size class: a job acquires the smallest free segment that fits its
  symmetric plan (creating one only on a size-class miss) and returns
  it on completion; a worker maps a segment the first time a job uses
  it and keeps it mapped until the worker stops;
* **crashed workers are replaced transparently**: a worker process that
  dies (mid-job or idle) fails at most the job it was running — the
  pool respawns its slot before the next job, and the job error names
  the dead rank.

One pool runs one job at a time (``run`` is serialised by a mutex): the
barrier/lock bank is a single set, and an N-worker pool running one
N-PE job is the right occupancy anyway.  Concurrency above the pool is
the scheduler's business (:mod:`repro.service.scheduler`), which also
keeps ``executor="thread"`` jobs flowing in parallel with pool jobs.

``run_pooled`` + ``get_default_pool`` expose a lazily created default
pool that grows to the largest PE count and lock count seen — that is
what the launcher's ``executor="pool"`` uses, returning the same
:class:`~repro.shmem.runtime_threads.SpmdResult` as the thread
executor.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory
from typing import Callable, Optional, Sequence

import numpy as np

from .. import obs as _obs
from ..faults import InjectedFaultError, inject
from ..lang.errors import LolParallelError
from ..shmem.api import DEFAULT_BARRIER_TIMEOUT, ShmemContext
from ..shmem.heap import SymmetricPlan
from ..shmem.runtime_procs import (
    _ITEM,
    _ProcEpochBox,
    _WorldSpec,
    _build_world,
    plan_layout,
)
from ..shmem.runtime_threads import SpmdResult
from ..shmem.trace import OpTrace, merge_traces

# Registry-mirrored pool counters: the per-instance attributes below
# (jobs_run, workers_replaced, ...) stay canonical for callers holding a
# pool object; these mirror the same increments into the process-wide
# registry so `lolserve stats` / the `metrics` op read identical numbers.
_REG = _obs.get_registry()
_M_JOBS = _REG.counter("lol_pool_jobs_total", "SPMD jobs run on the warm pool")
_M_REPLACED = _REG.counter(
    "lol_pool_workers_replaced_total", "Pool workers respawned after death"
)
_M_REBUILDS = _REG.counter(
    "lol_pool_rebuilds_total", "Full pool rebuilds (primitive bank reset)"
)
_M_SEG_CREATED = _REG.counter(
    "lol_pool_segments_created_total", "Shared-memory segments allocated"
)
_M_SEG_REUSED = _REG.counter(
    "lol_pool_segments_reused_total", "Shared-memory segments recycled"
)

#: Symbol-lock bank size.  ``IM SHARIN IT`` symbols map onto these in
#: plan order; the default pool grows its bank for programs needing
#: more, and an explicit pool rejects them with a clear error.
DEFAULT_MAX_LOCKS = 32

#: Smallest segment size class (bytes) — tiny plans share one class.
_MIN_SEGMENT = 4096


class WorkerCrashError(LolParallelError):
    """A worker process died (or corrupted its reply protocol) mid-job.

    The pool has already rebuilt itself by the time this is raised, so a
    fresh attempt runs against fresh workers — which is why it is the
    canonical *retryable* pool failure
    (:func:`repro.faults.is_retryable`): the job itself was never the
    problem.
    """

    retryable = True


class StragglerTimeoutError(LolParallelError):
    """PE(s) went silent past the drain deadline and were replaced.

    Deliberately **not** retryable by default: a straggler is just as
    likely a program-level deadlock (which a retry would faithfully
    reproduce, burning another timeout) as an infrastructure hiccup.
    """

    retryable = False


def _size_class(nbytes: int) -> int:
    """Round a byte count up to its power-of-two recycling class."""
    size = _MIN_SEGMENT
    while size < nbytes:
        size *= 2
    return size


class SegmentPool:
    """Shared-memory segments recycled by power-of-two size class."""

    def __init__(self) -> None:
        self._free: dict[int, list[shared_memory.SharedMemory]] = {}
        self._all: dict[str, shared_memory.SharedMemory] = {}
        self.created = 0
        self.reused = 0

    def acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        cls = _size_class(nbytes)
        bucket = self._free.get(cls)
        if bucket:
            self.reused += 1
            _M_SEG_REUSED.inc()
            return bucket.pop()
        self.created += 1
        _M_SEG_CREATED.inc()
        shm = shared_memory.SharedMemory(create=True, size=cls)
        self._all[shm.name] = shm
        return shm

    def release(self, shm: shared_memory.SharedMemory) -> None:
        self._free.setdefault(shm.size, []).append(shm)

    def close(self) -> None:
        for shm in self._all.values():
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - platform dependent
                pass
        self._free.clear()
        self._all.clear()


@dataclass(frozen=True, slots=True)
class _PoolJob:
    """One PE's share of a pooled SPMD job (sent over the worker pipe)."""

    job_id: int
    pe: int
    spec: _WorldSpec
    pe_main: Callable[[ShmemContext], object]
    seed: Optional[int]
    stdin_lines: Optional[Sequence[str]]
    trace: bool
    #: Observability mode ("trace,metrics", …) or "" when disarmed.
    #: Carried per job because warm workers outlive any later arming in
    #: the parent — the spawn-time LOL_OBS environment is not enough.
    obs: str = ""


def _pool_worker_main(index, conn, barriers, locks, epoch_value, atomic_lock):
    """Worker process main loop: run, reply, repeat.

    The pool-wide primitives arrive once, at spawn; each job message
    then only has to carry the (picklable) world *layout* and program.
    The worker maps each pooled segment the first time a job names it
    and keeps it mapped until it stops, as a PE maps the symmetric heap
    once at ``shmem_init``: the pool unlinks segments only after its
    workers have stopped, and a rebuild spawns workers with no mappings.
    A LOLCODE-level failure is marshalled back as an ``error`` reply and
    the worker lives on — only process death costs a respawn.
    """
    attached: dict[str, shared_memory.SharedMemory] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            msg = ("stop",)  # the parent is gone
        if msg[0] == "stop":
            for shm in attached.values():
                shm.close()
            return
        job: _PoolJob = msg[1]
        if job.obs:
            _obs.ensure_armed(job.obs)
        barrier = barriers[job.spec.n_pes]
        world = None
        try:
            shm = attached.get(job.spec.shm_name)
            if shm is None:
                shm = shared_memory.SharedMemory(name=job.spec.shm_name)
                attached[job.spec.shm_name] = shm
            lock_map = {
                name: locks[i]
                for i, name in enumerate(job.spec.plan.lock_names())
            }
            world = _build_world(
                job.spec, shm.buf, barrier, lock_map, epoch_value, atomic_lock
            )
            ctx = ShmemContext(
                world,
                job.pe,
                seed=job.seed,
                stdin_lines=job.stdin_lines,
                trace=job.trace,
            )
            ret = job.pe_main(ctx)
            # Final wire field: this worker's drained observability
            # payload (spans + metrics delta), or None when disarmed.
            reply = (
                "ok", job.job_id, job.pe, ctx.output, ret, ctx.trace,
                _obs.drain(),
            )
            # Worker-side injection site: this process was spawned with
            # the parent's environment, so an exported LOL_FAULTS plan
            # armed it at import time.  Failing *here* — after the work,
            # before the reply — exercises the parent's real recovery
            # machinery (death detection, protocol hardening, respawn).
            rule = inject("pool.reply", rank=job.pe, job=job.job_id)
            if rule is not None:
                if rule.kind == "kill":
                    os._exit(113)
                elif rule.kind == "delay":
                    time.sleep(rule.delay_s)
                elif rule.kind == "garbage":
                    reply = ("garbage", b"\xfe\xed\xfa\xce")
            conn.send(reply)
        except BaseException as exc:  # noqa: BLE001 - marshalled to parent
            # Abort *before* replying: the parent resets the barrier for
            # the next job once every PE has replied, so an abort landing
            # after our reply could arrive post-reset and re-break it.
            try:
                barrier.abort()
            except Exception:
                pass
            # Free any symbol locks this PE still holds.  The lock bank
            # is persistent, so a lock left acquired here would poison
            # every later job that maps the same slot (e.g. erroring out
            # of an ``IM SRSLY MESIN WIF`` region).
            if world is not None:
                for name in job.spec.plan.lock_names():
                    try:
                        if world.locks.owner(name) == job.pe:
                            world.locks.release(name, job.pe)
                    except Exception:
                        pass
            try:
                conn.send(
                    (
                        "error",
                        job.job_id,
                        job.pe,
                        traceback.format_exc(),
                        repr(exc),
                        None,
                        _obs.drain(),
                    )
                )
            except OSError:
                return


@dataclass
class _Worker:
    index: int
    process: mp.process.BaseProcess
    conn: object  # parent end of the duplex pipe


class WorkerPool:
    """A fixed-size pool of warm SPMD worker processes.

    ``size`` bounds the PE count of any one job; ``run`` executes one
    job at a time (see the module docstring for why).
    """

    def __init__(
        self,
        size: int,
        *,
        max_locks: int = DEFAULT_MAX_LOCKS,
        start_method: str = "spawn",
    ) -> None:
        if size < 1:
            raise LolParallelError(f"worker pool needs at least 1 PE, got {size}")
        self.size = size
        self.max_locks = max_locks
        self._mpctx = mp.get_context(start_method)
        self._mutex = threading.Lock()
        self._closed = False
        self._job_counter = 0
        self.jobs_run = 0
        self.workers_replaced = 0
        self.rebuilds = 0
        self.segments = SegmentPool()
        self._make_primitives()
        self._workers = [self._spawn(i) for i in range(size)]

    def _make_primitives(self) -> None:
        """(Re)create the shared synchronisation bank the workers
        inherit at spawn: barriers for every party count, the symbol
        lock bank, the epoch counter, and the atomics mutex."""
        self._epoch_value = self._mpctx.Value("i", 0)
        epoch_box = _ProcEpochBox(self._epoch_value)
        self._barriers = {
            n: self._mpctx.Barrier(n, action=epoch_box.increment)
            for n in range(1, self.size + 1)
        }
        self._locks = tuple(self._mpctx.Lock() for _ in range(self.max_locks))
        self._atomic_lock = self._mpctx.Lock()

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self, index: int) -> _Worker:
        rule = inject("pool.worker_spawn", rank=index)
        if rule is not None and rule.kind == "fail":
            raise InjectedFaultError(rule)
        parent_conn, child_conn = self._mpctx.Pipe(duplex=True)
        process = self._mpctx.Process(
            target=_pool_worker_main,
            args=(
                index,
                child_conn,
                self._barriers,
                self._locks,
                self._epoch_value,
                self._atomic_lock,
            ),
            name=f"pool-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(index, process, parent_conn)

    @staticmethod
    def _terminate(worker: _Worker) -> None:
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - last resort
                worker.process.kill()
                worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def _replace(self, index: int) -> _Worker:
        """Respawn one worker slot onto the *existing* primitive bank.

        Only safe for a worker that died **idle** (between jobs it holds
        no lock, no barrier slot): mid-job deaths must go through
        :meth:`_rebuild` instead.
        """
        self._terminate(self._workers[index])
        self.workers_replaced += 1
        _M_REPLACED.inc()
        self._workers[index] = self._spawn(index)
        return self._workers[index]

    def _rebuild(self) -> None:
        """Tear down every worker *and* the shared primitive bank, then
        respawn.  Required after a mid-job death or a straggler
        termination: a process killed inside a critical section leaves
        an mp lock held (or the atomics mutex, or barrier internals)
        with no owner to release it, silently poisoning every later job
        — so warm-but-possibly-poisoned primitives are traded for a
        cold restart.  Pooled segments are plain memory and survive.
        """
        for worker in self._workers:
            self._terminate(worker)
        self._make_primitives()
        self.rebuilds += 1
        _M_REBUILDS.inc()
        self._workers = [self._spawn(i) for i in range(self.size)]

    def _ensure_alive(self, index: int) -> _Worker:
        worker = self._workers[index]
        if not worker.process.is_alive():
            worker = self._replace(index)
        return worker

    @property
    def alive(self) -> bool:
        return not self._closed

    def worker_pids(self) -> list[int]:
        """Current worker process ids (stable across jobs unless a
        worker crashed and was replaced — the warmness observable)."""
        return [w.process.pid for w in self._workers]

    def workers_alive(self) -> int:
        """How many worker processes are currently alive (the liveness
        gauge: equals ``size`` when healthy)."""
        return sum(1 for w in self._workers if w.process.is_alive())

    # -- job execution ------------------------------------------------------

    def run(
        self,
        pe_main: Callable[[ShmemContext], object],
        n_pes: int,
        plan: SymmetricPlan,
        *,
        seed: Optional[int] = None,
        stdin_lines: Optional[Sequence[Sequence[str]]] = None,
        trace: bool = False,
        barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    ) -> SpmdResult:
        """Execute ``pe_main(ctx)`` on ``n_pes`` warm workers.

        ``plan`` lists every symmetric symbol of the job; each worker
        builds its world's heap from it before ``pe_main`` runs (build it
        with :func:`repro.launcher.spmd.plan_from_program` for LOLCODE
        programs, or with :meth:`~repro.shmem.heap.SymmetricPlan.add`
        for raw Python SPMD workers).  Symmetric data must be numeric.
        ``pe_main`` must be picklable (a module-level function or a
        ``partial`` of one): it travels to the workers over their pipes.  Returns the same
        :class:`SpmdResult` as the thread executor.
        """
        with self._mutex:
            if self._closed:
                raise LolParallelError("worker pool is closed")
            if n_pes < 1:
                raise LolParallelError(f"need at least 1 PE, got {n_pes}")
            if n_pes > self.size:
                raise LolParallelError(
                    f"job needs {n_pes} PEs but the pool has {self.size} "
                    "workers"
                )
            return self._run_locked(
                pe_main,
                n_pes,
                plan,
                seed=seed,
                stdin_lines=stdin_lines,
                trace=trace,
                barrier_timeout=barrier_timeout,
            )

    def _run_locked(
        self,
        pe_main,
        n_pes,
        plan,
        *,
        seed,
        stdin_lines,
        trace,
        barrier_timeout,
    ) -> SpmdResult:
        offsets, data_elems = plan_layout(plan, n_pes)
        lock_names = plan.lock_names()
        if len(lock_names) > self.max_locks:
            raise LolParallelError(
                f"program declares {len(lock_names)} shared locks but the "
                f"pool's lock bank holds {self.max_locks}"
            )
        exchange_offset = data_elems
        owners_offset = data_elems + n_pes
        total_elems = owners_offset + max(1, len(lock_names))
        shm = self.segments.acquire(max(1, total_elems * _ITEM))
        try:
            # Recycled segments carry the previous job's bytes: zero the
            # region this plan addresses and free every lock-owner slot.
            np.ndarray((total_elems,), dtype="int64", buffer=shm.buf)[:] = 0
            owners = np.ndarray(
                (max(1, len(lock_names)),),
                dtype="int64",
                buffer=shm.buf,
                offset=owners_offset * _ITEM,
            )
            owners[:] = -1
            self._epoch_value.value = 0
            spec = _WorldSpec(
                n_pes=n_pes,
                shm_name=shm.name,
                plan=plan,
                offsets=offsets,
                exchange_offset=exchange_offset,
                owners_offset=owners_offset,
                barrier_timeout=barrier_timeout,
            )
            self._job_counter += 1
            job_id = self._job_counter
            rt = _obs.ACTIVE
            obs_mode = rt.mode if rt is not None else ""
            _job_span = (
                rt.tracer.span(
                    "pool", f"job{job_id}", args={"n_pes": n_pes}
                )
                if rt is not None and rt.trace_on
                else nullcontext()
            )
            dispatched = 0
            with _job_span:
              try:
                  for pe in range(n_pes):
                      worker = self._ensure_alive(pe)
                      rule = inject("pool.job_send", rank=pe, job=job_id)
                      if rule is not None:
                          if rule.kind == "drop":
                              # Simulated dispatch failure: the except
                              # clause below rebuilds (partially
                              # dispatched siblings are running) and the
                              # typed error names the injected site.
                              raise InjectedFaultError(rule)
                          if rule.kind == "kill":
                              # Kill the target *before* the send so the
                              # BrokenPipe replace-and-resend path below
                              # runs deterministically.
                              worker.process.terminate()
                              worker.process.join(timeout=5.0)
                      job = _PoolJob(
                          job_id,
                          pe,
                          spec,
                          pe_main,
                          seed,
                          stdin_lines[pe] if stdin_lines else None,
                          trace,
                          obs_mode,
                      )
                      try:
                          worker.conn.send(("job", job))
                      except (BrokenPipeError, OSError):
                          # Died between the liveness check and the send.
                          worker = self._replace(pe)
                          worker.conn.send(("job", job))
                      if rt is not None and rt.trace_on:
                          rt.tracer.instant(
                              "pool", f"send-pe{pe}", args={"job": job_id}
                          )
                      dispatched += 1
              except Exception:
                  # Dispatch died partway: workers 0..dispatched-1 are
                  # already running this job and hold views into the
                  # segment.  Rebuild the pool (terminating releases their
                  # mappings, and they may be mid-critical-section) before
                  # the finally clause recycles the segment.
                  self._rebuild()
                  raise
              result = self._collect(job_id, n_pes, plan, trace, barrier_timeout)
              self.jobs_run += 1
              _M_JOBS.inc()
              return result
        finally:
            self.segments.release(shm)

    def _collect(
        self, job_id: int, n_pes: int, plan, trace: bool, barrier_timeout: float
    ) -> SpmdResult:
        rt = _obs.ACTIVE
        results: dict[int, tuple] = {}
        errors: list[tuple] = []
        error_pes: set[int] = set()
        dead_pes: set[int] = set()
        drain_timeout = barrier_timeout * 2
        deadline = time.monotonic() + drain_timeout

        def pending() -> list[int]:
            return [
                pe
                for pe in range(n_pes)
                if pe not in results and pe not in error_pes and pe not in dead_pes
            ]

        def mark_dead(pe: int, detail: str, brief: str) -> None:
            # Hard crash (or protocol corruption): the worker can never
            # reply usefully.  Unblock its siblings (they fail with
            # barrier-broken); the slot is respawned by the post-drain
            # rebuild.
            dead_pes.add(pe)
            errors.append(("error", job_id, pe, detail, brief, None, None))
            try:
                self._barriers[n_pes].abort()
            except Exception:
                pass

        def mark_crashed(pe: int) -> None:
            mark_dead(
                pe,
                f"worker process died "
                f"(exitcode {self._workers[pe].process.exitcode})",
                "WorkerCrash",
            )

        # The deadline is a *silence* window: every reply pushes it out,
        # so staggered-but-healthy PEs are not cut off at a fixed total.
        while pending() and time.monotonic() < deadline:
            pend = pending()
            # One wakeup across every pending pipe (and process
            # sentinel, so a death wakes us too) instead of a serial
            # poll(0.002) per worker per sweep.
            waitables = [self._workers[pe].conn for pe in pend]
            waitables += [self._workers[pe].process.sentinel for pe in pend]
            mp_connection.wait(
                waitables, timeout=min(0.2, deadline - time.monotonic())
            )
            progressed = False
            for pe in pend:
                worker = self._workers[pe]
                try:
                    has_msg = worker.conn.poll(0)
                except (EOFError, OSError):
                    has_msg = True  # EOF is "readable"; recv classifies it
                if has_msg:
                    progressed = True
                    try:
                        msg = worker.conn.recv()
                    except (EOFError, OSError):
                        # A dead worker's pipe reads as EOF (poll() keeps
                        # returning True) — classify it here, not via a
                        # liveness check that readability would shadow.
                        mark_crashed(pe)
                        continue
                    if (
                        not isinstance(msg, tuple)
                        or len(msg) != 7
                        or msg[0] not in ("ok", "error")
                    ):
                        # Garbage on the pipe: the worker is alive but
                        # its protocol state is untrusted — treat it
                        # like a crash (rebuild replaces it) instead of
                        # letting a malformed tuple raise out of the
                        # drain loop and wedge the job.
                        mark_dead(
                            pe,
                            f"worker sent a malformed reply "
                            f"({type(msg).__name__}: {msg!r:.80})",
                            "MalformedReply",
                        )
                        continue
                    if msg[1] != job_id:
                        continue  # stale reply from an abandoned job
                    if msg[0] == "error":
                        error_pes.add(pe)
                        errors.append(msg)
                    else:
                        results[pe] = msg
                        if rt is not None and rt.trace_on:
                            rt.tracer.instant(
                                "pool", f"reply-pe{pe}", args={"job": job_id}
                            )
                elif not worker.process.is_alive():
                    progressed = True
                    mark_crashed(pe)
            if progressed:
                deadline = time.monotonic() + drain_timeout
        stragglers = sorted(pending())
        if stragglers:
            try:
                self._barriers[n_pes].abort()
            except Exception:
                pass
        if dead_pes or stragglers:
            # A worker that died (or was terminated) *mid-job* may have
            # been inside a lock/atomic/barrier critical section; the
            # shared primitive bank cannot be trusted any more.  Rebuild
            # it wholesale — only idle deaths get the cheap single-slot
            # respawn (see _ensure_alive).
            self.workers_replaced += len(dead_pes) + len(stragglers)
            _M_REPLACED.inc(len(dead_pes) + len(stragglers))
            self._rebuild()
        elif errors:
            # Soft failures only (workers alive, locks self-released):
            # the aborted barrier just needs a reset to be reusable.
            try:
                self._barriers[n_pes].reset()
            except Exception:  # pragma: no cover - defensive
                pass
        if errors:
            # Prefer a root-cause error over secondary barrier-broken ones.
            for failed in errors:
                _obs.absorb(failed[6])
            errors.sort(key=lambda e: ("barrier broken" in str(e[4]), e[2]))
            _, _, pe, tb, brief, _, _ = errors[0]
            # Worker death/corruption is the pool's retryable failure
            # class (the rebuild already produced fresh workers); a
            # LOLCODE-level error stays a plain LolParallelError — a
            # deterministic program fails identically on every retry.
            exc_cls = WorkerCrashError if dead_pes else LolParallelError
            raise exc_cls(
                f"PE {pe} failed in pool executor: {brief}\n{tb}"
            )
        if stragglers:
            raise StragglerTimeoutError(
                f"PE(s) {stragglers} did not report a result within "
                f"{drain_timeout:.1f}s of the last completion (completed: "
                f"{sorted(results)}); the worker pool was rebuilt"
            )
        outputs = [results[pe][3] for pe in range(n_pes)]
        returns = [results[pe][4] for pe in range(n_pes)]
        traces: list[Optional[OpTrace]] = [results[pe][5] for pe in range(n_pes)]
        for pe in range(n_pes):
            _obs.absorb(results[pe][6])
        merged = merge_traces(traces) if trace else None
        return SpmdResult(
            n_pes=n_pes,
            outputs=outputs,
            returns=returns,
            trace=merged,
            races=[],
            heap_symbols=sorted(plan.entries),
        )

    # -- teardown -----------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and release all pooled segments."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                try:
                    worker.conn.send(("stop",))
                except OSError:
                    pass
            for worker in self._workers:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=2.0)
                try:
                    worker.conn.close()
                except OSError:
                    pass
            self.segments.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The default pool behind ``executor="pool"``.
# ---------------------------------------------------------------------------

_default_pool: Optional[WorkerPool] = None
_default_pool_mutex = threading.Lock()


def _pool_liveness_collector() -> None:
    """Registry collector: worker-liveness gauges for the default pool
    (ROADMAP item 3's load-shedding input).  Runs on snapshot/render."""
    pool = _default_pool
    if pool is None:
        # No pool was ever created in this process (e.g. inside a pool
        # worker): stay silent rather than emit misleading zeros.
        return
    size_g = _REG.gauge("lol_pool_size", "Configured worker count")
    alive_g = _REG.gauge(
        "lol_pool_workers_alive", "Worker processes currently alive"
    )
    if not pool.alive:
        size_g.set(0)
        alive_g.set(0)
        return
    size_g.set(pool.size)
    alive_g.set(pool.workers_alive())


_REG.register_collector(_pool_liveness_collector)


def get_default_pool(min_size: int = 1, min_locks: int = 0) -> WorkerPool:
    """The process-wide warm pool, created lazily and grown on demand.

    The pool grows to at least ``min_size`` workers and ``min_locks``
    symbol locks.  Growing rebuilds the pool (the barrier and lock banks
    are created at spawn and multiprocessing primitives cannot be
    shipped to live workers), so steady-state callers should converge on
    their peak PE and lock counts once.
    """
    global _default_pool
    with _default_pool_mutex:
        pool = _default_pool
        if (
            pool is None
            or not pool.alive
            or pool.size < min_size
            or pool.max_locks < min_locks
        ):
            size, max_locks = 1, DEFAULT_MAX_LOCKS
            if pool is not None:
                pool.close()
                size, max_locks = pool.size, pool.max_locks
            pool = WorkerPool(
                max(min_size, size), max_locks=max(min_locks, max_locks)
            )
            _default_pool = pool
        return pool


def shutdown_default_pool() -> None:
    """Tear down the default pool (atexit hook; also used by tests)."""
    global _default_pool
    with _default_pool_mutex:
        if _default_pool is not None:
            _default_pool.close()
            _default_pool = None


atexit.register(shutdown_default_pool)


def run_pooled(
    pe_main: Callable[[ShmemContext], object],
    n_pes: int,
    plan: SymmetricPlan,
    *,
    seed: Optional[int] = None,
    stdin_lines: Optional[Sequence[Sequence[str]]] = None,
    trace: bool = False,
    barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
) -> SpmdResult:
    """:meth:`WorkerPool.run` on the default warm pool, grown first to
    ``n_pes`` workers and to the plan's shared-lock count.

    Retries once if the pool it grabbed was concurrently rebuilt (a
    sibling caller growing the default pool closes the old one).
    """
    n_locks = len(plan.lock_names())
    last_exc: Optional[LolParallelError] = None
    for _ in range(3):
        pool = get_default_pool(n_pes, n_locks)
        try:
            return pool.run(
                pe_main,
                n_pes,
                plan,
                seed=seed,
                stdin_lines=stdin_lines,
                trace=trace,
                barrier_timeout=barrier_timeout,
            )
        except LolParallelError as exc:
            if "pool is closed" not in str(exc):
                raise
            last_exc = exc
    raise last_exc
