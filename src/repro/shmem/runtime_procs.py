"""Process-based SPMD executor: true parallelism over shared memory.

The thread executor is concurrency-correct but, due to the CPython GIL,
compute-bound PEs do not speed up.  This executor launches one *process*
per PE with the symmetric heap backed by a ``multiprocessing.shared_memory``
segment, giving genuine parallel execution of numeric kernels — the
closest Python equivalent of the paper's OpenSHMEM-on-Epiphany deployment.

Restrictions (the same ones real OpenSHMEM imposes):

* symmetric data must be statically typed and numeric
  (NUMBR/NUMBAR/TROOF) — YARN symmetric data is thread-executor only;
* the symmetric allocation set must be known up front: the launcher
  pre-scans the program for ``WE HAS A`` declarations into a
  :class:`~repro.shmem.heap.SymmetricPlan` ("statically declared
  variables", exactly the paper's memory model);
* the race detector is unavailable (it needs shared Python state).

The worker callable must be picklable (a module-level function), because
workers are started with the ``spawn`` method for robustness against
forked locks.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Optional, Sequence

import numpy as np

from .. import obs as _obs
from ..lang.errors import LolParallelError
from ..lang.types import NUMPY_DTYPES, LolType
from .api import DEFAULT_BARRIER_TIMEOUT, ShmemContext, World
from .heap import ArrayCell, NumpyScalarCell, SymmetricHeap, SymmetricObject, SymmetricPlan
from .locks import LockTable
from .runtime_threads import SpmdResult
from .trace import OpTrace, merge_traces

_ITEM = 8  # bytes per element (int64 / float64)


@dataclass(frozen=True, slots=True)
class _SymbolLayout:
    name: str
    lol_type: str  # LolType value name
    is_array: bool
    size: int
    has_lock: bool
    offset: int  # element offset into the shared block


@dataclass(frozen=True, slots=True)
class _WorldSpec:
    """Everything a worker needs to reconstruct the shared world."""

    n_pes: int
    shm_name: str
    symbols: tuple[_SymbolLayout, ...]
    lock_names: tuple[str, ...]
    exchange_offset: int  # element offset of the n_pes collective slots
    owners_offset: int  # element offset of the lock-owner array
    barrier_timeout: float


def plan_layout(plan: SymmetricPlan, n_pes: int) -> tuple[list[_SymbolLayout], int]:
    """Assign element offsets for every planned symbol (all PEs' copies of a
    symbol are contiguous: ``offset + pe * size``)."""
    layouts: list[_SymbolLayout] = []
    cursor = 0
    for name in sorted(plan.entries):
        lol_type, is_array, size, has_lock = plan.entries[name]
        if lol_type not in NUMPY_DTYPES:
            raise LolParallelError(
                f"symmetric symbol '{name}' has type {lol_type}, but the "
                f"process executor supports only numeric symmetric data "
                f"(use the thread executor for YARN)"
            )
        layouts.append(
            _SymbolLayout(name, lol_type.value, is_array, size, has_lock, cursor)
        )
        cursor += size * n_pes
    return layouts, cursor


class _ProcLockTable(LockTable):
    """Lock table whose owner bookkeeping lives in shared memory.

    ``owners[i]`` holds the PE currently owning lock ``i`` (-1 when free).
    The owner slot is only mutated while holding the underlying mp.Lock,
    so no extra synchronisation is needed.
    """

    def __init__(
        self, locks: dict[str, object], owners: np.ndarray, index: dict[str, int]
    ) -> None:
        super().__init__()
        self._locks = dict(locks)
        self._shared_owners = owners
        self._index = index

    def register(self, name: str, lock: object | None = None) -> None:
        if name not in self._locks:
            raise LolParallelError(
                f"lock '{name}' was not in the symmetric plan (process "
                f"executor requires statically declared shared variables)"
            )

    def _slot(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise LolParallelError(
                f"variable '{name}' has no lock: declare it with "
                f"'WE HAS A {name} ... AN IM SHARIN IT'"
            ) from None

    def acquire(self, name: str, pe: int, timeout: float | None = None) -> None:
        slot = self._slot(name)
        lock = self._locks[name]
        if self._shared_owners[slot] == pe:
            raise LolParallelError(
                f"PE {pe} already holds the lock on '{name}' "
                f"(OpenSHMEM locks are not reentrant)"
            )
        ok = lock.acquire(timeout=timeout) if timeout else lock.acquire()
        if not ok:
            raise LolParallelError(
                f"timed out acquiring the lock on '{name}' from PE {pe}"
            )
        self._shared_owners[slot] = pe

    def try_acquire(self, name: str, pe: int) -> bool:
        slot = self._slot(name)
        lock = self._locks[name]
        if self._shared_owners[slot] == pe:
            return False
        ok = lock.acquire(block=False)
        if ok:
            self._shared_owners[slot] = pe
        return ok

    def release(self, name: str, pe: int) -> None:
        slot = self._slot(name)
        lock = self._locks[name]
        owner = int(self._shared_owners[slot])
        if owner != pe:
            raise LolParallelError(
                f"PE {pe} cannot release the lock on '{name}' "
                f"(held by {'nobody' if owner < 0 else f'PE {owner}'})"
            )
        self._shared_owners[slot] = -1
        lock.release()

    def owner(self, name: str) -> Optional[int]:
        owner = int(self._shared_owners[self._slot(name)])
        return None if owner < 0 else owner


class _ProcEpochBox:
    """Barrier epoch counter in shared memory (the barrier's action)."""

    def __init__(self, shared_value) -> None:  # mp.Value('i')
        self._shared = shared_value

    def increment(self) -> None:
        with self._shared.get_lock():
            self._shared.value += 1

    def read(self) -> int:
        return self._shared.value


def _build_world(
    spec: _WorldSpec, barrier, locks: dict[str, object], epoch_value, atomic_lock
) -> tuple[World, shared_memory.SharedMemory]:
    shm = shared_memory.SharedMemory(name=spec.shm_name)
    heap = SymmetricHeap(spec.n_pes)
    for lay in spec.symbols:
        lol_type = LolType(lay.lol_type)
        dtype = NUMPY_DTYPES[lol_type]
        per_pe = []
        for pe in range(spec.n_pes):
            start = (lay.offset + pe * lay.size) * _ITEM
            view = np.ndarray(
                (lay.size,), dtype=dtype, buffer=shm.buf, offset=start
            )
            if lay.is_array:
                per_pe.append(ArrayCell(lol_type, lay.size, data=view))
            else:
                per_pe.append(NumpyScalarCell(view, lol_type))
        heap.attach(
            lay.name,
            SymmetricObject(
                lay.name, lol_type, lay.is_array, lay.size, lay.has_lock, per_pe
            ),
        )
    owners = np.ndarray(
        (max(1, len(spec.lock_names)),),
        dtype="int64",
        buffer=shm.buf,
        offset=spec.owners_offset * _ITEM,
    )
    exchange = np.ndarray(
        (spec.n_pes,), dtype="float64", buffer=shm.buf,
        offset=spec.exchange_offset * _ITEM,
    )
    lock_table = _ProcLockTable(
        locks, owners, {n: i for i, n in enumerate(spec.lock_names)}
    )
    world = World(
        spec.n_pes,
        barrier=barrier,
        heap=heap,
        locks=lock_table,
        epoch_box=_ProcEpochBox(epoch_value),
        exchange=exchange,
        atomic_mutex=atomic_lock,
        barrier_timeout=spec.barrier_timeout,
    )
    return world, shm


def _proc_worker(
    pe: int,
    spec: _WorldSpec,
    barrier,
    locks,
    epoch_value,
    atomic_lock,
    pe_main,
    seed,
    stdin_lines,
    trace,
    queue,
) -> None:
    shm = None
    try:
        world, shm = _build_world(spec, barrier, locks, epoch_value, atomic_lock)
        ctx = ShmemContext(
            world, pe, seed=seed, stdin_lines=stdin_lines, trace=trace
        )
        ret = pe_main(ctx)
        # Final wire field: the worker's drained observability payload
        # (spans + metrics delta), or None when the plane is disarmed —
        # the worker self-armed at import if LOL_OBS rode the spawn env.
        queue.put(("ok", pe, ctx.output, ret, ctx.trace, _obs.drain()))
    except BaseException as exc:  # noqa: BLE001 - marshalled to parent
        import traceback

        queue.put(
            ("error", pe, traceback.format_exc(), repr(exc), None, _obs.drain())
        )
        try:
            barrier.abort()
        except Exception:
            pass
    finally:
        if shm is not None:
            shm.close()


def run_spmd_procs(
    pe_main: Callable[[ShmemContext], object],
    n_pes: int,
    plan: SymmetricPlan,
    *,
    seed: Optional[int] = None,
    stdin_lines: Optional[Sequence[Sequence[str]]] = None,
    trace: bool = False,
    barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    start_method: str = "spawn",
) -> SpmdResult:
    """Execute ``pe_main(ctx)`` on ``n_pes`` OS processes.

    ``plan`` must describe every symmetric symbol the program allocates
    (build it with :func:`repro.launcher.spmd.plan_from_program` for
    LOLCODE programs, or by hand for raw Python SPMD workers).
    """
    if n_pes < 1:
        raise LolParallelError(f"need at least 1 PE, got {n_pes}")
    mpctx = mp.get_context(start_method)
    layouts, data_elems = plan_layout(plan, n_pes)
    lock_names = tuple(lay.name for lay in layouts if lay.has_lock)
    exchange_offset = data_elems
    owners_offset = data_elems + n_pes
    total_elems = owners_offset + max(1, len(lock_names))
    shm = shared_memory.SharedMemory(create=True, size=max(1, total_elems * _ITEM))
    try:
        # Zero the whole block (shared_memory contents are undefined).
        np.ndarray((total_elems,), dtype="int64", buffer=shm.buf)[:] = 0
        owners = np.ndarray(
            (max(1, len(lock_names)),),
            dtype="int64",
            buffer=shm.buf,
            offset=owners_offset * _ITEM,
        )
        owners[:] = -1
        spec = _WorldSpec(
            n_pes=n_pes,
            shm_name=shm.name,
            symbols=tuple(layouts),
            lock_names=lock_names,
            exchange_offset=exchange_offset,
            owners_offset=owners_offset,
            barrier_timeout=barrier_timeout,
        )
        epoch_value = mpctx.Value("i", 0)
        epoch_box = _ProcEpochBox(epoch_value)
        barrier = mpctx.Barrier(n_pes, action=epoch_box.increment)
        locks = {name: mpctx.Lock() for name in lock_names}
        atomic_lock = mpctx.Lock()
        queue = mpctx.Queue()
        procs = [
            mpctx.Process(
                target=_proc_worker,
                args=(
                    pe,
                    spec,
                    barrier,
                    locks,
                    epoch_value,
                    atomic_lock,
                    pe_main,
                    seed,
                    stdin_lines[pe] if stdin_lines else None,
                    trace,
                    queue,
                ),
                name=f"PE-{pe}",
                daemon=True,
            )
            for pe in range(n_pes)
        ]
        for p in procs:
            p.start()
        # Drain with per-PE completion tracking.  A single queue.get
        # timeout must not end the drain: the PEs that *did* finish
        # already have results in flight, and the error should name
        # exactly the ranks that never reported.  The deadline is a
        # *silence* window — every arriving message pushes it out — so
        # staggered-but-healthy PEs are not cut off at a fixed total.
        results: dict[int, tuple] = {}
        error_pes: set[int] = set()
        errors: list[tuple] = []
        drain_timeout = barrier_timeout * 2
        deadline = time.monotonic() + drain_timeout
        while len(results) + len(error_pes) < n_pes:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                msg = queue.get(timeout=min(remaining, 1.0))
            except Exception:
                # No message this tick.  If every unreported PE's process
                # is already dead, nothing more can arrive — stop early
                # instead of waiting out the full deadline.
                pending = [
                    pe
                    for pe in range(n_pes)
                    if pe not in results and pe not in error_pes
                ]
                if pending and not any(procs[pe].is_alive() for pe in pending):
                    break
                continue
            deadline = time.monotonic() + drain_timeout
            if msg[0] == "error":
                error_pes.add(msg[1])
                errors.append(msg)
                # Keep draining: a crashing PE aborts the barrier and
                # siblings then fail with secondary "barrier broken"
                # errors; we want the root cause, not whichever error
                # reached the queue first.
                continue
            results[msg[1]] = msg
        stragglers = sorted(
            pe for pe in range(n_pes) if pe not in results and pe not in error_pes
        )
        # Prefer a root-cause error over secondary barrier-broken ones.
        error: Optional[tuple] = None
        if errors:
            errors.sort(key=lambda e: ("barrier broken" in str(e[3]), e[1]))
            error = errors[0]
        for p in procs:
            p.join(timeout=5.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        if error is not None:
            for failed in errors:
                _obs.absorb(failed[5])
            _, pe, tb, brief, _, _ = error
            raise LolParallelError(
                f"PE {pe} failed in process executor: {brief}\n{tb}"
            )
        if stragglers:
            finished = sorted(results)
            raise LolParallelError(
                f"PE(s) {stragglers} did not report a result within "
                f"{drain_timeout:.1f}s of the last completion (completed: "
                f"{finished if finished else 'none'})"
            )
        outputs = [results[pe][2] for pe in range(n_pes)]
        returns = [results[pe][3] for pe in range(n_pes)]
        traces: list[Optional[OpTrace]] = [results[pe][4] for pe in range(n_pes)]
        for pe in range(n_pes):
            _obs.absorb(results[pe][5])
        merged = merge_traces(traces) if trace else None
        return SpmdResult(
            n_pes=n_pes,
            outputs=outputs,
            returns=returns,
            trace=merged,
            races=[],
            heap_symbols=sorted(plan.entries),
        )
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - platform dependent
            pass
