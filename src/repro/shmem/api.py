"""OpenSHMEM-like runtime API: the :class:`World` and per-PE
:class:`ShmemContext`.

This is the substrate the paper's language extensions compile down to.
The mapping of LOLCODE constructs to context methods:

================================= =======================================
LOLCODE (Table II)                ``ShmemContext``
================================= =======================================
``ME``                            ``ctx.my_pe``
``MAH FRENZ``                     ``ctx.n_pes``
``HUGZ``                          ``ctx.barrier_all()``
``TXT MAH BFF k, MAH x R UR x``   ``ctx.get("x", k)``
``TXT MAH BFF k, UR b R MAH a``   ``ctx.put("b", value, k)``
``IM SRSLY MESIN WIF x``          ``ctx.set_lock("x")``
``IM MESIN WIF x`` (trylock)      ``ctx.test_lock("x")``
``DUN MESIN WIF x``               ``ctx.clear_lock("x")``
``WE HAS A x ITZ SRSLY A NUMBR``  ``plan.add("x", LolType.NUMBR, ...)``
================================= =======================================

A world's symmetric heap is laid out from a
:class:`~repro.shmem.heap.SymmetricPlan` before any PE runs, so
``WE HAS A`` allocates nothing at run time: the launcher plans the
program, and Python SPMD workers pass the plan they built by hand
(``run_spmd(..., plan=)``, ``serial_context(plan=)``).

plus a handful of OpenSHMEM conveniences that the backend uses implicitly
("other OpenSHMEM routines are used implicitly in the backend but do not
have a direct language analog"): atomics, broadcast, reductions, and
``wait_until`` point-to-point synchronisation.

The world is executor-agnostic: the thread executor
(:mod:`repro.shmem.runtime_threads`) instantiates it with ``threading``
primitives, the pool's workers (:mod:`repro.shmem.runtime_procs`) with
``multiprocessing`` primitives over shared memory segments.
"""

from __future__ import annotations

import functools
import random
import threading
import time
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .. import obs as _obs
from ..lang.errors import LolParallelError, LolRuntimeError
from .heap import ArrayCell, SymmetricHeap, SymmetricObject, SymmetricPlan
from .locks import LockTable
from .racecheck import RaceDetector
from .trace import OpEvent, OpKind, OpTrace

#: Default timeout for collective operations; prevents a buggy program
#: (e.g. mismatched barrier counts) from hanging the test suite forever.
DEFAULT_BARRIER_TIMEOUT = 120.0

_ELEM_BYTES = 8


class _Phase:
    """The PEs parked in one barrier phase, and whether it was broken."""

    __slots__ = ("gates", "broken")

    def __init__(self) -> None:
        self.gates: list = []
        self.broken = False


class HandoffBarrier:
    """Thread barrier that hands each parked PE its own lock.

    An arriving PE takes one mutex and either parks on a lock it acquired
    itself, waiting on it outside the mutex, or, as the last arriver,
    bumps the epoch and releases every parked lock.  Woken PEs never
    re-take a shared lock; in ``threading.Barrier`` (a Condition) every
    woken waiter re-acquires the Condition's lock, which makes a ``HUGZ``
    about 1.6x as costly on GIL-bound threads.

    It keeps the part of ``threading.Barrier``'s contract the executor
    uses: ``abort()`` or any waiter's timeout breaks the barrier, and
    every PE parked in the current phase and every later arrival raises
    ``threading.BrokenBarrierError``.  The epoch is bumped before any
    waiter resumes (the race detector reads it), so the barrier also
    serves as the world's epoch box through :meth:`read`.
    """

    __slots__ = ("parties", "_mutex", "_phase", "_epoch", "_broken")

    def __init__(self, parties: int) -> None:
        self.parties = parties
        self._mutex = threading.Lock()
        self._phase = _Phase()
        self._epoch = 0
        self._broken = False

    def wait(self, timeout: Optional[float] = None) -> None:
        with self._mutex:
            if self._broken:
                raise threading.BrokenBarrierError
            phase = self._phase
            if len(phase.gates) + 1 == self.parties:
                self._epoch += 1
                self._phase = _Phase()
                for gate in phase.gates:
                    gate.release()
                return
            gate = threading.Lock()
            gate.acquire()
            phase.gates.append(gate)
        if gate.acquire(timeout=-1 if timeout is None else timeout):
            # Released either by the phase completing or by a break;
            # only this phase's own flag tells which (an abort that
            # lands after the release marks the *next* phase).
            if phase.broken:
                raise threading.BrokenBarrierError
            return
        with self._mutex:
            # Timed out, unless the phase completed in the meantime.
            if phase is self._phase:
                self._break_locked()
            if phase.broken:
                raise threading.BrokenBarrierError

    def abort(self) -> None:
        """Break the barrier: wake every parked PE with the error."""
        with self._mutex:
            self._break_locked()

    def read(self) -> int:
        """Completed phases so far (the world's barrier epoch)."""
        return self._epoch

    def _break_locked(self) -> None:
        self._broken = True
        phase = self._phase
        phase.broken = True
        for gate in phase.gates:
            gate.release()
        phase.gates.clear()


class World:
    """Everything shared by the PEs of one SPMD execution.

    The constructor is the one world builder: it lays out the heap of
    ``plan`` (``cell`` makes each PE's copy of an object, see
    :class:`~repro.shmem.heap.SymmetricHeap`) and registers the plan's
    locks, before any PE runs.  ``epoch_box.read()`` gives the number of
    completed barrier phases: the thread world's :class:`HandoffBarrier`
    counts its own, process worlds keep the count in shared memory.
    """

    def __init__(
        self,
        n_pes: int,
        plan: SymmetricPlan,
        *,
        barrier,
        locks: LockTable,
        epoch_box,
        cell=None,
        race_detector: Optional[RaceDetector] = None,
        exchange: Optional[list] = None,
        atomic_mutex=None,
        barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    ) -> None:
        self.n_pes = n_pes
        self.barrier = barrier
        self.heap = SymmetricHeap(plan, n_pes, cell)
        for name in plan.lock_names():
            locks.register(name)
        self.locks = locks
        self.epoch_box = epoch_box
        self.race_detector = race_detector
        self.exchange = exchange if exchange is not None else [None] * n_pes
        self.atomic_mutex = atomic_mutex or threading.Lock()
        self.barrier_timeout = barrier_timeout

    @classmethod
    def for_threads(
        cls,
        n_pes: int,
        plan: SymmetricPlan,
        *,
        race_detection: bool = False,
        element_granularity: bool = False,
        barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    ) -> "World":
        barrier = HandoffBarrier(n_pes)
        return cls(
            n_pes,
            plan,
            barrier=barrier,
            locks=LockTable(threading.Lock),
            epoch_box=barrier,
            race_detector=(
                RaceDetector(element_granularity) if race_detection else None
            ),
            barrier_timeout=barrier_timeout,
        )

    @property
    def epoch(self) -> int:
        return self.epoch_box.read()


class ShmemContext:
    """A single PE's handle onto the world.  One per SPMD thread/process."""

    def __init__(
        self,
        world: World,
        my_pe: int,
        *,
        seed: Optional[int] = None,
        stdin_lines: Optional[Sequence[str]] = None,
        trace: bool = False,
    ) -> None:
        if not 0 <= my_pe < world.n_pes:
            raise LolParallelError(f"PE id {my_pe} out of range")
        self.world = world
        self.my_pe = my_pe
        self._seed = seed
        self.out_parts: list[str] = []
        self._stdin = list(stdin_lines or [])
        self._stdin_pos = 0
        self.trace: Optional[OpTrace] = OpTrace(my_pe) if trace else None

    # -- identity (ME / MAH FRENZ) ------------------------------------------

    @property
    def n_pes(self) -> int:
        return self.world.n_pes

    @functools.cached_property
    def rng(self) -> random.Random:
        """This PE's WHATEVR/WHATEVAR stream, seeded on first use (most
        kernels never draw).  Deterministic per (seed, pe), which the
        tests and benches rely on."""
        return random.Random(
            (self._seed if self._seed is not None else 0xC47) * 7919 + self.my_pe
        )

    # -- I/O ------------------------------------------------------------------

    def emit(self, text: str) -> None:
        """Sink for VISIBLE output."""
        self.out_parts.append(text)

    @property
    def output(self) -> str:
        return "".join(self.out_parts)

    def read_line(self) -> str:
        """Source for GIMMEH input (injected per PE for determinism)."""
        if self._stdin_pos >= len(self._stdin):
            raise LolRuntimeError(
                f"GIMMEH on PE {self.my_pe}: no more input lines"
            )
        line = self._stdin[self._stdin_pos]
        self._stdin_pos += 1
        return line

    # -- symmetric symbols ---------------------------------------------------------

    def is_symmetric(self, name: str) -> bool:
        return self.world.heap.contains(name)

    # -- one-sided remote memory access (TXT MAH BFF / UR) ----------------------

    def get(self, symbol: str, target_pe: int, index: Optional[int] = None):
        """One-sided read from ``target_pe``'s partition (``UR x`` rvalue)."""
        rt = _obs.ACTIVE
        t0 = time.perf_counter() if rt is not None else 0.0
        obj = self._resolve(symbol, target_pe)
        cell = obj.cell(target_pe)
        if index is not None:
            self._require_array(obj, symbol)
            value = cell.read(int(index))
            nbytes = _ELEM_BYTES
        elif obj.is_array:
            value = cell.read_all()
            nbytes = cell.nbytes
        else:
            value = cell.read()
            nbytes = _ELEM_BYTES
        self._note(OpKind.GET, target_pe, nbytes, symbol)
        self._race(symbol, target_pe, "read", index)
        if rt is not None:
            self._obs_comm(rt, "get", target_pe, nbytes, symbol, t0)
        return value

    def put(
        self,
        symbol: str,
        value,
        target_pe: int,
        index: Optional[int] = None,
    ) -> None:
        """One-sided write into ``target_pe``'s partition (``UR x`` lvalue)."""
        rt = _obs.ACTIVE
        t0 = time.perf_counter() if rt is not None else 0.0
        obj = self._resolve(symbol, target_pe)
        cell = obj.cell(target_pe)
        if index is not None:
            self._require_array(obj, symbol)
            cell.write(int(index), value)
            nbytes = _ELEM_BYTES
        elif obj.is_array:
            cell.write_all(value)
            nbytes = cell.nbytes
        else:
            cell.write(value)
            nbytes = _ELEM_BYTES
        self._note(OpKind.PUT, target_pe, nbytes, symbol)
        self._race(symbol, target_pe, "write", index)
        if rt is not None:
            self._obs_comm(rt, "put", target_pe, nbytes, symbol, t0)

    def get_slice(self, symbol: str, target_pe: int, index: slice) -> np.ndarray:
        """Block read of elements ``index`` (a slice with a positive
        step) of ``target_pe``'s numeric array: one ``get`` per element
        for the counters, the NoC trace and the race detector, one
        copy of the data (OpenSHMEM's ``shmem_get``)."""
        rt = _obs.ACTIVE
        t0 = time.perf_counter() if rt is not None else 0.0
        data, elements = self._block(symbol, target_pe, index)
        values = data[index].copy()
        self._block_done(OpKind.GET, "get", symbol, target_pe, elements, rt, t0)
        return values

    def put_slice(self, symbol: str, values, target_pe: int, index: slice) -> None:
        """Block write of ``values`` (already of the element type) into
        elements ``index`` of ``target_pe``'s numeric array, counted as
        one ``put`` per element (OpenSHMEM's ``shmem_put``)."""
        rt = _obs.ACTIVE
        t0 = time.perf_counter() if rt is not None else 0.0
        data, elements = self._block(symbol, target_pe, index)
        data[index] = values
        self._block_done(OpKind.PUT, "put", symbol, target_pe, elements, rt, t0)

    def _block(self, symbol: str, target_pe: int, index: slice):
        obj = self._resolve(symbol, target_pe)
        self._require_array(obj, symbol)
        data = obj.cell(target_pe).data
        if not isinstance(data, np.ndarray):
            raise LolRuntimeError(f"'{symbol}' has no numeric storage")
        elements = range(index.start, index.stop, index.step)
        if elements and (elements[0] < 0 or elements[-1] >= len(data)):
            bad = elements[0] if elements[0] < 0 else elements[-1]
            raise LolRuntimeError(
                f"array index {bad} out of range [0, {len(data)})"
            )
        return data, elements

    def _block_done(
        self, kind: OpKind, name: str, symbol: str, target_pe: int, elements,
        rt, t0: float,
    ) -> None:
        if self.trace is not None:
            for _ in elements:
                self._note(kind, target_pe, _ELEM_BYTES, symbol)
        if self.world.race_detector is not None:
            access = "read" if kind is OpKind.GET else "write"
            for i in elements:
                self._race(symbol, target_pe, access, i)
        if rt is not None:
            n = len(elements)
            self._obs_comm(rt, name, target_pe, n * _ELEM_BYTES, symbol, t0, ops=n)

    def local_cell(self, symbol: str):
        """Direct handle on this PE's own partition of ``symbol``."""
        return self.world.heap.lookup(symbol).cell(self.my_pe)

    def local_read(self, symbol: str, index: Optional[int] = None):
        """Read this PE's own partition (plain/``MAH`` reference to a
        symmetric variable).  Visible to the race detector: a local read
        racing with a remote put is exactly the Figure 2 bug."""
        obj = self.world.heap.lookup(symbol)
        cell = obj.cell(self.my_pe)
        if index is not None:
            self._require_array(obj, symbol)
            value = cell.read(int(index))
        elif obj.is_array:
            value = cell.read_all()
        else:
            value = cell.read()
        self._race(symbol, self.my_pe, "read", index)
        return value

    def local_write(self, symbol: str, value, index: Optional[int] = None) -> None:
        """Write this PE's own partition (plain/``MAH`` assignment)."""
        obj = self.world.heap.lookup(symbol)
        cell = obj.cell(self.my_pe)
        if index is not None:
            self._require_array(obj, symbol)
            cell.write(int(index), value)
        elif obj.is_array:
            cell.write_all(value)
        else:
            cell.write(value)
        self._race(symbol, self.my_pe, "write", index)

    # -- observability (armed path only; _obs.ACTIVE is None when disarmed) ------

    def _obs_comm(
        self, rt, kind: str, target_pe: int, nbytes: int, symbol: str, t0: float,
        ops: int = 1,
    ) -> None:
        """Record ``ops`` data-plane ops moving ``nbytes`` in all on the
        armed observability runtime (one span)."""
        now = time.perf_counter()
        if rt.metrics_on:
            rt.comm_ops.inc(ops, op=kind)
            if nbytes:
                rt.comm_bytes.inc(nbytes, op=kind)
        if rt.trace_on:
            rt.tracer.complete(
                "comm",
                kind,
                t0,
                now - t0,
                tid=f"PE-{self.my_pe}",
                args={"symbol": symbol, "to": target_pe, "nbytes": nbytes},
            )

    def _obs_barrier(self, rt, t0: float) -> None:
        """Record one barrier wait (per-PE histogram + span)."""
        wait_s = time.perf_counter() - t0
        if rt.metrics_on:
            rt.barrier_wait.observe(wait_s, pe=str(self.my_pe))
        if rt.trace_on:
            rt.tracer.complete(
                "comm", "barrier", t0, wait_s, tid=f"PE-{self.my_pe}"
            )

    # -- synchronisation ----------------------------------------------------------

    def barrier_all(self) -> None:
        """Collective barrier (``HUGZ``)."""
        self._note(OpKind.BARRIER, -1, 0, "")
        rt = _obs.ACTIVE
        t0 = time.perf_counter() if rt is not None else 0.0
        try:
            self.world.barrier.wait(timeout=self.world.barrier_timeout)
        except threading.BrokenBarrierError as exc:
            raise LolParallelError(
                f"HUGZ barrier broken on PE {self.my_pe} (a PE crashed or "
                f"the program reached the barrier a mismatched number of times)"
            ) from exc
        finally:
            if rt is not None:
                self._obs_barrier(rt, t0)

    def set_lock(self, symbol: str) -> None:
        """Blocking global lock acquire (``IM SRSLY MESIN WIF``)."""
        self._note(OpKind.LOCK, -1, 0, symbol)
        self.world.locks.acquire(
            symbol, self.my_pe, timeout=self.world.barrier_timeout
        )

    def test_lock(self, symbol: str) -> bool:
        """Non-blocking acquire (``IM MESIN WIF ..., O RLY?``) -> WIN/FAIL."""
        self._note(OpKind.TRYLOCK, -1, 0, symbol)
        return self.world.locks.try_acquire(symbol, self.my_pe)

    def clear_lock(self, symbol: str) -> None:
        """Release (``DUN MESIN WIF``)."""
        self._note(OpKind.UNLOCK, -1, 0, symbol)
        self.world.locks.release(symbol, self.my_pe)

    def holds_lock(self, symbol: str) -> bool:
        return self.world.locks.owner(symbol) == self.my_pe

    def wait_until(
        self,
        symbol: str,
        predicate: Callable[[object], bool],
        *,
        index: Optional[int] = None,
        poll_interval: float = 1e-5,
        timeout: Optional[float] = None,
    ) -> object:
        """Point-to-point sync: spin until this PE's copy satisfies
        ``predicate`` (OpenSHMEM ``shmem_wait_until``)."""
        if timeout is None:
            timeout = self.world.barrier_timeout
        deadline = time.monotonic() + timeout
        cell = self.local_cell(symbol)
        while True:
            value = cell.read(int(index)) if index is not None else (
                cell.read_all() if isinstance(cell, ArrayCell) else cell.read()
            )
            if predicate(value):
                return value
            if time.monotonic() > deadline:
                raise LolParallelError(
                    f"wait_until on '{symbol}' timed out on PE {self.my_pe}"
                )
            time.sleep(poll_interval)

    # -- atomics -------------------------------------------------------------------

    def atomic_fetch_add(
        self, symbol: str, value, target_pe: int, index: Optional[int] = None
    ):
        obj = self._resolve(symbol, target_pe)
        cell = obj.cell(target_pe)
        with self.world.atomic_mutex:
            if index is not None:
                old = cell.read(int(index))
                cell.write(int(index), old + value)
            else:
                old = cell.read()
                cell.write(old + value)
        self._note(OpKind.ATOMIC, target_pe, _ELEM_BYTES, symbol)
        self._race(symbol, target_pe, "write", index, locked=True)
        return old

    def atomic_swap(
        self, symbol: str, value, target_pe: int, index: Optional[int] = None
    ):
        obj = self._resolve(symbol, target_pe)
        cell = obj.cell(target_pe)
        with self.world.atomic_mutex:
            if index is not None:
                old = cell.read(int(index))
                cell.write(int(index), value)
            else:
                old = cell.read()
                cell.write(value)
        self._note(OpKind.ATOMIC, target_pe, _ELEM_BYTES, symbol)
        self._race(symbol, target_pe, "write", index, locked=True)
        return old

    def atomic_compare_swap(
        self, symbol: str, expected, desired, target_pe: int
    ):
        obj = self._resolve(symbol, target_pe)
        cell = obj.cell(target_pe)
        with self.world.atomic_mutex:
            old = cell.read()
            if old == expected:
                cell.write(desired)
        self._note(OpKind.ATOMIC, target_pe, _ELEM_BYTES, symbol)
        self._race(symbol, target_pe, "write", None, locked=True)
        return old

    # -- collectives -----------------------------------------------------------------

    def broadcast(self, value, root: int = 0):
        """Broadcast ``value`` from PE ``root`` to every PE; returns it."""
        if self.my_pe == root:
            self.world.exchange[root] = value
        self.barrier_all()
        result = self.world.exchange[root]
        self.barrier_all()
        self._note(OpKind.BCAST, root, _ELEM_BYTES, "")
        return result

    def allgather(self, value) -> list:
        """Every PE contributes ``value``; all receive the full list."""
        self.world.exchange[self.my_pe] = value
        self.barrier_all()
        result = list(self.world.exchange)
        self.barrier_all()
        self._note(OpKind.BCAST, -1, _ELEM_BYTES * self.n_pes, "")
        return result

    def allreduce(self, value, op: str = "sum"):
        """Reduce ``value`` across PEs (sum/min/max/prod); all receive it."""
        values = self.allgather(value)
        self._note(OpKind.REDUCE, -1, _ELEM_BYTES, "")
        if op == "sum":
            return sum(values)
        if op == "min":
            return min(values)
        if op == "max":
            return max(values)
        if op == "prod":
            out = 1
            for v in values:
                out = out * v
            return out
        raise LolRuntimeError(f"unknown reduction op {op!r}")

    # -- trace / race plumbing -----------------------------------------------------

    def add_flops(self, n: int) -> None:
        if self.trace is not None:
            self.trace.add_flops(n)

    def _note(self, kind: OpKind, dst: int, nbytes: int, symbol: str) -> None:
        if self.trace is not None:
            self.trace.record(
                OpEvent(kind, self.my_pe, dst, nbytes, symbol, self.world.epoch)
            )

    def _race(
        self,
        symbol: str,
        owner_pe: int,
        kind: str,
        element,
        *,
        locked: bool = False,
    ) -> None:
        det = self.world.race_detector
        if det is None:
            return
        locked = locked or self.holds_lock(symbol)
        det.on_access(
            symbol,
            owner_pe,
            self.my_pe,
            kind,
            self.world.epoch,
            locked=locked,
            element=element,
        )

    def _resolve(self, symbol: str, target_pe: int) -> SymmetricObject:
        if not 0 <= target_pe < self.n_pes:
            raise LolParallelError(
                f"PE {target_pe} out of range [0, {self.n_pes}) "
                f"(accessing '{symbol}' from PE {self.my_pe})"
            )
        return self.world.heap.lookup(symbol)

    @staticmethod
    def _require_array(obj: SymmetricObject, symbol: str) -> None:
        if not obj.is_array:
            raise LolRuntimeError(f"'{symbol}' is not an array")


def serial_context(
    plan: Optional[SymmetricPlan] = None, **kwargs
) -> ShmemContext:
    """A 1-PE world for serial interpretation (``loli``): ``ME`` is 0 and
    ``MAH FRENZ`` is 1, matching a single-PE OpenSHMEM launch.  Its heap
    holds the symbols of ``plan`` (none by default)."""
    world = World.for_threads(1, plan or SymmetricPlan())
    return ShmemContext(world, 0, **kwargs)
