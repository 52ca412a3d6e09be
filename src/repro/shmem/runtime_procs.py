"""Shared-memory world layout for the warm pool's worker processes.

:mod:`repro.service.pool` runs process worlds: one worker process per
PE, with the symmetric heap backed by a ``multiprocessing.shared_memory``
segment, giving genuine parallel execution of numeric kernels — the
closest Python equivalent of the paper's OpenSHMEM-on-Epiphany
deployment.  This module holds what those workers share: the segment
layout (:func:`plan_layout`, :class:`_WorldSpec`), the world each worker
rebuilds around it (:func:`_build_world`), and the lock table and
barrier epoch counter that live in shared memory.

Restrictions (the same ones real OpenSHMEM imposes):

* symmetric data must be statically typed and numeric
  (NUMBR/NUMBAR/TROOF) — YARN symmetric data is thread-executor only;
* the symmetric allocation set is known up front, as on every
  executor: the job's :class:`~repro.shmem.heap.SymmetricPlan` sizes the
  segment, and each worker builds its world's heap from the plan as
  views onto it ("statically declared variables", exactly the paper's
  memory model);
* the race detector is unavailable (it needs shared Python state).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from ..lang.errors import LolParallelError
from ..lang.types import NUMPY_DTYPES, LolType
from .api import World
from .heap import ArrayCell, NumpyScalarCell, SymmetricPlan
from .locks import LockTable

_ITEM = 8  # bytes per element (int64 / float64)


@dataclass(frozen=True, slots=True)
class _WorldSpec:
    """Everything a worker needs to reconstruct the shared world."""

    n_pes: int
    shm_name: str
    plan: SymmetricPlan
    offsets: dict[str, int]  # name -> element offset of its PE-0 copy
    exchange_offset: int  # element offset of the n_pes collective slots
    owners_offset: int  # element offset of the lock-owner array
    barrier_timeout: float


def plan_layout(plan: SymmetricPlan, n_pes: int) -> tuple[dict[str, int], int]:
    """Assign element offsets for every planned symbol (all PEs' copies of a
    symbol are contiguous: ``offset + pe * size``)."""
    offsets: dict[str, int] = {}
    cursor = 0
    for name in sorted(plan.entries):
        lol_type, _, size, _ = plan.entries[name]
        if lol_type not in NUMPY_DTYPES:
            raise LolParallelError(
                f"symmetric symbol '{name}' has type {lol_type}, but the "
                f"pool executor supports only numeric symmetric data "
                f"(use the thread executor for YARN)"
            )
        offsets[name] = cursor
        cursor += size * n_pes
    return offsets, cursor


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
        """Nothing to do: every planned lock is already mapped onto the
        pool's lock bank."""

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

    def view(name: str, pe: int, lol_type: LolType, is_array: bool, size: int):
        data = np.ndarray(
            (size,),
            dtype=NUMPY_DTYPES[lol_type],
            buffer=shm.buf,
            offset=(spec.offsets[name] + pe * size) * _ITEM,
        )
        if is_array:
            return ArrayCell(lol_type, size, data=data)
        return NumpyScalarCell(data, lol_type)

    lock_names = spec.plan.lock_names()
    owners = np.ndarray(
        (max(1, len(lock_names)),),
        dtype="int64",
        buffer=shm.buf,
        offset=spec.owners_offset * _ITEM,
    )
    exchange = np.ndarray(
        (spec.n_pes,), dtype="float64", buffer=shm.buf,
        offset=spec.exchange_offset * _ITEM,
    )
    lock_table = _ProcLockTable(
        locks, owners, {n: i for i, n in enumerate(lock_names)}
    )
    world = World(
        spec.n_pes,
        spec.plan,
        barrier=barrier,
        locks=lock_table,
        epoch_box=_ProcEpochBox(epoch_value),
        cell=view,
        exchange=exchange,
        atomic_mutex=atomic_lock,
        barrier_timeout=spec.barrier_timeout,
    )
    return world, shm
