"""Distributed locks for the SHMEM runtime.

The paper attaches an *implied global exclusive lock* to every symmetric
variable declared ``AN IM SHARIN IT`` (Table II); the language statements
``IM SRSLY MESIN WIF`` / ``IM MESIN WIF ... O RLY?`` / ``DUN MESIN WIF``
map onto the OpenSHMEM trio ``shmem_set_lock`` / ``shmem_test_lock`` /
``shmem_clear_lock``.

:class:`LockTable` provides those semantics over any mutex primitive with
``acquire(blocking=...)`` / ``release`` (``threading.Lock`` for the thread
executor, ``multiprocessing.Lock`` for the process executor).  OpenSHMEM
locks are owned by a PE rather than a thread, so the table additionally
tracks the owning PE to diagnose self-deadlock and foreign release —
both are programming errors in OpenSHMEM and we surface them as
:class:`~repro.lang.errors.LolParallelError` instead of hanging.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from ..lang.errors import LolParallelError


class LockTable:
    def __init__(self, lock_factory: Callable[[], object] | None = None) -> None:
        self._factory = lock_factory or threading.Lock
        self._locks: dict[str, object] = {}
        self._owners: dict[str, Optional[int]] = {}
        self._mutex = threading.Lock()

    def register(self, name: str, lock: object | None = None) -> None:
        """Create (or attach) the global lock protecting symbol ``name``."""
        with self._mutex:
            if name not in self._locks:
                self._locks[name] = lock if lock is not None else self._factory()
                self._owners[name] = None

    def is_registered(self, name: str) -> bool:
        with self._mutex:
            return name in self._locks

    def _lookup(self, name: str) -> object:
        with self._mutex:
            lock = self._locks.get(name)
        if lock is None:
            raise LolParallelError(
                f"variable '{name}' has no lock: declare it with "
                f"'WE HAS A {name} ... AN IM SHARIN IT'"
            )
        return lock

    def acquire(self, name: str, pe: int, timeout: float | None = None) -> None:
        """Blocking acquire (``IM SRSLY MESIN WIF``)."""
        lock = self._lookup(name)
        if self._owners.get(name) == pe:
            raise LolParallelError(
                f"PE {pe} already holds the lock on '{name}' "
                f"(OpenSHMEM locks are not reentrant)"
            )
        ok = lock.acquire() if timeout is None else lock.acquire(timeout=timeout)
        if not ok:
            raise LolParallelError(
                f"timed out acquiring the lock on '{name}' from PE {pe} "
                f"(possible deadlock)"
            )
        self._owners[name] = pe

    def try_acquire(self, name: str, pe: int) -> bool:
        """Non-blocking acquire (``IM MESIN WIF ..., O RLY?``).

        Returns True (WIN) when the lock was acquired.
        """
        lock = self._lookup(name)
        if self._owners.get(name) == pe:
            return False
        ok = lock.acquire(blocking=False)
        if ok:
            self._owners[name] = pe
        return ok

    def release(self, name: str, pe: int) -> None:
        """Release (``DUN MESIN WIF``)."""
        lock = self._lookup(name)
        owner = self._owners.get(name)
        if owner != pe:
            raise LolParallelError(
                f"PE {pe} cannot release the lock on '{name}' "
                f"(held by {'nobody' if owner is None else f'PE {owner}'})"
            )
        self._owners[name] = None
        lock.release()

    def owner(self, name: str) -> Optional[int]:
        return self._owners.get(name)

    def held_by(self, pe: int) -> list[str]:
        with self._mutex:
            return sorted(n for n, o in self._owners.items() if o == pe)
