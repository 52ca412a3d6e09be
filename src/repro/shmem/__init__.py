"""OpenSHMEM-like SPMD/PGAS runtime substrate (paper Section II.A).

Public surface:

* :class:`~repro.shmem.api.World`, :class:`~repro.shmem.api.ShmemContext` —
  the runtime a PE program talks to;
* :func:`~repro.shmem.runtime_threads.run_spmd` — thread executor;
* :mod:`~repro.shmem.runtime_procs` — the shared-memory world layout
  that the warm pool's worker processes run on (imported only by
  :mod:`repro.service.pool`, so thread-only programs never load
  ``multiprocessing``);
* :class:`~repro.shmem.heap.SymmetricHeap` / ``SymmetricPlan`` — PGAS heap;
* :class:`~repro.shmem.locks.LockTable` — per-symbol global locks;
* :class:`~repro.shmem.trace.OpTrace` / ``WorldTrace`` — op tracing for the
  NoC performance model;
* :class:`~repro.shmem.racecheck.RaceDetector` — barrier-epoch race
  detection (Figure 2).
"""

from .api import DEFAULT_BARRIER_TIMEOUT, ShmemContext, World, serial_context
from .heap import ArrayCell, ScalarCell, SymmetricHeap, SymmetricObject, SymmetricPlan
from .locks import LockTable
from .racecheck import RaceDetector, RaceReport
from .runtime_threads import SpmdResult, run_spmd
from .trace import OpEvent, OpKind, OpTrace, WorldTrace

__all__ = [
    "DEFAULT_BARRIER_TIMEOUT",
    "ShmemContext",
    "World",
    "serial_context",
    "ArrayCell",
    "ScalarCell",
    "SymmetricHeap",
    "SymmetricObject",
    "SymmetricPlan",
    "LockTable",
    "RaceDetector",
    "RaceReport",
    "run_spmd",
    "SpmdResult",
    "OpEvent",
    "OpKind",
    "OpTrace",
    "WorldTrace",
]

