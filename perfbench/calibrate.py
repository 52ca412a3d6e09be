"""Host-speed calibration for the benchmark's timings.

On a shared host the same pure-Python work runs up to ~1.7x slower from
one second to the next, so a raw median moves with the neighbours.  The
harness therefore times a probe, fixed work that does not touch
``repro``, between cycles of its loop, and scales every run by how slow
the host was around it (:func:`perfbench.stats.normalized`).  Timings
are reported as they would read on a reference host, one on which
:func:`slowness` returns 1.

Two probes cover the two kinds of work the workloads do: interpreter
bytecode, and starting and joining a team of threads.  How much of the
second a workload's runs contain is its ``probe_threads`` share in
``spec.json``.  Measured on a 2-vCPU shared VM (4 s windows over 40 s,
median run time per window): spmd_compute varied by a CV of 0.13 raw
and 0.02 scaled by the interpreter probe; spmd_small, whose ~0.5 ms
runs are largely thread start and join, varied by 0.066 raw, 0.032
scaled by the interpreter probe alone and 0.017 scaled by an even mix.
"""

from __future__ import annotations

import threading
from time import perf_counter

#: Each probe's duration on the reference host.
INTERP_REFERENCE_S = 0.002
THREADS_REFERENCE_S = 0.001


def interp_probe() -> float:
    """Time a loop with list indexing, integer arithmetic and a dict
    store, the work the interpreter does most."""
    items = list(range(64))
    table: dict = {}
    total = 0
    t0 = perf_counter()
    for i in range(20000):
        k = i & 63
        total += items[k] * 3 % 7
        table[k] = total
    return perf_counter() - t0


def _member(barrier: threading.Barrier) -> None:
    total = 0
    for i in range(200):
        total += i
    barrier.wait()


def threads_probe() -> float:
    """Time four launches of a four-thread team that meets at a barrier."""
    t0 = perf_counter()
    for _ in range(4):
        barrier = threading.Barrier(4)
        team = [threading.Thread(target=_member, args=(barrier,)) for _ in range(4)]
        for t in team:
            t.start()
        for t in team:
            t.join()
    return perf_counter() - t0


def slowness(threads_share: float) -> float:
    """How many times slower than the reference host this one runs now:
    the two probes' ratios to their references, mixed geometrically with
    weight ``threads_share`` on the thread probe."""
    s = interp_probe() / INTERP_REFERENCE_S
    if threads_share:
        t = threads_probe() / THREADS_REFERENCE_S
        s = s ** (1 - threads_share) * t**threads_share
    return s
