"""Thread-based SPMD executor.

Runs one Python thread per PE against a shared :class:`~repro.shmem.api.World`.
This is the default executor: it supports every language feature (including
YARN-typed symmetric data and the race detector), starts in microseconds,
and gives deterministic output capture — at the cost of no true parallel
speedup for compute-bound code (the CPython GIL serialises bytecode; see
DESIGN.md and the process executor for the true-parallelism path).

If any PE raises, the barrier is aborted so sibling PEs blocked in ``HUGZ``
fail fast instead of deadlocking, and the first error is re-raised in the
caller annotated with its PE id.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..lang.errors import LolError, LolParallelError
from .api import DEFAULT_BARRIER_TIMEOUT, ShmemContext, World
from .racecheck import RaceReport
from .trace import OpTrace, WorldTrace, merge_traces


@dataclass
class SpmdResult:
    """Outcome of one SPMD execution."""

    n_pes: int
    outputs: list[str]  # VISIBLE output per PE
    returns: list[object]  # per-PE return value of the entry function
    trace: Optional[WorldTrace] = None
    races: list[RaceReport] = field(default_factory=list)
    heap_symbols: list[str] = field(default_factory=list)
    #: Set by the launcher when the requested engine failed and an
    #: opt-in ``fallback_engine`` produced this result instead.
    degraded: bool = False
    degraded_reason: Optional[str] = None

    @property
    def output(self) -> str:
        """All PE outputs concatenated in PE order (deterministic)."""
        return "".join(self.outputs)


@dataclass
class _PeError:
    pe: int
    error: BaseException


def run_spmd(
    pe_main: Callable[[ShmemContext], object],
    n_pes: int,
    *,
    seed: Optional[int] = None,
    stdin_lines: Optional[Sequence[Sequence[str]]] = None,
    trace: bool = False,
    trace_detail: bool = True,
    race_detection: bool = False,
    element_granularity: bool = False,
    barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    world: Optional[World] = None,
) -> SpmdResult:
    """Execute ``pe_main(ctx)`` on ``n_pes`` concurrent PEs.

    ``stdin_lines`` optionally provides per-PE GIMMEH input:
    ``stdin_lines[pe]`` is the sequence of lines available to that PE.
    """
    if n_pes < 1:
        raise LolParallelError(f"need at least 1 PE, got {n_pes}")
    if world is None:
        world = World.for_threads(
            n_pes,
            race_detection=race_detection,
            element_granularity=element_granularity,
            barrier_timeout=barrier_timeout,
        )
    contexts = [
        ShmemContext(
            world,
            pe,
            seed=seed,
            stdin_lines=stdin_lines[pe] if stdin_lines else None,
            trace=trace,
            trace_detail=trace_detail,
        )
        for pe in range(n_pes)
    ]
    returns: list[object] = [None] * n_pes
    errors: list[_PeError] = []
    errors_mutex = threading.Lock()

    def runner(pe: int) -> None:
        try:
            returns[pe] = pe_main(contexts[pe])
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            with errors_mutex:
                errors.append(_PeError(pe, exc))
            # Unblock any sibling waiting in HUGZ.
            world.barrier.abort()

    if n_pes == 1:
        # Run inline: cheaper, and keeps single-PE tracebacks readable.
        runner(0)
    else:
        threads = [
            threading.Thread(target=runner, args=(pe,), name=f"PE-{pe}", daemon=True)
            for pe in range(n_pes)
        ]
        for t in threads:
            t.start()
        # One deadline for the whole join, not one per thread: a hung
        # launch reports within 2x barrier_timeout however many PEs hang.
        deadline = time.monotonic() + barrier_timeout * 2
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
            if t.is_alive():
                world.barrier.abort()
                raise LolParallelError(
                    f"SPMD thread {t.name} failed to terminate (deadlock?)"
                )

    if errors:
        # A crashing PE aborts the barrier, which makes sibling PEs fail
        # with secondary "barrier broken" errors; report the root cause.
        def _is_secondary(e: _PeError) -> bool:
            return isinstance(e.error, LolError) and "barrier broken" in str(
                e.error
            )

        errors.sort(key=lambda e: (_is_secondary(e), e.pe))
        first = errors[0]
        if isinstance(first.error, LolError):
            raise LolParallelError(
                f"PE {first.pe} failed: {first.error.render()}",
                first.error.pos,
            ) from first.error
        raise first.error

    merged: Optional[WorldTrace] = None
    if trace:
        merged = merge_traces([ctx.trace for ctx in contexts])
    races = world.race_detector.reports if world.race_detector else []
    return SpmdResult(
        n_pes=n_pes,
        outputs=[ctx.output for ctx in contexts],
        returns=returns,
        trace=merged,
        races=races,
        heap_symbols=world.heap.symbols(),
    )
