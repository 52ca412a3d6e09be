"""Thread-based SPMD executor.

Runs one Python thread per PE against a shared :class:`~repro.shmem.api.World`.
This is the default executor: it supports every language feature (including
YARN-typed symmetric data and the race detector) and gives deterministic
output capture — at the cost of no true parallel speedup for compute-bound
code (the CPython GIL serialises bytecode; see DESIGN.md and the process
executor for the true-parallelism path).

The PE threads are not started per launch.  A multi-PE launch checks out a
warm :class:`_Team` of ``n_pes`` parked threads named ``PE-0`` … ``PE-{n-1}``,
releases one gate per thread, waits for the last PE to finish, and checks
the team back in; a fresh ``World`` and fresh contexts are still built for
every run.  At most one idle team per PE count is kept, so concurrent
callers each get a team of their own.  A single PE runs inline.

If any PE raises, the barrier is aborted so sibling PEs blocked in ``HUGZ``
fail fast instead of deadlocking, and the first error is re-raised in the
caller annotated with its PE id.  The team survives a PE error.  A launch
that misses its ``2 x barrier_timeout`` deadline retires its team instead:
its threads exit once their PE body returns, and the next launch builds a
new one.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..lang.errors import LolError, LolParallelError
from .api import DEFAULT_BARRIER_TIMEOUT, ShmemContext, World
from .heap import SymmetricPlan
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


class _Team:
    """``n_pes`` PE threads parked between launches.

    Each thread waits on its own gate.  :meth:`run` hands every thread the
    launch's runner and opens all gates; the last PE to finish releases
    ``done``.  A retired team's threads exit instead of parking again.
    """

    def __init__(self, n_pes: int) -> None:
        self.n_pes = n_pes
        self.done = threading.Lock()
        self.done.acquire()
        self._job: Optional[Callable[[int], None]] = None
        self._gates = [threading.Lock() for _ in range(n_pes)]
        self._running = [False] * n_pes
        self._remaining = 0
        self._dead = False
        self._mutex = threading.Lock()
        for gate in self._gates:
            gate.acquire()
        for pe in range(n_pes):
            threading.Thread(
                target=self._serve, args=(pe,), name=f"PE-{pe}", daemon=True
            ).start()

    def _serve(self, pe: int) -> None:
        gate = self._gates[pe]
        while True:
            gate.acquire()
            if self._dead:
                return
            self._job(pe)
            with self._mutex:
                self._running[pe] = False
                self._remaining -= 1
                if self._remaining == 0:
                    self.done.release()
                dead = self._dead
            if dead:
                return

    def run(self, job: Callable[[int], None]) -> None:
        """Start ``job(pe)`` on every PE thread; ``done`` opens when all return."""
        self._job = job
        self._running = [True] * self.n_pes
        self._remaining = self.n_pes
        for gate in self._gates:
            gate.release()

    def clear(self) -> None:
        """Drop the finished launch's runner (and the World it holds)."""
        self._job = None

    def retire(self) -> Optional[int]:
        """Stop reusing this team; return the first PE still running.

        Parked threads are woken to exit; running ones exit when their
        PE body returns.
        """
        with self._mutex:
            self._dead = True
            for pe in range(self.n_pes):
                if not self._running[pe]:
                    self._gates[pe].release()
            return next(
                (pe for pe in range(self.n_pes) if self._running[pe]), None
            )


class _TeamPool:
    """Idle teams, at most one per PE count, shared by every caller."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._idle: dict[int, _Team] = {}

    def checkout(self, n_pes: int) -> _Team:
        with self._mutex:
            team = self._idle.pop(n_pes, None)
        return team if team is not None else _Team(n_pes)

    def checkin(self, team: _Team) -> None:
        team.clear()
        with self._mutex:
            surplus = team.n_pes in self._idle
            if not surplus:
                self._idle[team.n_pes] = team
        if surplus:
            team.retire()

    def forget(self) -> None:
        """After ``fork``: the parent's team threads do not exist here."""
        self._mutex = threading.Lock()
        self._idle = {}


_TEAMS = _TeamPool()
os.register_at_fork(after_in_child=_TEAMS.forget)


def run_spmd(
    pe_main: Callable[[ShmemContext], object],
    n_pes: int,
    *,
    plan: Optional[SymmetricPlan] = None,
    seed: Optional[int] = None,
    stdin_lines: Optional[Sequence[Sequence[str]]] = None,
    trace: bool = False,
    race_detection: bool = False,
    element_granularity: bool = False,
    barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
) -> SpmdResult:
    """Execute ``pe_main(ctx)`` on ``n_pes`` concurrent PEs.

    The world's symmetric heap holds the symbols of ``plan`` (none by
    default), laid out before any PE starts.  ``stdin_lines`` optionally
    provides per-PE GIMMEH input: ``stdin_lines[pe]`` is the sequence of
    lines available to that PE.
    """
    if n_pes < 1:
        raise LolParallelError(f"need at least 1 PE, got {n_pes}")
    world = World.for_threads(
        n_pes,
        plan or SymmetricPlan(),
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
        team = _TEAMS.checkout(n_pes)
        team.run(runner)
        finished = False
        try:
            # One deadline for the whole launch, however many PEs hang.
            finished = team.done.acquire(timeout=barrier_timeout * 2)
        finally:
            if finished:
                _TEAMS.checkin(team)
            else:
                straggler = team.retire()
                world.barrier.abort()
        if not finished and straggler is not None:
            raise LolParallelError(
                f"SPMD thread PE-{straggler} failed to terminate (deadlock?)"
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
