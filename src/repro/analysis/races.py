"""Barrier-segmented static happens-before (``W102``).

Forward dataflow over each CFG, over the access table of
:mod:`.access`.  The state is the set of *writes* to symmetric
bindings recorded since the last ``HUGZ`` (the current
*barrier epoch*), each tagged local/remote and with the array-index
range the bounds analysis computed for the access.  ``HUGZ`` clears
the epoch; joins take the union (a write pending on *some* path into a
block is pending in the block).

Within one epoch, program order is used as the SPMD order proxy (every
PE runs the same epoch code), and a conflict is flagged when the index
ranges may overlap:

* ``local write  → remote read``  — the ``nbody_racy`` bug: a getter
  may observe the owner's cell before/while the owner writes it;
* ``remote write → local read``  — the paper's Figure 2 bug;
* ``remote write → local write`` and ``local write → remote write`` —
  unordered write/write on the same cells.

A *remote read before a local write* (e.g. a tree reduction reading the
buddy's previous-epoch value and then updating its own) is deliberately
**not** flagged: the read targets data published before the epoch's
opening barrier.  Halo exchanges stay silent through index
disjointness (``u'Z 9`` vs ``u'Z 1``, interval-valued stencil loops).
Accesses made while a lock is must-held are assumed lock-synchronized
and skipped; purely remote↔remote conflicts are the lock analysis's
domain.  Every ``W102`` carries an insert-``HUGZ`` fix-it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang import ast
from ..lang.errors import SourcePos
from ..lang.resolve import Binding
from .access import Access, Accesses, Event
from .bounds import BoundsResult, Rng, ranges_may_overlap
from .cfg import BasicBlock, CfgStmt, Term
from .dataflow import ForwardAnalysis, run_forward
from .diagnostics import Diagnostic, FixIt
from .pe_taint import TaintResult

#: one recorded write: (symmetric binding, "lw"|"rw", id(Index node) or -1)
WriteKey = tuple[Binding, str, int]


@dataclass(frozen=True, slots=True)
class EpochState:
    writes: frozenset[WriteKey] = frozenset()
    held: frozenset[str] = frozenset()  # must-held locks


class RaceAnalysis(ForwardAnalysis[EpochState]):
    def __init__(self, checker: "RaceChecker") -> None:
        self.checker = checker
        self.accesses: Accesses = checker.accesses

    def boundary(self) -> EpochState:
        return EpochState()

    def join(self, a: EpochState, b: EpochState) -> EpochState:
        return EpochState(a.writes | b.writes, a.held & b.held)

    def transfer_stmt(
        self, state: EpochState, entry: CfgStmt, block: BasicBlock
    ) -> EpochState:
        stmt, _ctx = entry
        if isinstance(stmt, ast.Hugz):
            return EpochState(frozenset(), state.held)
        if isinstance(stmt, ast.LockStmt):
            return self._lock(state, stmt)
        return self._events(state, self.accesses.of(stmt).events)

    def transfer_term(
        self, state: EpochState, term: Term, block: BasicBlock
    ) -> EpochState:
        return self._events(state, self.accesses.term(term).events)

    def _lock(self, state: EpochState, stmt: ast.LockStmt) -> EpochState:
        if isinstance(stmt.target, ast.VarRef):
            name = stmt.target.name
            if stmt.kind == "lock":
                return EpochState(state.writes, state.held | {name})
            if stmt.kind == "unlock":
                return EpochState(state.writes, state.held - {name})
            return state
        if stmt.kind == "unlock":  # dynamic unlock: may release anything
            return EpochState(state.writes, frozenset())
        return state

    def _events(
        self, state: EpochState, events: tuple[Event, ...]
    ) -> EpochState:
        writes = state.writes
        for event in events:
            if isinstance(event, Access):
                if event.binding.symmetric:
                    writes = self._one(writes, event, state.held, at=event.pos)
                continue
            callee = self.accesses.callee(event.name)
            if callee is None:
                continue
            if callee.barriers:
                writes = frozenset()
                continue
            for acc in callee.accesses:
                if acc.binding.symmetric:
                    writes = self._one(writes, acc, state.held, at=event.pos)
        if writes is state.writes:
            return state
        return EpochState(writes, state.held)

    def _one(
        self,
        writes: frozenset[WriteKey],
        acc: Access,
        held: frozenset[str],
        *,
        at: SourcePos,
    ) -> frozenset[WriteKey]:
        if held:
            return writes  # assumed lock-synchronized
        checker = self.checker
        name = acc.binding.name
        if acc.write:
            against = "lw" if acc.remote else "rw"
            verb = (
                "remote write to '{0}' conflicts with a local write"
                if acc.remote
                else "local write to '{0}' conflicts with a remote write"
            )
            checker.conflicts(writes, acc, against, verb.format(name), at)
            kind = "rw" if acc.remote else "lw"
            key = (acc.binding, kind, _key(acc))
            checker.pos_of.setdefault(key, acc.pos)
            return writes | {key}
        if acc.remote:
            checker.conflicts(
                writes,
                acc,
                "lw",
                f"remote read of '{name}' may observe an "
                f"unsynchronized local write",
                at,
            )
        else:
            checker.conflicts(
                writes,
                acc,
                "rw",
                f"local read of '{name}' after a remote write "
                f"(the Figure 2 race)",
                at,
            )
        return writes


def _key(acc: Access) -> int:
    return -1 if acc.index is None else id(acc.index)


class RaceChecker:
    def __init__(self, taint: TaintResult, bounds: BoundsResult) -> None:
        self.taint = taint
        self.bounds = bounds
        self.accesses = taint.summary.accesses
        self.diags: list[Diagnostic] = []
        self._seen: set[tuple[int, int, str]] = set()
        self.pos_of: dict[WriteKey, SourcePos] = {}

    # -- reporting -----------------------------------------------------

    def conflicts(
        self,
        writes: frozenset[WriteKey],
        acc: Access,
        against_kind: str,
        message: str,
        at: SourcePos,
    ) -> None:
        rng = self._range(_key(acc))
        for binding, kind, key in writes:
            if binding is not acc.binding or kind != against_kind:
                continue
            if not ranges_may_overlap(rng, self._range(key)):
                continue
            prior = self.pos_of.get((binding, kind, key))
            where = f" at line {prior.line}" if prior is not None else ""
            self._report(
                Diagnostic(
                    "W102",
                    f"{message}{where} in the same barrier epoch "
                    f"(no HUGZ in between)",
                    at,
                    fixit=FixIt("HUGZ", at),
                )
            )
            return

    def _report(self, diag: Diagnostic) -> None:
        key = (diag.pos.line, diag.pos.col, diag.message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.diags.append(diag)

    def _range(self, key: int) -> Optional[Rng]:
        if key == -1:
            return None
        return self.bounds.index_ranges.get(key)

    # -- driving -------------------------------------------------------

    def check(self) -> list[Diagnostic]:
        if not self.taint.summary.declarations:
            return []
        for _func, cfg in self.taint.cfgs:
            run_forward(cfg, RaceAnalysis(self))
        return self.diags


def check_races(taint: TaintResult, bounds: BoundsResult) -> list[Diagnostic]:
    return RaceChecker(taint, bounds).check()
