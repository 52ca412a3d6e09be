"""Barrier-segmented static happens-before (``W102``).

Forward dataflow over each CFG.  The state is the set of *writes* to
symmetric symbols recorded since the last ``HUGZ`` (the current
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
from typing import Optional, Union

from ..lang import ast
from ..lang.errors import SourcePos
from .bounds import BoundsResult, Rng, ranges_may_overlap
from .cfg import (
    BasicBlock,
    Branch,
    CfgStmt,
    Dispatch,
    LoopInc,
    LoopInit,
    Term,
    TxtPe,
)
from .dataflow import ForwardAnalysis, run_forward
from .diagnostics import Diagnostic, FixIt
from .pe_taint import TaintResult

#: one recorded write: (symbol, "lw"|"rw", id(Index node) or -1)
WriteKey = tuple[str, str, int]


@dataclass(frozen=True, slots=True)
class EpochState:
    writes: frozenset[WriteKey] = frozenset()
    held: frozenset[str] = frozenset()  # must-held locks


@dataclass(frozen=True, slots=True)
class _Access:
    name: str
    remote: bool
    is_write: bool
    key: int  # id(Index node) or -1
    pos: SourcePos


@dataclass(frozen=True, slots=True)
class _Call:
    name: str
    pos: SourcePos


_Event = Union[_Access, _Call, None]


class RaceAnalysis(ForwardAnalysis[EpochState]):
    def __init__(self, checker: "RaceChecker") -> None:
        self.checker = checker

    def boundary(self) -> EpochState:
        return EpochState()

    def join(self, a: EpochState, b: EpochState) -> EpochState:
        return EpochState(a.writes | b.writes, a.held & b.held)

    def transfer_stmt(
        self, state: EpochState, entry: CfgStmt, block: BasicBlock
    ) -> EpochState:
        stmt, _ctx = entry
        if isinstance(stmt, (LoopInit, LoopInc)):
            return state
        if isinstance(stmt, TxtPe):
            return self._events(state, self.checker.expr_events(stmt.node.pe))
        if isinstance(stmt, ast.Hugz):
            return EpochState(frozenset(), state.held)
        if isinstance(stmt, ast.LockStmt):
            return self._lock(state, stmt)
        return self._events(state, self.checker.stmt_events(stmt))

    def transfer_term(
        self, state: EpochState, term: Term, block: BasicBlock
    ) -> EpochState:
        if isinstance(term, Branch) and term.cond is not None:
            return self._events(
                state, self.checker.expr_events(term.cond)
            )
        if isinstance(term, Dispatch):
            for lit, _b in term.cases:
                state = self._events(state, self.checker.expr_events(lit))
        return state

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
        self, state: EpochState, events: list[_Event]
    ) -> EpochState:
        writes = state.writes
        for event in events:
            if event is None:
                continue
            if isinstance(event, _Call):
                summary = self.checker.summaries.get(event.name)
                if summary is None:
                    continue
                accesses, has_barrier = summary
                if has_barrier:
                    writes = frozenset()
                    continue
                for acc in accesses:
                    writes = self._one(
                        writes, acc, state.held, at=event.pos
                    )
                continue
            writes = self._one(writes, event, state.held, at=event.pos)
        return EpochState(writes, state.held)

    def _one(
        self,
        writes: frozenset[WriteKey],
        acc: _Access,
        held: frozenset[str],
        *,
        at: SourcePos,
    ) -> frozenset[WriteKey]:
        if held:
            return writes  # assumed lock-synchronized
        checker = self.checker
        if acc.is_write:
            against = "lw" if acc.remote else "rw"
            verb = (
                "remote write to '{0}' conflicts with a local write"
                if acc.remote
                else "local write to '{0}' conflicts with a remote write"
            )
            checker.conflicts(writes, acc, against, verb.format(acc.name), at)
            kind = "rw" if acc.remote else "lw"
            key = (acc.name, kind, acc.key)
            checker.note_pos(key, acc.pos)
            return writes | {key}
        if acc.remote:
            checker.conflicts(
                writes,
                acc,
                "lw",
                f"remote read of '{acc.name}' may observe an "
                f"unsynchronized local write",
                at,
            )
        else:
            checker.conflicts(
                writes,
                acc,
                "rw",
                f"local read of '{acc.name}' after a remote write "
                f"(the Figure 2 race)",
                at,
            )
        return writes


class RaceChecker:
    def __init__(self, taint: TaintResult, bounds: BoundsResult) -> None:
        self.taint = taint
        self.bounds = bounds
        self.diags: list[Diagnostic] = []
        self._seen: set[tuple[int, int, str]] = set()
        self.symmetric = taint.summary.symmetric
        self.pos_of: dict[WriteKey, SourcePos] = {}
        self.summaries = {
            name: self._summarise(func)
            for name, func in taint.summary.callees.items()
        }

    # -- reporting -----------------------------------------------------

    def note_pos(self, key: WriteKey, pos: SourcePos) -> None:
        self.pos_of.setdefault(key, pos)

    def conflicts(
        self,
        writes: frozenset[WriteKey],
        acc: _Access,
        against_kind: str,
        message: str,
        at: SourcePos,
    ) -> None:
        rng = self._range(acc.key)
        for name, kind, key in writes:
            if name != acc.name or kind != against_kind:
                continue
            if not ranges_may_overlap(rng, self._range(key)):
                continue
            prior = self.pos_of.get((name, kind, key))
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

    # -- event extraction ----------------------------------------------

    def expr_events(
        self, expr: ast.Expr, skip: Optional[ast.Expr] = None
    ) -> list[_Event]:
        events: list[_Event] = []
        consumed: set[int] = set()
        for sub in ast.walk_expr(expr):
            if sub is skip:
                continue
            if isinstance(sub, ast.FuncCall):
                events.append(_Call(sub.name, sub.pos))
            elif isinstance(sub, ast.Index) and isinstance(
                sub.base, ast.VarRef
            ):
                base = sub.base
                consumed.add(id(base))
                if base.name in self.symmetric:
                    events.append(
                        _Access(
                            base.name,
                            base.qualifier == "UR",
                            False,
                            id(sub),
                            sub.pos,
                        )
                    )
            elif isinstance(sub, ast.VarRef) and id(sub) not in consumed:
                if sub.name in self.symmetric:
                    events.append(
                        _Access(
                            sub.name,
                            sub.qualifier == "UR",
                            False,
                            -1,
                            sub.pos,
                        )
                    )
        return events

    def _write_event(self, target: ast.Expr) -> Optional[_Access]:
        if isinstance(target, ast.VarRef):
            if target.name in self.symmetric:
                return _Access(
                    target.name,
                    target.qualifier == "UR",
                    True,
                    -1,
                    target.pos,
                )
            return None
        if isinstance(target, ast.Index) and isinstance(
            target.base, ast.VarRef
        ):
            base = target.base
            if base.name in self.symmetric:
                return _Access(
                    base.name,
                    base.qualifier == "UR",
                    True,
                    id(target),
                    target.pos,
                )
        return None

    def stmt_events(self, stmt: ast.Stmt) -> list[_Event]:
        events: list[_Event] = []
        if isinstance(stmt, ast.Assign):
            events += self.expr_events(stmt.value)
            target = stmt.target
            if isinstance(target, ast.Index):
                events += self.expr_events(target.index)
            events.append(self._write_event(target))
        elif isinstance(stmt, ast.VarDecl):
            if stmt.size is not None:
                events += self.expr_events(stmt.size)
            if stmt.init is not None:
                events += self.expr_events(stmt.init)
        elif isinstance(stmt, ast.ExprStmt):
            events += self.expr_events(stmt.expr)
        elif isinstance(stmt, ast.Visible):
            for arg in stmt.args:
                events += self.expr_events(arg)
        elif isinstance(stmt, ast.Gimmeh):
            target = stmt.target
            if isinstance(target, ast.Index):
                events += self.expr_events(target.index)
            events.append(self._write_event(target))
        elif isinstance(stmt, ast.Return):
            events += self.expr_events(stmt.expr)
        return events

    # -- function summaries --------------------------------------------

    def _summarise(
        self, func: ast.FuncDef
    ) -> tuple[list[_Access], bool]:
        accesses: list[_Access] = []
        has_barrier = False
        for stmt in ast.walk_statements(func.body):
            if isinstance(stmt, ast.Hugz):
                has_barrier = True
                continue
            for event in self.stmt_events(stmt):
                if isinstance(event, _Access):
                    # summarised accesses lose their index precision
                    accesses.append(
                        _Access(
                            event.name,
                            event.remote,
                            event.is_write,
                            -1,
                            event.pos,
                        )
                    )
        reads = [a for a in accesses if not a.is_write]
        writes = [a for a in accesses if a.is_write]
        return reads + writes, has_barrier

    # -- driving -------------------------------------------------------

    def check(self) -> list[Diagnostic]:
        if not self.symmetric:
            return []
        for _func, cfg in self.taint.cfgs:
            run_forward(cfg, RaceAnalysis(self))
        return self.diags


def check_races(taint: TaintResult, bounds: BoundsResult) -> list[Diagnostic]:
    return RaceChecker(taint, bounds).check()
