"""Path-sensitive lock analysis (``W103`` / ``W105`` / ``W106``).

A forward may/must dataflow per CFG tracks, for every lock symbol:

* ``may`` — the set of acquire sites that may still hold the lock on
  some path to this point,
* ``must`` — whether the lock is held on *every* path.

Joins take the union of ``may`` and the intersection of ``must``.
Try-locks (``IM MESIN WIF``, result in ``IT``) are modelled
path-sensitively: when the very next ``O RLY?`` tests the try-lock's
``IT``, the YA RLY edge refines to *held* and the NO WAI edge to *not
held* — the idiomatic spin-loop therefore verifies as released.
``DUN MESIN WIF SRS <expr>`` (a dynamic name) conservatively releases
every tracked lock, so dynamic release patterns no longer false-positive
the way the old "no DUN MESIN WIF anywhere" heuristic did.  A call
replays, in order, the lock statements its callee runs (the access
table's call summary, :meth:`.access.Accesses.callee`).

Diagnostics:

* ``W103`` — an acquire site whose lock may still be held at the
  function/program exit (reported at the acquire, a real position).
* ``W105`` — a blocking re-acquire while the lock is must-held
  (self-deadlock; the shim's global lock is not reentrant).
* ``W106`` — a lock acquired under a PE-divergent branch and not
  released within that branch arm: lock state diverges across PEs at
  the join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang import ast
from ..lang.errors import SourcePos
from .cfg import BasicBlock, Branch, CfgStmt, Term
from .dataflow import ForwardAnalysis, exit_state, run_forward
from .diagnostics import Diagnostic
from .pe_taint import TaintResult

#: per-lock fact: (name, sorted acquire positions may-holding, must-held)
LockItem = tuple[str, tuple[SourcePos, ...], bool]


@dataclass(frozen=True, slots=True)
class LockState:
    locks: tuple[LockItem, ...] = ()
    it_src: Optional[str] = None  # lock name whose trylock last set IT

    def as_dict(self) -> dict[str, tuple[frozenset[SourcePos], bool]]:
        return {n: (frozenset(may), must) for n, may, must in self.locks}


def _mk(
    d: dict[str, tuple[frozenset[SourcePos], bool]], it_src: Optional[str]
) -> LockState:
    items: list[LockItem] = []
    for name in sorted(d):
        may, must = d[name]
        if not may and not must:
            continue
        items.append(
            (name, tuple(sorted(may, key=lambda p: (p.line, p.col))), must)
        )
    return LockState(tuple(items), it_src)


class LockAnalysis(ForwardAnalysis[LockState]):
    def __init__(self, collector: "LockChecker") -> None:
        self.collector = collector
        self.accesses = collector.taint.summary.accesses

    def boundary(self) -> LockState:
        return LockState()

    def join(self, a: LockState, b: LockState) -> LockState:
        da, db = a.as_dict(), b.as_dict()
        out: dict[str, tuple[frozenset[SourcePos], bool]] = {}
        for name in set(da) | set(db):
            may_a, must_a = da.get(name, (frozenset(), False))
            may_b, must_b = db.get(name, (frozenset(), False))
            out[name] = (may_a | may_b, must_a and must_b)
        it_src = a.it_src if a.it_src == b.it_src else None
        return _mk(out, it_src)

    def transfer_stmt(
        self, state: LockState, entry: CfgStmt, block: BasicBlock
    ) -> LockState:
        stmt, _ctx = entry
        if isinstance(stmt, ast.LockStmt):
            return self._lock_stmt(state, stmt)
        state = self._calls(state, self.accesses.of(stmt).calls)
        if isinstance(stmt, ast.ExprStmt):
            return LockState(state.locks, None)  # IT redefined
        return state

    def transfer_term(
        self, state: LockState, term: Term, block: BasicBlock
    ) -> LockState:
        return self._calls(state, self.accesses.term(term).calls)

    def _lock_stmt(self, state: LockState, stmt: ast.LockStmt) -> LockState:
        d = state.as_dict()
        target = stmt.target
        if not isinstance(target, ast.VarRef):
            # SRS dynamic name: an unlock may release anything we track
            if stmt.kind == "unlock":
                return LockState((), state.it_src)
            if stmt.kind == "trylock":
                return LockState(state.locks, None)
            return state
        name = target.name
        may, must = d.get(name, (frozenset(), False))
        if stmt.kind == "lock":
            if must:
                self.collector.report(
                    "W105",
                    f"IM SRSLY MESIN WIF '{name}' while the lock is "
                    f"already held: this blocks forever (self-deadlock)",
                    stmt.pos,
                )
            d[name] = (may | {stmt.pos}, True)
            return _mk(d, state.it_src)
        if stmt.kind == "trylock":
            d[name] = (may | {stmt.pos}, must)
            return _mk(d, name)
        # unlock
        d[name] = (frozenset(), False)
        return _mk(d, state.it_src)

    def _calls(
        self, state: LockState, calls: tuple[ast.FuncCall, ...]
    ) -> LockState:
        """Replay the lock statements each callee runs; a lock it takes
        may be held after the call, never must."""
        for call in calls:
            callee = self.accesses.callee(call.name)
            if callee is None:
                continue
            for stmt in callee.locks:
                target = stmt.target
                if not isinstance(target, ast.VarRef):
                    if stmt.kind == "unlock":  # may release anything
                        state = LockState((), state.it_src)
                    continue
                d = state.as_dict()
                may, _must = d.get(target.name, (frozenset(), False))
                if stmt.kind == "unlock":
                    d[target.name] = (frozenset(), False)
                else:
                    d[target.name] = (may | {stmt.pos}, False)
                state = _mk(d, state.it_src)
        return state

    def refine_edge(
        self, state: LockState, block: BasicBlock, succ_index: int, succ: int
    ) -> LockState:
        term = block.term
        if (
            not isinstance(term, Branch)
            or not isinstance(term.owner, ast.If)
            or term.cond is not None
            or state.it_src is None
        ):
            return state
        name = state.it_src
        d = state.as_dict()
        may, must = d.get(name, (frozenset(), False))
        if succ_index == 0:  # YA RLY: the trylock succeeded
            d[name] = (may, True)
        else:  # NO WAI: it did not acquire
            if not must:
                d[name] = (frozenset(), False)
        return _mk(d, state.it_src)


class LockChecker:
    def __init__(self, taint: TaintResult) -> None:
        self.taint = taint
        self.program = taint.program
        self.diags: list[Diagnostic] = []
        self._seen: set[tuple[str, SourcePos]] = set()

    def report(self, code: str, message: str, pos: SourcePos) -> None:
        if (code, pos) in self._seen:
            return
        self._seen.add((code, pos))
        self.diags.append(Diagnostic(code, message, pos))

    # -- driving -------------------------------------------------------

    def check(self) -> list[Diagnostic]:
        if not self.taint.summary.has_locks:
            # every transfer is the identity, and W103, W105 and W106
            # each report a lock statement
            return self.diags
        for _func, cfg in self.taint.cfgs:
            analysis = LockAnalysis(self)
            in_states = run_forward(cfg, analysis)
            final = exit_state(cfg, analysis, in_states)
            for name, may, _must in final.locks:
                for pos in may:
                    self.report(
                        "W103",
                        f"lock on '{name}' acquired here may never be "
                        f"released on some path (add DUN MESIN WIF "
                        f"{name} before every exit)",
                        pos,
                    )
        self._check_divergent_acquires()
        return self.diags

    def _check_divergent_acquires(self) -> None:
        """``W106``: acquire under a divergent branch, no release in-arm."""
        for stmt in ast.walk_statements(self.program.body):
            if not isinstance(stmt, (ast.If, ast.Switch, ast.Loop)):
                continue
            if not self.taint.is_divergent(stmt):
                continue
            for arm in ast.child_statements(stmt):
                self._scan_arm(arm)

    def _scan_arm(self, arm: list[ast.Stmt]) -> None:
        released: set[str] = set()
        dynamic_release = False
        acquires: list[tuple[str, SourcePos]] = []
        for s in ast.walk_statements(arm):
            if isinstance(s, ast.LockStmt):
                if isinstance(s.target, ast.VarRef):
                    if s.kind == "unlock":
                        released.add(s.target.name)
                    elif s.kind == "lock":
                        acquires.append((s.target.name, s.pos))
                elif s.kind == "unlock":
                    dynamic_release = True
        if dynamic_release:
            return
        for name, pos in acquires:
            if name not in released:
                self.report(
                    "W106",
                    f"lock on '{name}' acquired under a PE-dependent "
                    f"branch and not released before the join: lock "
                    f"state diverges across PEs",
                    pos,
                )


def check_locks(taint: TaintResult) -> list[Diagnostic]:
    return LockChecker(taint).check()
