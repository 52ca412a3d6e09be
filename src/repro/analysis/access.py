"""What each statement reads, writes and calls: one table for the analyses.

:class:`Accesses` gives every statement, CFG pseudo-statement and
terminator its reads and writes, keyed by the binder's
:class:`~repro.lang.resolve.Binding`, and its calls, in evaluation
order; and every callee, once, what a call of it does.  PE taint,
bounds, races, locks and ``remote_unwritten`` read names only here, so
a name means what it means on ``ast``, ``vm`` and ``c``: an ``I HAS A
x`` in an arm is another variable than the ``x`` outside.  :data:`IT`
stands for the implicit variable and :data:`ANY` for whatever an
``SRS`` site names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Union

from ..lang import ast
from ..lang.errors import SourcePos
from ..lang.resolve import ROOT, Binding, Bindings
from .cfg import Branch, Dispatch, LoopInc, LoopInit, Pseudo, Term, TxtPe

#: ``IT``: slot 0 of every frame.
IT = Binding("IT", SourcePos(), None, 0, ROOT)
#: Whatever variable an ``SRS`` site names.
ANY = Binding("SRS", SourcePos(), None, -1, ROOT)


class Access(NamedTuple):
    binding: Binding
    index: Optional[ast.Index]  # the element access; None: the whole variable
    remote: bool  # through ``UR``
    write: bool
    pos: SourcePos


Event = Union[Access, ast.FuncCall]


class Uses(NamedTuple):
    """What running one statement (or evaluating one expression) does."""

    events: tuple[Event, ...]  # in evaluation order
    reads: tuple[Access, ...]
    writes: tuple[Access, ...]
    calls: tuple[ast.FuncCall, ...]
    #: reads ``ME``, a draw, ``SRS``, a ``UR`` name or a call result:
    #: values that may differ across PEs whatever the variables hold
    pe: bool


def _uses(events: list[Event], pe: bool) -> Uses:
    reads: list[Access] = []
    writes: list[Access] = []
    calls: list[ast.FuncCall] = []
    for event in events:
        if isinstance(event, ast.FuncCall):
            calls.append(event)
        elif event.write:
            writes.append(event)
        else:
            reads.append(event)
    return Uses(tuple(events), tuple(reads), tuple(writes), tuple(calls), pe)


NONE = _uses([], False)


@dataclass(frozen=True, slots=True)
class Callee:
    """What a call to one function does, as its caller sees it."""

    #: every access of the body, reads first; the element is unknown
    accesses: tuple[Access, ...]
    barriers: bool
    #: the lock statements the body runs, in order
    locks: tuple[ast.LockStmt, ...]


class Accesses:
    """The access table of one program (see the module docstring)."""

    def __init__(
        self, bindings: Bindings, callees: dict[str, ast.FuncDef]
    ) -> None:
        self.bindings = bindings
        self.callees = callees
        #: id(statement or expression) -> its uses, built on first use
        self._uses: dict[int, Uses] = {}
        #: (id(loop), is the increment) -> a counter step's uses; keyed by
        #: the loop, which the program keeps alive, not by the CFG's
        #: pseudo-statement
        self._steps: dict[tuple[int, bool], Uses] = {}
        #: id(If) -> the uses of its ``O RLY?`` test of ``IT``
        self._tests: dict[int, Uses] = {}
        self._callees: dict[str, Optional[Callee]] = {}

    # -- lookups -----------------------------------------------------------

    def of(self, stmt: Union[ast.Stmt, Pseudo]) -> Uses:
        """A statement's uses, not those of its nested blocks; for a CFG
        pseudo-statement, its ``TXT`` target or counter step."""
        got = self._uses.get(id(stmt))
        if got is not None:
            return got
        if isinstance(stmt, TxtPe):
            return self.of(stmt.node)
        if isinstance(stmt, (LoopInit, LoopInc)):
            inc = isinstance(stmt, LoopInc)
            got = self._steps.get((id(stmt.loop), inc))
            if got is None:
                counter = self.bindings.of(stmt.loop)
                assert counter is not None
                step = Access(counter, None, False, True, stmt.loop.pos)
                events: list[Event] = [step]
                if inc:  # the increment reads the counter first
                    events.insert(0, step._replace(write=False))
                got = _uses(events, False)
                self._steps[(id(stmt.loop), inc)] = got
            return got
        got = self._uses[id(stmt)] = self._stmt(stmt)
        return got

    def expr(self, expr: ast.Expr) -> Uses:
        """The uses of one expression a statement holds."""
        got = self._uses.get(id(expr))
        if got is None:
            events: list[Event] = []
            pe = self._walk(expr, events)
            got = self._uses[id(expr)] = _uses(events, pe)
        return got

    def term(self, term: Term) -> Uses:
        """What a terminator evaluates: its condition, or ``IT`` (and
        the case literals of a ``WTF?``)."""
        if isinstance(term, Dispatch):
            return self.of(term.owner)
        if not isinstance(term, Branch):
            return NONE
        if term.cond is not None:
            return self.expr(term.cond)
        # an O RLY?'s test of IT: one per If, so keyed by the If
        got = self._tests.get(id(term.owner))
        if got is None:
            it = Access(IT, None, False, False, term.owner.pos)
            got = self._tests[id(term.owner)] = _uses([it], False)
        return got

    # -- building ------------------------------------------------------------

    def _walk(self, expr: ast.Expr, events: list[Event]) -> bool:
        """Append what evaluating ``expr`` reads and calls to ``events``;
        whether it is PE-dependent whatever the variables hold."""
        refs = self.bindings.refs
        pe = False
        base: object = None  # an Index's base, recorded with the Index
        for sub in ast.walk_expr(expr):
            if type(sub) is ast.VarRef:
                remote = sub.qualifier == "UR"
                pe = pe or remote
                b = refs.get(id(sub))
                if b is not None and sub is not base:
                    events.append(Access(b, None, remote, False, sub.pos))
            elif type(sub) is ast.Index:
                base = sub.base  # walk_expr yields it next
                if type(base) is ast.VarRef:
                    b = refs.get(id(base))
                    if b is not None:
                        remote = base.qualifier == "UR"
                        events.append(Access(b, sub, remote, False, sub.pos))
            elif type(sub) is ast.FuncCall:
                pe = True
                events.append(sub)
            elif type(sub) is ast.SrsRef:
                pe = True
                remote = sub.qualifier == "UR"
                events.append(Access(ANY, None, remote, False, sub.pos))
            elif type(sub) is ast.MeExpr or type(sub) is ast.RandomExpr:
                pe = True
            elif type(sub) is ast.ItRef:
                events.append(Access(IT, None, False, False, sub.pos))
            elif type(sub) is ast.StringLit:
                for part in sub.parts:
                    if type(part) is tuple:
                        b = refs.get((id(sub), part[1]))
                        if b is not None:
                            events.append(Access(b, None, False, False, sub.pos))
        return pe

    def _store(self, target: ast.Expr, events: list[Event]) -> bool:
        """Append the events of storing to ``target``: its ``SRS`` name
        and index reads, then the write (none to an undeclared name)."""
        pe = False
        index = target if isinstance(target, ast.Index) else None
        node = target.base if isinstance(target, ast.Index) else target
        if isinstance(node, ast.SrsRef):
            pe = self._walk(node.expr, events)
            b: Optional[Binding] = ANY
        elif isinstance(node, ast.VarRef):
            b = self.bindings.of(node)
        else:
            return pe
        if index is not None:
            pe = self._walk(index.index, events) or pe
        if b is not None:
            remote = node.qualifier == "UR"
            events.append(Access(b, index, remote, True, target.pos))
        return pe

    def _stmt(self, stmt: ast.Stmt) -> Uses:
        events: list[Event] = []
        pe = False
        if isinstance(stmt, ast.Assign):
            pe = self._walk(stmt.value, events)
            pe = self._store(stmt.target, events) or pe
        elif isinstance(stmt, ast.Gimmeh):
            pe = self._store(stmt.target, events)
        elif isinstance(stmt, ast.CastStmt):
            # reads the variable, then stores the converted value
            pe = self._walk(stmt.target, events)
            self._store(stmt.target, events)
        elif isinstance(stmt, ast.LockStmt):
            if isinstance(stmt.target, ast.SrsRef):
                self._walk(stmt.target.expr, events)
            if stmt.kind == "trylock":
                events.append(Access(IT, None, False, True, stmt.pos))
        else:
            if isinstance(stmt, (ast.If, ast.Switch)):
                events.append(Access(IT, None, False, False, stmt.pos))
            for expr in ast.stmt_exprs(stmt):
                pe = self._walk(expr, events) or pe
            if isinstance(stmt, ast.ExprStmt):
                events.append(Access(IT, None, False, True, stmt.pos))
            elif isinstance(stmt, ast.VarDecl) and (
                stmt.init is not None or stmt.scope != "WE"
            ):
                # a repeated WE HAS A without initializer keeps the value
                b = self.bindings.of(stmt)
                assert b is not None
                events.append(Access(b, None, False, True, stmt.pos))
        return _uses(events, pe) if events or pe else NONE

    # -- call summaries ------------------------------------------------------

    def callee(self, name: str) -> Optional[Callee]:
        """What calling ``name`` does; ``None`` for an unknown function
        and, while its own summary is being built, for a recursive call."""
        if name in self._callees:
            return self._callees[name]
        func = self.callees.get(name)
        if func is None:
            return None
        self._callees[name] = None
        reads: list[Access] = []
        writes: list[Access] = []
        barriers = False
        locks: list[ast.LockStmt] = []
        for stmt in _run_statements(func.body):
            if isinstance(stmt, ast.Hugz):
                barriers = True
            elif isinstance(stmt, ast.LockStmt):
                locks.append(stmt)
            for event in self.of(stmt).events:
                if isinstance(event, Access):
                    whole = event._replace(index=None)
                    (writes if event.write else reads).append(whole)
                    continue
                inner = self.callee(event.name)
                if inner is not None:
                    barriers = barriers or inner.barriers
                    for access in inner.accesses:
                        (writes if access.write else reads).append(access)
                    locks += inner.locks
        summary = Callee(tuple(reads + writes), barriers, tuple(locks))
        self._callees[name] = summary
        return summary


def _run_statements(body: list[ast.Stmt]) -> Iterator[ast.Stmt]:
    """Every statement a call of ``body`` may run, nested blocks included,
    nested definitions' bodies not (defining a function runs nothing)."""
    for stmt in body:
        yield stmt
        if not isinstance(stmt, ast.FuncDef):
            for block in ast.child_statements(stmt):
                yield from _run_statements(block)
