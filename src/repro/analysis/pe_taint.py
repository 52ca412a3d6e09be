"""PE-dependence taint analysis and barrier alignment (``W101``).

Two cooperating pieces:

1. A forward dataflow (:class:`TaintAnalysis`) over each CFG computes,
   at every program point, the set of variables whose values may be
   **PE-dependent** — derived from ``ME``, ``WHATEVR``/``WHATEVAR``
   draws, ``GIMMEH`` input, remote (``UR``) data, or assigned under a
   PE-divergent branch.  The lattice per variable is the two-point
   chain ``UNIFORM ⊑ PE_DEP`` (a state is the set of ``PE_DEP``
   bindings, read off the access table of :mod:`.access`, so a
   shadowing declaration is another variable; join is set union).
   The implicit ``IT`` variable is tracked like any other, so
   ``O RLY?`` conditions routed through ``IT`` are classified
   precisely — including try-lock results, which are per-PE.

2. A structured barrier-alignment walk turns the per-branch divergence
   verdicts into the collective property the paper's barrier semantics
   require: **along every path, each ``HUGZ`` is reached by all PEs or
   by none**.  The abstraction per region is a barrier count in
   ``{0, 1, 2, …} ∪ {MANY}`` (``MANY`` = aligned but statically
   unknown, e.g. a uniform loop containing barriers).  A divergent
   branch is fine when all its arms have the same *exact* count — so
   ``BOTH SAEM ME AN 0, O RLY? YA RLY, HUGZ, NO WAI, HUGZ, OIC`` is
   clean — and flagged (``W101``) when counts differ, when a divergent
   loop body contains barriers, or when a ``GTFO``/``FOUND YR`` under
   divergent control can make PEs leave a barrier-bearing loop after
   different trip counts.

Soundness caveats (documented in ``docs/analysis.md``): function call
results are conservatively PE-dependent; ``SRS`` dynamic names are
untracked; uniformity of a loop condition is judged at fixpoint over
all iterations.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional, Union

from ..lang import ast
from ..lang.resolve import Binding
from .access import ANY, Accesses, Uses
from .cfg import (
    CFG,
    BasicBlock,
    Branch,
    CfgStmt,
    Dispatch,
    LoopInc,
    Term,
    build_program_cfgs,
)
from .dataflow import ForwardAnalysis, run_forward
from .diagnostics import Diagnostic
from .summary import ProgramSummary

#: Taint state: the PE-dependent bindings, :data:`~.access.IT` included.
TaintState = frozenset[Binding]


def tainted(uses: Uses, state: TaintState) -> bool:
    """May what ``uses`` evaluates differ across PEs in ``state``?"""
    if uses.pe:
        return True
    for access in uses.reads:
        if access.binding in state:
            return True
    return False


class TaintAnalysis(ForwardAnalysis[TaintState]):
    def __init__(
        self, owner: "TaintResult", cfg: CFG, params: TaintState
    ) -> None:
        self.owner = owner
        self.cfg = cfg
        self.accesses: Accesses = owner.summary.accesses
        self.bindings = owner.summary.bindings
        self.params = params
        #: blocks whose transfer grew since the solver last asked
        self._requeue: list[int] = []
        #: id(branch node) -> the blocks it governs, built on first flip
        self._governed: Optional[dict[int, list[int]]] = None
        #: block id -> whether a divergent branch governs it, until the
        #: next flip
        self._context: dict[int, bool] = {}

    def boundary(self) -> TaintState:
        return self.params

    def join(self, a: TaintState, b: TaintState) -> TaintState:
        return a | b

    def _divergent_context(self, block: BasicBlock) -> bool:
        hot = self._context.get(block.bid)
        if hot is None:
            hot = self._context[block.bid] = any(
                self.owner.branch_divergent.get(id(g), False)
                for g in block.governing
            )
        return hot

    def transfer_stmt(
        self, state: TaintState, entry: CfgStmt, block: BasicBlock
    ) -> TaintState:
        stmt, _ctx = entry
        if isinstance(stmt, LoopInc):
            return state  # the PEs still looping agree on the counter
        if isinstance(stmt, ast.VarDecl):
            # the declared value is the initializer's; the extent of an
            # array does not make its (zeroed) elements PE-dependent
            declared = self.bindings.of(stmt)
            assert declared is not None
            hot = self._divergent_context(block) or (
                stmt.init is not None
                and tainted(self.accesses.expr(stmt.init), state)
            )
            return (state | {declared}) if hot else (state - {declared})
        uses = self.accesses.of(stmt)
        if not uses.writes:
            return state
        write = uses.writes[-1]
        target = write.binding
        if write.remote or target is ANY:
            return state  # no local definition to track
        hot = (
            isinstance(stmt, ast.Gimmeh)  # input
            or isinstance(stmt, ast.LockStmt)  # try-lock success, per PE
            or self._divergent_context(block)
            or tainted(uses, state)
        )
        if write.index is not None:
            # weak update: one element changed, the array as a whole
            # becomes PE-dependent only if the write was
            return (state | {target}) if hot else state
        return (state | {target}) if hot else (state - {target})

    def transfer_term(
        self, state: TaintState, term: Term, block: BasicBlock
    ) -> TaintState:
        if isinstance(term, (Branch, Dispatch)):
            node = term.owner
            divergent = tainted(self.accesses.term(term), state)
            if divergent and self.owner.mark_divergent(node):
                # An assignment the branch governs now taints its target,
                # so its blocks must be transferred again even where their
                # in-states do not change.
                self._context.clear()
                self._requeue += self._governed_by(node)
        return state

    def _governed_by(
        self, node: Union[ast.If, ast.Switch, ast.Loop]
    ) -> list[int]:
        if self._governed is None:
            self._governed = {}
            for block in self.cfg.blocks:
                for g in block.governing:
                    self._governed.setdefault(id(g), []).append(block.bid)
        return self._governed.get(id(node), [])

    def requeued(self) -> Sequence[int]:
        again, self._requeue = self._requeue, []
        return again


class TaintResult:
    """Fixpoint taint facts for a whole program."""

    def __init__(self, program: ast.Program, summary: ProgramSummary) -> None:
        self.program = program
        self.summary = summary
        self.cfgs = build_program_cfgs(program, summary.functions)
        self.branch_divergent: dict[int, bool] = {}
        # One solve per CFG.  The divergence verdicts feed back into the
        # transfer (an assignment under a divergent branch taints its
        # target); a verdict only flips UNIFORM -> PE_DEP, and when one
        # flips the analysis requeues every reached block the branch
        # governs, so each solve ends at the joint least fixpoint.
        for func, cfg in self.cfgs:
            # a function's parameters are conservatively PE-dependent
            params = self.summary.bindings.params.get(id(func), ())
            run_forward(cfg, TaintAnalysis(self, cfg, frozenset(params)))

    def mark_divergent(
        self, node: Union[ast.If, ast.Switch, ast.Loop]
    ) -> bool:
        """Record ``node`` as PE-divergent; whether that is news."""
        if self.branch_divergent.get(id(node), False):
            return False
        self.branch_divergent[id(node)] = True
        return True

    def is_divergent(
        self, node: Union[ast.If, ast.Switch, ast.Loop]
    ) -> bool:
        return self.branch_divergent.get(id(node), False)


def analyze_taint(
    program: ast.Program, summary: ProgramSummary
) -> TaintResult:
    return TaintResult(program, summary)


# ---------------------------------------------------------------------------
# Barrier alignment (W101)
# ---------------------------------------------------------------------------

#: Barrier count abstraction: exact ``int`` or MANY (aligned, unknown).
MANY = -1

#: Break/return divergence: none, uniform (all PEs together), divergent.
_NO, _UNIFORM, _DIVERGENT = 0, 1, 2


def _add(a: int, b: int) -> int:
    return MANY if (a == MANY or b == MANY) else a + b


class BarrierChecker:
    def __init__(self, taint: TaintResult) -> None:
        self.taint = taint
        self.diags: list[Diagnostic] = []
        self._flagged: set[int] = set()  # id(Hugz) already reported
        self._summaries: dict[str, int] = {}
        self._in_progress: set[str] = set()

    # -- function barrier-count summaries ------------------------------

    def call_count(self, fname: str) -> int:
        if fname in self._summaries:
            return self._summaries[fname]
        func = self.taint.summary.callees.get(fname)
        if func is None or fname in self._in_progress:
            return 0  # unknown callee / recursion: assume barrier-free
        self._in_progress.add(fname)
        count, _br, _ret = self._body(func.body, quiet=True)
        self._in_progress.discard(fname)
        self._summaries[fname] = count
        return count

    def _stmt_call_count(self, stmt: ast.Stmt) -> int:
        total = 0
        for call in self.taint.summary.accesses.of(stmt).calls:
            total = _add(total, self.call_count(call.name))
        return total

    # -- the walk ------------------------------------------------------

    def check(self) -> list[Diagnostic]:
        count, _br, ret = self._body(self.taint.program.body, quiet=False)
        if ret == _DIVERGENT and count != 0:
            self._flag_region(self.taint.program.body)
        for func in self.taint.summary.functions:
            count, _br, ret = self._body(func.body, quiet=False)
            if ret == _DIVERGENT and count != 0:
                self._flag_region(func.body)
        return self.diags

    def _body(
        self, body: list[ast.Stmt], *, quiet: bool
    ) -> tuple[int, int, int]:
        """Return ``(barrier_count, break_kind, return_kind)``."""
        count = 0
        brk = _NO
        ret = _NO
        for stmt in body:
            if isinstance(stmt, ast.Hugz):
                count = _add(count, 1)
            elif isinstance(stmt, ast.Gtfo):
                brk = max(brk, _UNIFORM)
            elif isinstance(stmt, ast.Return):
                # the returned expression runs first: its calls count
                count = _add(count, self._stmt_call_count(stmt))
                ret = max(ret, _UNIFORM)
            elif isinstance(stmt, (ast.If, ast.Switch)):
                count, brk, ret = self._branch(
                    stmt, count, brk, ret, quiet=quiet
                )
            elif isinstance(stmt, ast.Loop):
                count, ret = self._loop(stmt, count, ret, quiet=quiet)
            elif isinstance(stmt, ast.TxtStmt):
                c, b, r = self._body(stmt.body, quiet=quiet)
                count = _add(count, c)
                brk = max(brk, b)
                ret = max(ret, r)
            elif isinstance(stmt, ast.FuncDef):
                continue
            else:
                count = _add(count, self._stmt_call_count(stmt))
        return count, brk, ret

    def _branch(
        self,
        stmt: Union[ast.If, ast.Switch],
        count: int,
        brk: int,
        ret: int,
        *,
        quiet: bool,
    ) -> tuple[int, int, int]:
        arms = ast.child_statements(stmt)
        results = [self._body(arm, quiet=quiet) for arm in arms]
        divergent = self.taint.is_divergent(stmt)
        arm_counts = [c for c, _b, _r in results]
        arm_brk = max((b for _c, b, _r in results), default=_NO)
        arm_ret = max((r for _c, _b, r in results), default=_NO)
        if divergent:
            aligned = (
                all(c == arm_counts[0] for c in arm_counts)
                and arm_counts[0] != MANY
            )
            if not aligned:
                if not quiet:
                    self._flag_region([stmt])
                return count, max(brk, self._div(arm_brk)), max(
                    ret, self._div(arm_ret)
                )
            return (
                _add(count, arm_counts[0]),
                max(brk, self._div(arm_brk)),
                max(ret, self._div(arm_ret)),
            )
        joined = arm_counts[0] if arm_counts else 0
        for c in arm_counts[1:]:
            if c != joined:
                joined = MANY  # uniform choice: aligned, count unknown
        return _add(count, joined), max(brk, arm_brk), max(ret, arm_ret)

    @staticmethod
    def _div(kind: int) -> int:
        return _DIVERGENT if kind != _NO else _NO

    def _loop(
        self, stmt: ast.Loop, count: int, ret: int, *, quiet: bool
    ) -> tuple[int, int]:
        c, brk, r = self._body(stmt.body, quiet=quiet)
        divergent = stmt.cond is not None and self.taint.is_divergent(stmt)
        if c != 0 and (divergent or brk == _DIVERGENT or r == _DIVERGENT):
            if not quiet:
                self._flag_region([stmt])
            return count, max(ret, self._div(r))
        if c != 0:
            count = _add(count, MANY)  # aligned, trip count unknown
        return count, max(ret, r)

    def _flag_region(self, stmts: list[ast.Stmt]) -> None:
        for stmt in ast.walk_statements(stmts):
            if isinstance(stmt, ast.Hugz) and id(stmt) not in self._flagged:
                self._flagged.add(id(stmt))
                self.diags.append(
                    Diagnostic(
                        "W101",
                        "HUGZ under PE-divergent control is not matched "
                        "on every path: PEs taking different paths "
                        "deadlock at the barrier",
                        stmt.pos,
                    )
                )
            else:
                for call in self.taint.summary.accesses.of(stmt).calls:
                    if (
                        self.call_count(call.name) != 0
                        and id(call) not in self._flagged
                    ):
                        self._flagged.add(id(call))
                        self.diags.append(
                            Diagnostic(
                                "W101",
                                f"call to '{call.name}' (which "
                                f"barriers) under PE-divergent "
                                f"control may deadlock",
                                call.pos,
                            )
                        )


def check_barriers(taint: TaintResult) -> list[Diagnostic]:
    """``W101``: path-sensitive barrier-matching over taint verdicts."""
    return BarrierChecker(taint).check()
