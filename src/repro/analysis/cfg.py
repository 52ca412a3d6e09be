"""Control-flow graphs over the LOLCODE AST.

:func:`build_cfg` lowers a statement list (a program body or a function
body) into basic blocks:

* ``O RLY?`` / ``WTF?`` / ``IM IN YR`` become :class:`Branch`
  terminators (mebbe arms chain into one branch per condition; switch
  cases keep their C-style fallthrough),
* ``GTFO`` jumps to the innermost loop/switch exit (or the function
  exit), ``FOUND YR`` to the function exit,
* ``TXT MAH BFF`` predication is *flattened*: its body statements are
  laid into blocks with the predication expression attached as context,
  so a predicated block body containing loops still gets real CFG
  structure (a :class:`TxtPe` pseudo-statement stands for the target
  expression's evaluation),
* counted loops get :class:`LoopInit` / :class:`LoopInc`
  pseudo-statements so dataflow analyses see the counter's definition
  and update.

Every block records the branch statements *governing* it (the
``O RLY?``/``WTF?``/loop nodes it is control-dependent on), which is
what the PE-taint analysis uses to decide whether an assignment happens
divergently.  :meth:`CFG.rpo` and :meth:`CFG.dominators` provide
reverse-postorder iteration and classic iterative dominator sets.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from ..lang import ast

# ---------------------------------------------------------------------------
# Pseudo-statements
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class LoopInit:
    """Counter initialisation (``UPPIN/NERFIN YR var`` starts at 0)."""

    var: str
    loop: ast.Loop


@dataclass(slots=True)
class LoopInc:
    """Counter increment/decrement on the loop back edge."""

    var: str
    loop: ast.Loop


@dataclass(slots=True)
class TxtPe:
    """Evaluation of a ``TXT MAH BFF`` target expression."""

    node: ast.TxtStmt


Pseudo = Union[LoopInit, LoopInc, TxtPe]

#: A block entry: the statement (or pseudo-statement) plus the
#: ``TXT MAH BFF`` predication expression in whose body it appears
#: (``None`` outside any predication).
CfgStmt = tuple[Union[ast.Stmt, Pseudo], Optional[ast.Expr]]

# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Exit:
    """Falls off the end of the body (or returns)."""


@dataclass(slots=True)
class Goto:
    target: int


@dataclass(slots=True)
class Branch:
    """Two-way branch.

    ``owner`` is the controlling AST node.  ``cond`` is the tested
    expression — ``None`` means the implicit ``IT`` (``O RLY?``).  For
    loops, ``on_true`` is the *exit* edge of a ``TIL`` loop and the
    *body* edge of a ``WILE`` loop (the sense is normalised so that
    ``on_true`` is taken when ``cond`` evaluates truthy).
    """

    owner: Union[ast.If, ast.Switch, ast.Loop]
    cond: Optional[ast.Expr]
    on_true: int
    on_false: int


@dataclass(slots=True)
class Dispatch:
    """``WTF?`` case dispatch on ``IT`` (fallthrough handled by edges)."""

    owner: ast.Switch
    cases: list[tuple[ast.Expr, int]]
    default: int


Term = Union[Exit, Goto, Branch, Dispatch]


def successors(term: Term) -> list[int]:
    if isinstance(term, Goto):
        return [term.target]
    if isinstance(term, Branch):
        return [term.on_true, term.on_false]
    if isinstance(term, Dispatch):
        return [b for _, b in term.cases] + [term.default]
    return []


# ---------------------------------------------------------------------------
# Blocks and graphs
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class BasicBlock:
    bid: int
    stmts: list[CfgStmt] = field(default_factory=list)
    term: Term = field(default_factory=Exit)
    preds: list[int] = field(default_factory=list)
    #: branch/loop AST nodes this block is control-dependent on, outermost
    #: first (identity — use ``id()`` to key these).
    governing: tuple[Union[ast.If, ast.Switch, ast.Loop], ...] = ()

    @property
    def succs(self) -> list[int]:
        return successors(self.term)


class CFG:
    """A built control-flow graph (entry is block 0)."""

    def __init__(self, blocks: list[BasicBlock], exit_id: int) -> None:
        self.blocks = blocks
        self.entry = 0
        self.exit = exit_id
        for block in blocks:
            block.preds = []
        #: block id -> its successors (the terminators are final here)
        self.succs: list[list[int]] = [block.succs for block in blocks]
        for block in blocks:
            for s in self.succs[block.bid]:
                blocks[s].preds.append(block.bid)
        self._rpo: Optional[list[int]] = None
        self._rpo_index: Optional[dict[int, int]] = None

    def __len__(self) -> int:
        return len(self.blocks)

    def rpo(self) -> list[int]:
        """Reverse postorder over reachable blocks, entry first.  Worked
        out on the first call; every call returns that list, which
        callers must not change."""
        if self._rpo is None:
            self._rpo = self._reverse_postorder()
        return self._rpo

    def rpo_index(self) -> dict[int, int]:
        """Each reachable block's place in :meth:`rpo`; the same dict on
        every call, which callers must not change."""
        if self._rpo_index is None:
            self._rpo_index = {bid: i for i, bid in enumerate(self.rpo())}
        return self._rpo_index

    def _reverse_postorder(self) -> list[int]:
        seen: set[int] = set()
        order: list[int] = []

        def visit(bid: int) -> None:
            stack: list[tuple[int, Iterator[int]]] = []
            seen.add(bid)
            stack.append((bid, iter(self.succs[bid])))
            while stack:
                cur, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, iter(self.succs[nxt])))
                        advanced = True
                        break
                if not advanced:
                    order.append(cur)
                    stack.pop()

        visit(self.entry)
        order.reverse()
        return order

    def dominators(self) -> dict[int, set[int]]:
        """Classic iterative dominator sets over reachable blocks."""
        order = self.rpo()
        reachable = set(order)
        dom: dict[int, set[int]] = {b: set(reachable) for b in order}
        dom[self.entry] = {self.entry}
        changed = True
        while changed:
            changed = False
            for bid in order:
                if bid == self.entry:
                    continue
                preds = [p for p in self.blocks[bid].preds if p in reachable]
                new: set[int] = set(reachable)
                for p in preds:
                    new &= dom[p]
                new.add(bid)
                if new != dom[bid]:
                    dom[bid] = new
                    changed = True
        return dom


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class _Builder:
    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = []
        self.cur: Optional[int] = None
        self.break_stack: list[int] = []
        self.exit_id = self._new(())

    def _new(
        self,
        governing: tuple[Union[ast.If, ast.Switch, ast.Loop], ...],
    ) -> int:
        bid = len(self.blocks)
        self.blocks.append(BasicBlock(bid, governing=governing))
        return bid

    def _start(
        self,
        governing: tuple[Union[ast.If, ast.Switch, ast.Loop], ...],
    ) -> int:
        bid = self._new(governing)
        self.cur = bid
        return bid

    def _emit(self, stmt: Union[ast.Stmt, Pseudo], ctx: Optional[ast.Expr]) -> None:
        assert self.cur is not None
        self.blocks[self.cur].stmts.append((stmt, ctx))

    def _finish(self, term: Term) -> None:
        if self.cur is not None:
            self.blocks[self.cur].term = term
            self.cur = None

    def lower_body(
        self,
        body: list[ast.Stmt],
        ctx: Optional[ast.Expr],
        governing: tuple[Union[ast.If, ast.Switch, ast.Loop], ...],
    ) -> None:
        """Lower ``body`` into the current block (must be open)."""
        for stmt in body:
            if self.cur is None:
                return  # unreachable code after GTFO / FOUND YR
            if isinstance(stmt, ast.FuncDef):
                continue  # functions get their own CFGs
            if isinstance(stmt, ast.If):
                self._lower_if(stmt, ctx, governing)
            elif isinstance(stmt, ast.Switch):
                self._lower_switch(stmt, ctx, governing)
            elif isinstance(stmt, ast.Loop):
                self._lower_loop(stmt, ctx, governing)
            elif isinstance(stmt, ast.Gtfo):
                target = (
                    self.break_stack[-1] if self.break_stack else self.exit_id
                )
                self._finish(Goto(target))
            elif isinstance(stmt, ast.Return):
                self._emit(stmt, ctx)
                self._finish(Goto(self.exit_id))
            elif isinstance(stmt, ast.TxtStmt):
                self._emit(TxtPe(stmt), ctx)
                self.lower_body(stmt.body, stmt.pe, governing)
            else:
                self._emit(stmt, ctx)

    def _lower_if(
        self,
        stmt: ast.If,
        ctx: Optional[ast.Expr],
        governing: tuple[Union[ast.If, ast.Switch, ast.Loop], ...],
    ) -> None:
        inner = governing + (stmt,)
        join = self._new(governing)
        arms: list[tuple[Optional[ast.Expr], list[ast.Stmt]]] = [
            (None, stmt.ya_rly),
            *[(cond, body) for cond, body in stmt.mebbe],
        ]
        for cond, body in arms:
            arm_entry = self._new(inner)
            next_test = self._new(governing)
            self._finish(Branch(stmt, cond, arm_entry, next_test))
            self.cur = arm_entry
            self.lower_body(body, ctx, inner)
            self._finish(Goto(join))
            self.cur = next_test
        # the final "no match" path runs NO WAI (possibly empty)
        no_wai = self._new(inner)
        self._finish(Goto(no_wai))
        self.cur = no_wai
        self.lower_body(stmt.no_wai, ctx, inner)
        self._finish(Goto(join))
        self.cur = join

    def _lower_switch(
        self,
        stmt: ast.Switch,
        ctx: Optional[ast.Expr],
        governing: tuple[Union[ast.If, ast.Switch, ast.Loop], ...],
    ) -> None:
        inner = governing + (stmt,)
        join = self._new(governing)
        entries = [self._new(inner) for _ in stmt.cases]
        default = self._new(inner)
        self._finish(
            Dispatch(
                stmt,
                [(lit, entries[i]) for i, (lit, _) in enumerate(stmt.cases)],
                default,
            )
        )
        self.break_stack.append(join)
        try:
            for i, (_lit, body) in enumerate(stmt.cases):
                self.cur = entries[i]
                self.lower_body(body, ctx, inner)
                # C-style fallthrough into the next case (or default)
                nxt = entries[i + 1] if i + 1 < len(entries) else default
                self._finish(Goto(nxt))
            self.cur = default
            self.lower_body(stmt.default, ctx, inner)
            self._finish(Goto(join))
        finally:
            self.break_stack.pop()
        self.cur = join

    def _lower_loop(
        self,
        stmt: ast.Loop,
        ctx: Optional[ast.Expr],
        governing: tuple[Union[ast.If, ast.Switch, ast.Loop], ...],
    ) -> None:
        inner = governing + (stmt,)
        exit_b = self._new(governing)
        if stmt.var is not None:
            self._emit(LoopInit(stmt.var, stmt), ctx)
        if stmt.cond is not None:
            cond_b = self._new(governing)
            body_b = self._new(inner)
            self._finish(Goto(cond_b))
            self.cur = cond_b
            if stmt.cond_kind == "TIL":
                self._finish(Branch(stmt, stmt.cond, exit_b, body_b))
            else:  # WILE: truthy -> keep looping
                self._finish(Branch(stmt, stmt.cond, body_b, exit_b))
            self.cur = body_b
            back_to = cond_b
        else:
            body_b = self._new(inner)
            self._finish(Goto(body_b))
            self.cur = body_b
            back_to = body_b
        self.break_stack.append(exit_b)
        try:
            self.lower_body(stmt.body, ctx, inner)
        finally:
            self.break_stack.pop()
        if self.cur is not None and stmt.var is not None:
            self._emit(LoopInc(stmt.var, stmt), ctx)
        self._finish(Goto(back_to))
        self.cur = exit_b


def build_cfg(body: list[ast.Stmt]) -> CFG:
    """Build the CFG of one statement list (program or function body)."""
    b = _Builder()
    entry = b._start(())
    b.lower_body(body, None, ())
    b._finish(Goto(b.exit_id))
    # Move the entry to index 0 by construction: block 0 is the exit we
    # pre-created, so swap ids to keep ``entry == 0`` as documented.
    blocks = b.blocks
    if entry != 0:
        blocks[0], blocks[entry] = blocks[entry], blocks[0]
        remap = {0: entry, entry: 0}

        def m(x: int) -> int:
            return remap.get(x, x)

        for block in blocks:
            term = block.term
            if isinstance(term, Goto):
                term.target = m(term.target)
            elif isinstance(term, Branch):
                term.on_true = m(term.on_true)
                term.on_false = m(term.on_false)
            elif isinstance(term, Dispatch):
                term.cases = [(lit, m(t)) for lit, t in term.cases]
                term.default = m(term.default)
        for i, block in enumerate(blocks):
            block.bid = i
        exit_id = m(b.exit_id)
    else:  # pragma: no cover — exit is always created first
        exit_id = b.exit_id
    return CFG(blocks, exit_id)


def build_program_cfgs(
    program: ast.Program, functions: Sequence[ast.FuncDef]
) -> list[tuple[Optional[ast.FuncDef], CFG]]:
    """The main body's CFG (owner ``None``), then one per definition."""
    out: list[tuple[Optional[ast.FuncDef], CFG]] = [
        (None, build_cfg(program.body))
    ]
    out.extend((func, build_cfg(func.body)) for func in functions)
    return out
