"""Closure-compilation execution engine.

The tree-walking :class:`~repro.interp.interpreter.Interpreter` pays AST
``type()`` dispatch, dict-chain ``Env`` lookups, and string-keyed operator
selection on *every* operation of every PE.  This module removes all three
from the hot path by translating the AST **once per program** into a tree
of Python closures:

* every statement/expression node becomes one zero-dispatch callable
  ``fn(rt, frame)`` — the work each node does is decided at compile time,
  not re-discovered per execution;
* names are resolved to integer frame slots by the
  :mod:`repro.lang.resolve` pre-pass — a local read is ``frame[slot]``
  instead of a dict-chain walk (symmetric / ``UR``-addressed names keep
  their :class:`~repro.shmem.api.ShmemContext` delegation, so all
  parallel semantics are byte-identical);
* operators are resolved through the per-op function tables of
  :mod:`repro.interp.values` at compile time;
* FLOP/op tracing is baked in at compile time: with tracing off the
  compiled code contains **no** accounting instructions at all.

The compiled form is context-free: one :class:`CompiledProgram` is shared
by every PE of an SPMD run (see the LRU cache in
:mod:`repro.interp.__init__`), each PE executing it against its own
:class:`_Runtime`.  Semantics are differentially tested against the
tree-walker and the VM on all paper examples
(``tests/test_engine_differential.py``).

Known, documented divergences from the tree-walker:

* reading a symmetric symbol before its ``WE HAS A`` has *executed* (but
  after it is lexically visible) raises ``LolParallelError`` from the
  heap instead of ``LolNameError``;
* a re-declaration that *changes* a name's static type or array-ness
  allocates a fresh slot, so a function compiled against the final root
  scope reads the post-redeclaration storage (same-shape redeclarations
  reuse the slot and behave identically to the tree-walker);
* loop-body *scalar* declarations are pre-bound with a runtime fallback
  (see :meth:`ClosureCompiler._prescan_loop_decls`), reproducing the
  tree-walker's persistent per-loop environment — iteration N's reads
  and re-evaluated initializers see iteration N-1's binding.  *Array*
  declarations in loop bodies are not pre-bound: a read of the name that
  textually precedes the array declaration stays bound to the enclosing
  variable on every iteration;
* a loop body that redeclares its own ``UPPIN YR`` counter *terminates*
  here (the condition stays bound to the counter's slot, which the
  increment keeps updating), where the tree-walker's redeclaration
  detaches the counter binding and spins forever — the divergence is
  kept deliberately, since reproducing a hang helps no one;
* ``max_steps`` is not supported — the launcher falls back to the
  tree-walker when a step limit is requested.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..lang import ast
from ..lang.errors import (
    LolNameError,
    LolParallelError,
    LolRuntimeError,
    LolTypeError,
    SourcePos,
)
from ..lang.resolve import (
    GLOBAL,
    LOCAL,
    MISSING,
    SYMMETRIC,
    FrameLayout,
    ScopeStack,
    VarInfo,
)
from ..lang.types import (
    LolType,
    cast as cast_value,
    coerce_static,
    default_value,
    format_yarn,
    parse_type,
    to_array_size,
    to_numbr,
    to_troof,
)
from ..shmem.api import ShmemContext
from ..shmem.heap import ArrayCell
from .env import UNDECLARED, new_frame
from .interpreter import (
    KNOWN_LIBRARIES,
    _Break,
    _Return,
    coerce_element,
    coerce_symmetric,
    display_value,
    is_scalar_value,
    write_whole_array,
)
from .values import BINOP_FUNCS, FLOP_COST, NARYOP_FUNCS, UNOP_FUNCS, equals

#: A compiled statement or expression: ``fn(rt, frame) -> value | None``.
Code = Callable[["_Runtime", list], object]


class _Runtime:
    """Per-PE mutable execution state for one run of a compiled program.

    This is the closure engine's analogue of the ``Interpreter`` instance:
    everything that varies per PE (the shmem context, the global frame,
    the function registry, the ``TXT MAH BFF`` predication target) lives
    here, so the compiled closures themselves stay shareable.
    """

    __slots__ = ("ctx", "gframe", "functions", "target_pe", "libraries")

    def __init__(self, ctx: ShmemContext) -> None:
        self.ctx = ctx
        self.gframe: list = []
        self.functions: dict[str, "CompiledFunction"] = {}
        self.target_pe: Optional[int] = None
        self.libraries: set[str] = set()


class CompiledFunction:
    """One ``HOW IZ I`` body compiled to closures over its own frame."""

    __slots__ = ("name", "n_params", "param_slots", "n_slots", "body", "pos")

    def __init__(self, name: str, n_params: int, pos: SourcePos) -> None:
        self.name = name
        self.n_params = n_params
        self.param_slots: tuple[int, ...] = ()
        self.n_slots = 1
        self.body: tuple[Code, ...] = ()
        self.pos = pos


class CompiledProgram:
    """A whole program compiled to closures; shareable across PEs."""

    __slots__ = ("body", "n_root_slots", "hoisted", "count_flops")

    def __init__(
        self,
        body: tuple[Code, ...],
        n_root_slots: int,
        hoisted: dict[str, CompiledFunction],
        count_flops: bool,
    ) -> None:
        self.body = body
        self.n_root_slots = n_root_slots
        self.hoisted = hoisted
        self.count_flops = count_flops

    def run(self, ctx: ShmemContext) -> None:
        rt = _Runtime(ctx)
        rt.gframe = frame = new_frame(self.n_root_slots)
        # Top-level function definitions are hoisted, exactly like the
        # tree-walker, so call sites may precede definitions textually.
        rt.functions.update(self.hoisted)
        for s in self.body:
            s(rt, frame)


# ---------------------------------------------------------------------------
# Shared runtime helpers (module level so closures stay small).
# ---------------------------------------------------------------------------


def _undeclared(name: str, pos: SourcePos) -> LolNameError:
    return LolNameError(
        f"variable '{name}' has not been declared (I HAS A {name})", pos
    )


def _require_target(rt: _Runtime, name: str, pos: SourcePos) -> int:
    pe = rt.target_pe
    if pe is None:
        raise LolParallelError(
            f"'UR {name}' used outside a TXT MAH BFF predicated "
            f"statement or block",
            pos,
        )
    return pe


def _as_index(value: object, pos: SourcePos) -> int:
    return value if type(value) is int else to_numbr(value, pos)


# Dynamic (SRS) access paths: the visible-name *set* at an SRS site is
# static (a scope snapshot), the chosen name is not.  These mirror the
# tree-walker's ``_read_var`` / ``_write_var`` / element variants.


def _resolve_dyn(frame: list, info: Optional[VarInfo]) -> Optional[VarInfo]:
    """Follow pre-declaration fallbacks: a LOCAL slot that is still
    UNDECLARED at runtime defers to its enclosing (fallback) binding."""
    while (
        info is not None
        and info.kind == LOCAL
        and info.fallback is not None
        and frame[info.slot] is UNDECLARED
    ):
        info = info.fallback
    if info is not None and info.kind == MISSING:
        return None
    return info


def _dyn_read(
    rt: _Runtime, frame: list, snap: dict[str, VarInfo], name: str, pos: SourcePos
) -> object:
    info = _resolve_dyn(frame, snap.get(name))
    if info is None:
        raise _undeclared(name, pos)
    if info.kind == SYMMETRIC:
        return rt.ctx.local_read(name)
    if info.is_array:
        raise LolTypeError(
            f"'{name}' is an array: index it with {name}'Z <expr>", pos
        )
    v = (frame if info.kind == LOCAL else rt.gframe)[info.slot]
    if v is UNDECLARED:
        raise _undeclared(name, pos)
    return v


def _dyn_write(
    rt: _Runtime,
    frame: list,
    snap: dict[str, VarInfo],
    name: str,
    value: object,
    pos: SourcePos,
) -> None:
    info = _resolve_dyn(frame, snap.get(name))
    if info is None:
        raise _undeclared(name, pos)
    if info.kind == SYMMETRIC:
        rt.ctx.local_write(name, coerce_symmetric(rt.ctx, name, value, pos))
        return
    target = frame if info.kind == LOCAL else rt.gframe
    if target[info.slot] is UNDECLARED:
        raise _undeclared(name, pos)
    if info.is_array:
        write_whole_array(target[info.slot], value, name, pos)
        return
    if info.static_type is not None:
        value = coerce_static(value, info.static_type, name, pos)
    elif not is_scalar_value(value):
        raise LolTypeError(f"cannot assign an array value to scalar '{name}'", pos)
    target[info.slot] = value


def _dyn_read_element(
    rt: _Runtime,
    frame: list,
    snap: dict[str, VarInfo],
    name: str,
    index: int,
    pos: SourcePos,
) -> object:
    info = _resolve_dyn(frame, snap.get(name))
    if info is None:
        raise _undeclared(name, pos)
    if info.kind == SYMMETRIC:
        return rt.ctx.local_read(name, index=index)
    if not info.is_array:
        raise LolTypeError(f"'{name}' is not an array", pos)
    cell = (frame if info.kind == LOCAL else rt.gframe)[info.slot]
    if cell is UNDECLARED:
        raise _undeclared(name, pos)
    try:
        return cell.read(index)
    except LolRuntimeError as exc:
        raise LolRuntimeError(f"{name}: {exc.message}", pos) from exc


def _dyn_write_element(
    rt: _Runtime,
    frame: list,
    snap: dict[str, VarInfo],
    name: str,
    index: int,
    value: object,
    pos: SourcePos,
) -> None:
    info = _resolve_dyn(frame, snap.get(name))
    if info is None:
        raise _undeclared(name, pos)
    if info.kind == SYMMETRIC:
        obj = rt.ctx.world.heap.lookup(name)
        rt.ctx.local_write(
            name, coerce_element(value, obj.lol_type, name, pos), index=index
        )
        return
    if not info.is_array:
        raise LolTypeError(f"'{name}' is not an array", pos)
    cell = (frame if info.kind == LOCAL else rt.gframe)[info.slot]
    if cell is UNDECLARED:
        raise _undeclared(name, pos)
    value = coerce_element(value, cell.lol_type, name, pos)
    try:
        cell.write(index, value)
    except LolRuntimeError as exc:
        raise LolRuntimeError(f"{name}: {exc.message}", pos) from exc


# ---------------------------------------------------------------------------
# The compiler.
# ---------------------------------------------------------------------------


class ClosureCompiler:
    """One-shot AST -> closure-tree translation for one program."""

    def __init__(self, program: ast.Program, *, count_flops: bool = False) -> None:
        self.program = program
        self.count_flops = count_flops
        self.root_layout = FrameLayout()
        self.root_scope = ScopeStack(self.root_layout)
        #: function bodies are compiled after the top-level walk so they
        #: resolve against the *final* root scope (the tree-walker binds
        #: call environments to ``globals``); the queue also picks up
        #: definitions nested inside other function bodies.
        self._pending_funcs: list[tuple[ast.FuncDef, CompiledFunction]] = []
        self._compiled_funcs: dict[int, CompiledFunction] = {}  # id(node) ->

    def compile(self) -> CompiledProgram:
        hoisted: dict[str, CompiledFunction] = {}
        for stmt in self.program.body:
            if isinstance(stmt, ast.FuncDef):
                hoisted[stmt.name] = self._function_stub(stmt)
        body = self._block(self.program.body, self.root_scope)
        while self._pending_funcs:
            node, cf = self._pending_funcs.pop()
            self._fill_function(node, cf)
        return CompiledProgram(
            body, self.root_layout.n_slots, hoisted, self.count_flops
        )

    # -- functions --------------------------------------------------------

    def _function_stub(self, node: ast.FuncDef) -> CompiledFunction:
        cf = self._compiled_funcs.get(id(node))
        if cf is None:
            cf = CompiledFunction(node.name, len(node.params), node.pos)
            self._compiled_funcs[id(node)] = cf
            self._pending_funcs.append((node, cf))
        return cf

    def _fill_function(self, node: ast.FuncDef, cf: CompiledFunction) -> None:
        layout = FrameLayout()
        scope = ScopeStack(layout, root=self.root_scope)
        param_slots = []
        for param in node.params:
            param_slots.append(scope.declare(param).slot)
        cf.param_slots = tuple(param_slots)
        cf.body = self._block(node.body, scope)
        cf.n_slots = layout.n_slots

    # -- blocks and statements -------------------------------------------

    def _block(self, stmts: list[ast.Stmt], scope: ScopeStack) -> tuple[Code, ...]:
        return tuple(self._stmt(s, scope) for s in stmts)

    def _child_block(
        self, stmts: list[ast.Stmt], scope: ScopeStack
    ) -> tuple[Code, ...]:
        scope.push()
        try:
            return self._block(stmts, scope)
        finally:
            scope.pop()

    def _stmt(self, stmt: ast.Stmt, scope: ScopeStack) -> Code:
        method = self._STMT_DISPATCH.get(type(stmt))
        if method is None:
            pos = stmt.pos
            kind = type(stmt).__name__

            def run(rt: _Runtime, frame: list) -> None:
                raise LolRuntimeError(f"statement {kind} not implemented", pos)

            return run
        return method(self, stmt, scope)

    def _stmt_var_decl(self, stmt: ast.VarDecl, scope: ScopeStack) -> Code:
        pos = stmt.pos
        name = stmt.name
        declared = parse_type(stmt.static_type, pos) if stmt.static_type else None
        if stmt.scope == "WE":
            return self._stmt_symmetric_decl(stmt, declared)
        if stmt.is_array:
            size_c = self._expr(stmt.size, scope)
            elem_t = declared or LolType.NUMBAR
            slot = scope.declare(name, static_type=declared, is_array=True).slot

            def run_array(rt: _Runtime, frame: list) -> None:
                size = to_array_size(size_c(rt, frame), pos)
                if size <= 0:
                    raise LolRuntimeError(
                        f"array '{name}' must have positive size, got {size}",
                        pos,
                    )
                frame[slot] = ArrayCell(elem_t, size)

            return run_array
        # Initializers are compiled *before* the name is (re)declared, so
        # ``I HAS A x ITZ SUM OF x AN 1`` sees the previous binding: the
        # enclosing one on first execution and — via the loop pre-pass'
        # conditional fallback binding — the previous iteration's value
        # when the declaration sits in a loop body.
        init_c = self._expr(stmt.init, scope) if stmt.init is not None else None
        slot = scope.declare(name, static_type=declared).slot
        if init_c is not None:
            if declared is not None:
                dt = declared

                def run_init_typed(rt: _Runtime, frame: list) -> None:
                    frame[slot] = coerce_static(init_c(rt, frame), dt, name, pos)

                return run_init_typed

            def run_init(rt: _Runtime, frame: list) -> None:
                frame[slot] = init_c(rt, frame)

            return run_init
        default = default_value(declared) if declared is not None else None

        def run_default(rt: _Runtime, frame: list) -> None:
            frame[slot] = default

        return run_default

    def _stmt_symmetric_decl(
        self, stmt: ast.VarDecl, declared: Optional[LolType]
    ) -> Code:
        pos = stmt.pos
        name = stmt.name
        if declared is None:

            def run_untyped(rt: _Runtime, frame: list) -> None:
                raise LolParallelError(
                    f"symmetric variable '{name}' must be typed "
                    f"(WE HAS A {name} ITZ SRSLY A <type> ...)",
                    pos,
                )

            return run_untyped
        # Size/init expressions evaluate on the *root* frame, exactly as
        # the tree-walker evaluates them on ``self.globals``.
        size_c = (
            self._expr(stmt.size, self.root_scope) if stmt.is_array else None
        )
        init_c = (
            self._expr(stmt.init, self.root_scope) if stmt.init is not None else None
        )
        scope_ref = self.root_scope
        scope_ref.declare_symmetric(name, static_type=declared, is_array=stmt.is_array)
        has_lock = stmt.shared_lock
        is_array = stmt.is_array

        def run(rt: _Runtime, frame: list) -> None:
            gframe = rt.gframe
            if is_array:
                size = to_array_size(size_c(rt, gframe), pos)
                rt.ctx.alloc_array(name, declared, size, has_lock=has_lock)
            else:
                rt.ctx.alloc_scalar(name, declared, has_lock=has_lock)
            if init_c is not None:
                value = coerce_static(init_c(rt, gframe), declared, name, pos)
                rt.ctx.local_write(name, value)

        return run

    def _stmt_assign(self, stmt: ast.Assign, scope: ScopeStack) -> Code:
        value_c = self._expr(stmt.value, scope)
        target = stmt.target
        # Fuse plain local-scalar stores into the assignment closure.
        if isinstance(target, ast.VarRef) and target.qualifier != "UR":
            info = scope.lookup(target.name)
            if (
                info is not None
                and info.kind == LOCAL
                and not info.is_array
                and info.fallback is None
            ):
                slot = info.slot
                name = target.name
                pos = target.pos
                if info.static_type is not None:
                    dt = info.static_type

                    def run_typed(rt: _Runtime, frame: list) -> None:
                        frame[slot] = coerce_static(
                            value_c(rt, frame), dt, name, pos
                        )

                    return run_typed

                def run_dyn(rt: _Runtime, frame: list) -> None:
                    v = value_c(rt, frame)
                    if not is_scalar_value(v):
                        raise LolTypeError(
                            f"cannot assign an array value to scalar '{name}'",
                            pos,
                        )
                    frame[slot] = v

                return run_dyn
        store = self._store(target, scope)

        def run(rt: _Runtime, frame: list) -> None:
            store(rt, frame, value_c(rt, frame))

        return run

    def _stmt_cast(self, stmt: ast.CastStmt, scope: ScopeStack) -> Code:
        pos = stmt.pos
        to_type = parse_type(stmt.to_type, pos)
        read_c = self._expr(stmt.target, scope)
        store = self._store(stmt.target, scope)

        def run(rt: _Runtime, frame: list) -> None:
            store(rt, frame, cast_value(read_c(rt, frame), to_type, pos))

        return run

    def _stmt_expr(self, stmt: ast.ExprStmt, scope: ScopeStack) -> Code:
        expr_c = self._expr(stmt.expr, scope)

        def run(rt: _Runtime, frame: list) -> None:
            frame[0] = expr_c(rt, frame)

        return run

    def _stmt_visible(self, stmt: ast.Visible, scope: ScopeStack) -> Code:
        parts = tuple(
            (self._expr(a, scope), a.pos) for a in stmt.args
        )
        end = "\n" if stmt.newline else ""

        def run(rt: _Runtime, frame: list) -> None:
            rt.ctx.emit(
                "".join(display_value(c(rt, frame), p) for c, p in parts) + end
            )

        return run

    def _stmt_gimmeh(self, stmt: ast.Gimmeh, scope: ScopeStack) -> Code:
        store = self._store(stmt.target, scope)

        def run(rt: _Runtime, frame: list) -> None:
            store(rt, frame, rt.ctx.read_line())

        return run

    def _stmt_can_has(self, stmt: ast.CanHas, scope: ScopeStack) -> Code:
        pos = stmt.pos
        raw = stmt.library
        lib = raw.upper()

        def run(rt: _Runtime, frame: list) -> None:
            if lib not in KNOWN_LIBRARIES:
                raise LolRuntimeError(f"CAN HAS {raw}?: unknown library", pos)
            rt.libraries.add(lib)

        return run

    def _stmt_if(self, stmt: ast.If, scope: ScopeStack) -> Code:
        ya_rly = self._child_block(stmt.ya_rly, scope)
        mebbe = tuple(
            (self._expr(cond, scope), self._child_block(body, scope))
            for cond, body in stmt.mebbe
        )
        no_wai = self._child_block(stmt.no_wai, scope)

        def run(rt: _Runtime, frame: list) -> None:
            if to_troof(frame[0]):
                for s in ya_rly:
                    s(rt, frame)
                return
            for cond_c, body in mebbe:
                if to_troof(cond_c(rt, frame)):
                    for s in body:
                        s(rt, frame)
                    return
            for s in no_wai:
                s(rt, frame)

        return run

    def _stmt_switch(self, stmt: ast.Switch, scope: ScopeStack) -> Code:
        cases = tuple(
            (self._expr(lit, scope), self._child_block(body, scope))
            for lit, body in stmt.cases
        )
        default = self._child_block(stmt.default, scope)

        def run(rt: _Runtime, frame: list) -> None:
            scrutinee = frame[0]
            match_idx: Optional[int] = None
            for i, (lit_c, _) in enumerate(cases):
                if equals(scrutinee, lit_c(rt, frame)):
                    match_idx = i
                    break
            try:
                if match_idx is not None:
                    # C-style fallthrough until GTFO.
                    for _, body in cases[match_idx:]:
                        for s in body:
                            s(rt, frame)
                for s in default:
                    s(rt, frame)
            except _Break:
                pass

        return run

    def _prescan_loop_decls(self, stmts: list[ast.Stmt], scope: ScopeStack) -> None:
        """Pre-bind scalar declarations of a loop body.

        The tree-walker keeps **one** environment per loop execution, so a
        body declaration made on iteration 1 is visible to reads (and to
        its own re-evaluated initializer) on iteration 2+.  Pre-declaring
        the slot with a fallback to the enclosing binding reproduces that:
        accesses test the slot's UNDECLARED sentinel and use the outer
        binding until the declaration first runs.  Only this block level
        is scanned (nested O RLY?/WTF?/loop blocks get fresh child
        environments in the tree-walker too) — plus TXT MAH BFF bodies,
        which execute in the enclosing environment.
        """
        for s in stmts:
            if (
                isinstance(s, ast.VarDecl)
                and s.scope != "WE"
                and not s.is_array
            ):
                declared = (
                    parse_type(s.static_type, s.pos) if s.static_type else None
                )
                scope.predeclare(s.name, static_type=declared)
            elif isinstance(s, ast.TxtStmt):
                self._prescan_loop_decls(s.body, scope)

    def _stmt_loop(self, stmt: ast.Loop, scope: ScopeStack) -> Code:
        pos = stmt.pos
        label = stmt.label
        # The tree-walker builds a fresh loop environment every time the
        # loop *statement* executes (iterations share it, re-entries do
        # not), so every slot allocated for this loop's scope — counter,
        # pre-declared body names, nested-block locals — is reset to
        # UNDECLARED on entry.
        lo = scope.layout.n_slots
        scope.push()
        try:
            cslot = -1
            if stmt.var is not None:
                cslot = scope.declare(stmt.var, static_type=LolType.NUMBR).slot
            self._prescan_loop_decls(stmt.body, scope)
            cond_c = self._expr(stmt.cond, scope) if stmt.cond is not None else None
            body = self._block(stmt.body, scope)
        finally:
            scope.pop()
        reset = [UNDECLARED] * (scope.layout.n_slots - lo)
        hi = lo + len(reset)
        til = stmt.cond_kind == "TIL"
        step = 1 if stmt.op == "UPPIN" else -1
        has_counter = cslot >= 0

        def run(rt: _Runtime, frame: list) -> None:
            if reset:
                frame[lo:hi] = reset
            if has_counter:
                frame[cslot] = 0
            while True:
                if cond_c is not None:
                    flag = to_troof(cond_c(rt, frame))
                    if flag is til:
                        break
                try:
                    for s in body:
                        s(rt, frame)
                except _Break:
                    break
                if has_counter:
                    v = frame[cslot]
                    frame[cslot] = (
                        v if type(v) is int else to_numbr(v, pos)
                    ) + step
                elif cond_c is None:
                    raise LolRuntimeError(
                        f"loop '{label}' has no counter, no condition and "
                        f"no GTFO: it would never terminate",
                        pos,
                    )

        return run

    def _stmt_gtfo(self, stmt: ast.Gtfo, scope: ScopeStack) -> Code:
        def run(rt: _Runtime, frame: list) -> None:
            raise _Break()

        return run

    def _stmt_func_def(self, stmt: ast.FuncDef, scope: ScopeStack) -> Code:
        cf = self._function_stub(stmt)
        name = stmt.name

        def run(rt: _Runtime, frame: list) -> None:
            rt.functions[name] = cf

        return run

    def _stmt_return(self, stmt: ast.Return, scope: ScopeStack) -> Code:
        expr_c = self._expr(stmt.expr, scope)

        def run(rt: _Runtime, frame: list) -> None:
            raise _Return(expr_c(rt, frame))

        return run

    def _stmt_hugz(self, stmt: ast.Hugz, scope: ScopeStack) -> Code:
        def run(rt: _Runtime, frame: list) -> None:
            rt.ctx.barrier_all()

        return run

    def _stmt_lock(self, stmt: ast.LockStmt, scope: ScopeStack) -> Code:
        pos = stmt.pos
        kind = stmt.kind
        name_c = self._target_name(stmt.target, scope)

        def run(rt: _Runtime, frame: list) -> None:
            name = name_c(rt, frame)
            if not rt.ctx.is_symmetric(name):
                raise LolParallelError(
                    f"cannot lock '{name}': it is not a shared symmetric "
                    f"variable (WE HAS A {name} ... AN IM SHARIN IT)",
                    pos,
                )
            if kind == "lock":
                rt.ctx.set_lock(name)
            elif kind == "trylock":
                frame[0] = rt.ctx.test_lock(name)
            else:
                rt.ctx.clear_lock(name)

        return run

    def _stmt_txt(self, stmt: ast.TxtStmt, scope: ScopeStack) -> Code:
        pos = stmt.pos
        pe_c = self._expr(stmt.pe, scope)
        # No child scope: the tree-walker executes TXT bodies in the
        # *enclosing* environment, so declarations inside the predicated
        # block stay visible after TTYL.
        body = self._block(stmt.body, scope)

        def run(rt: _Runtime, frame: list) -> None:
            pe = to_numbr(pe_c(rt, frame), pos)
            if not 0 <= pe < rt.ctx.n_pes:
                raise LolParallelError(
                    f"TXT MAH BFF {pe}: PE out of range [0, {rt.ctx.n_pes})",
                    pos,
                )
            saved = rt.target_pe
            rt.target_pe = pe
            try:
                for s in body:
                    s(rt, frame)
            finally:
                rt.target_pe = saved

        return run

    _STMT_DISPATCH = {
        ast.VarDecl: _stmt_var_decl,
        ast.Assign: _stmt_assign,
        ast.CastStmt: _stmt_cast,
        ast.ExprStmt: _stmt_expr,
        ast.Visible: _stmt_visible,
        ast.Gimmeh: _stmt_gimmeh,
        ast.CanHas: _stmt_can_has,
        ast.If: _stmt_if,
        ast.Switch: _stmt_switch,
        ast.Loop: _stmt_loop,
        ast.Gtfo: _stmt_gtfo,
        ast.FuncDef: _stmt_func_def,
        ast.Return: _stmt_return,
        ast.Hugz: _stmt_hugz,
        ast.LockStmt: _stmt_lock,
        ast.TxtStmt: _stmt_txt,
    }

    # -- expressions ------------------------------------------------------

    def _expr(self, node: ast.Expr, scope: ScopeStack) -> Code:
        method = self._EXPR_DISPATCH.get(type(node))
        if method is None:
            pos = node.pos
            kind = type(node).__name__

            def run(rt: _Runtime, frame: list) -> object:
                raise LolRuntimeError(f"expression {kind} not implemented", pos)

            return run
        return method(self, node, scope)

    def _expr_const(self, node, scope: ScopeStack) -> Code:
        value = node.value

        def run(rt: _Runtime, frame: list) -> object:
            return value

        return run

    def _expr_string(self, node: ast.StringLit, scope: ScopeStack) -> Code:
        pos = node.pos
        if node.is_plain():
            return self._expr_const_value(node.plain_text())
        parts: list = []
        for part in node.parts:
            if isinstance(part, str):
                parts.append(part)
            else:
                _, name = part
                parts.append(self._read_name(name, None, scope, pos))
        parts = tuple(parts)

        def run(rt: _Runtime, frame: list) -> object:
            return "".join(
                p if type(p) is str else format_yarn(p(rt, frame)) for p in parts
            )

        return run

    def _expr_const_value(self, value: object) -> Code:
        def run(rt: _Runtime, frame: list) -> object:
            return value

        return run

    def _expr_noob(self, node: ast.NoobLit, scope: ScopeStack) -> Code:
        def run(rt: _Runtime, frame: list) -> object:
            return None

        return run

    def _expr_it(self, node: ast.ItRef, scope: ScopeStack) -> Code:
        def run(rt: _Runtime, frame: list) -> object:
            return frame[0]

        return run

    def _expr_me(self, node: ast.MeExpr, scope: ScopeStack) -> Code:
        def run(rt: _Runtime, frame: list) -> object:
            return rt.ctx.my_pe

        return run

    def _expr_frenz(self, node: ast.FrenzExpr, scope: ScopeStack) -> Code:
        def run(rt: _Runtime, frame: list) -> object:
            return rt.ctx.n_pes

        return run

    def _expr_random(self, node: ast.RandomExpr, scope: ScopeStack) -> Code:
        if node.kind == "int":

            def run_int(rt: _Runtime, frame: list) -> object:
                return rt.ctx.rng.randrange(0, 2**31 - 1)  # rand()

            return run_int

        def run_float(rt: _Runtime, frame: list) -> object:
            return rt.ctx.rng.random()  # randf()

        return run_float

    def _expr_binop(self, node: ast.BinOp, scope: ScopeStack) -> Code:
        pos = node.pos
        fn = BINOP_FUNCS.get(node.op)
        if fn is None:
            op = node.op

            def run_bad(rt: _Runtime, frame: list) -> object:
                raise LolRuntimeError(f"unknown binary op {op!r}", pos)

            return run_bad
        cost = FLOP_COST.get(node.op, 0)
        if self.count_flops and cost:
            lhs_tc = self._expr(node.lhs, scope)
            rhs_tc = self._expr(node.rhs, scope)

            def run_traced(rt: _Runtime, frame: list) -> object:
                rt.ctx.add_flops(cost)
                return fn(lhs_tc(rt, frame), rhs_tc(rt, frame), pos)

            return run_traced
        # Operand fusion: inline constant / local-slot operands so the
        # common ``SUM OF x AN 1`` shapes cost one closure call, not three.
        ls = self._simple_operand(node.lhs, scope)
        rs = self._simple_operand(node.rhs, scope)
        if ls is not None and rs is not None:
            lk, lv = ls
            rk, rv = rs
            if lk == "slot" and rk == "slot":

                def run_ss(rt: _Runtime, frame: list) -> object:
                    return fn(frame[lv], frame[rv], pos)

                return run_ss
            if lk == "slot":

                def run_sc(rt: _Runtime, frame: list) -> object:
                    return fn(frame[lv], rv, pos)

                return run_sc
            if rk == "slot":

                def run_cs(rt: _Runtime, frame: list) -> object:
                    return fn(lv, frame[rv], pos)

                return run_cs

            def run_cc(rt: _Runtime, frame: list) -> object:
                return fn(lv, rv, pos)

            return run_cc
        if ls is not None:
            lk, lv = ls
            rhs_c = self._expr(node.rhs, scope)
            if lk == "slot":

                def run_se(rt: _Runtime, frame: list) -> object:
                    return fn(frame[lv], rhs_c(rt, frame), pos)

                return run_se

            def run_ce(rt: _Runtime, frame: list) -> object:
                return fn(lv, rhs_c(rt, frame), pos)

            return run_ce
        if rs is not None:
            rk, rv = rs
            lhs_c = self._expr(node.lhs, scope)
            if rk == "slot":

                def run_es(rt: _Runtime, frame: list) -> object:
                    return fn(lhs_c(rt, frame), frame[rv], pos)

                return run_es

            def run_ec(rt: _Runtime, frame: list) -> object:
                return fn(lhs_c(rt, frame), rv, pos)

            return run_ec
        lhs_c = self._expr(node.lhs, scope)
        rhs_c = self._expr(node.rhs, scope)

        def run(rt: _Runtime, frame: list) -> object:
            return fn(lhs_c(rt, frame), rhs_c(rt, frame), pos)

        return run

    def _expr_unop(self, node: ast.UnaryOp, scope: ScopeStack) -> Code:
        pos = node.pos
        fn = UNOP_FUNCS.get(node.op)
        if fn is None:
            op = node.op

            def run_bad(rt: _Runtime, frame: list) -> object:
                raise LolRuntimeError(f"unknown unary op {op!r}", pos)

            return run_bad
        cost = FLOP_COST.get(node.op, 0)
        if self.count_flops and cost:
            operand_tc = self._expr(node.operand, scope)

            def run_traced(rt: _Runtime, frame: list) -> object:
                rt.ctx.add_flops(cost)
                return fn(operand_tc(rt, frame), pos)

            return run_traced
        simple = self._simple_operand(node.operand, scope)
        if simple is not None:
            kind, v = simple
            if kind == "slot":

                def run_s(rt: _Runtime, frame: list) -> object:
                    return fn(frame[v], pos)

                return run_s

            def run_c(rt: _Runtime, frame: list) -> object:
                return fn(v, pos)

            return run_c
        operand_c = self._expr(node.operand, scope)

        def run(rt: _Runtime, frame: list) -> object:
            return fn(operand_c(rt, frame), pos)

        return run

    def _expr_naryop(self, node: ast.NaryOp, scope: ScopeStack) -> Code:
        pos = node.pos
        fn = NARYOP_FUNCS.get(node.op)
        if fn is None:
            op = node.op

            def run_bad(rt: _Runtime, frame: list) -> object:
                raise LolRuntimeError(f"unknown n-ary op {op!r}", pos)

            return run_bad
        operand_cs = tuple(self._expr(e, scope) for e in node.operands)

        def run(rt: _Runtime, frame: list) -> object:
            return fn([c(rt, frame) for c in operand_cs], pos)

        return run

    def _expr_cast(self, node: ast.Cast, scope: ScopeStack) -> Code:
        pos = node.pos
        to_type = parse_type(node.to_type, pos)
        inner_c = self._expr(node.expr, scope)

        def run(rt: _Runtime, frame: list) -> object:
            return cast_value(inner_c(rt, frame), to_type, pos)

        return run

    def _expr_var(self, node: ast.VarRef, scope: ScopeStack) -> Code:
        return self._read_name(node.name, node.qualifier, scope, node.pos)

    def _expr_srs(self, node: ast.SrsRef, scope: ScopeStack) -> Code:
        pos = node.pos
        name_c = self._expr(node.expr, scope)
        if node.qualifier == "UR":

            def run_ur(rt: _Runtime, frame: list) -> object:
                name = format_yarn(name_c(rt, frame))
                return rt.ctx.get(name, _require_target(rt, name, pos))

            return run_ur
        snap = scope.snapshot()

        def run(rt: _Runtime, frame: list) -> object:
            return _dyn_read(rt, frame, snap, format_yarn(name_c(rt, frame)), pos)

        return run

    def _expr_index(self, node: ast.Index, scope: ScopeStack) -> Code:
        pos = node.pos
        index_c = self._expr(node.index, scope)
        base = node.base
        if isinstance(base, ast.SrsRef):
            name_c = self._expr(base.expr, scope)
            if base.qualifier == "UR":

                def run_srs_ur(rt: _Runtime, frame: list) -> object:
                    name = format_yarn(name_c(rt, frame))
                    index = _as_index(index_c(rt, frame), pos)
                    return rt.ctx.get(
                        name, _require_target(rt, name, pos), index=index
                    )

                return run_srs_ur
            snap = scope.snapshot()

            def run_srs(rt: _Runtime, frame: list) -> object:
                name = format_yarn(name_c(rt, frame))
                index = _as_index(index_c(rt, frame), pos)
                return _dyn_read_element(rt, frame, snap, name, index, pos)

            return run_srs
        name = base.name
        if base.qualifier == "UR":

            def run_ur(rt: _Runtime, frame: list) -> object:
                index = _as_index(index_c(rt, frame), pos)
                return rt.ctx.get(name, _require_target(rt, name, pos), index=index)

            return run_ur
        info = scope.lookup(name)
        if info is None:
            return self._raise_name(name, pos)
        if info.kind == LOCAL and info.fallback is not None:
            # Pre-declared loop-body binding: resolve at runtime.
            fsnap = {name: info}

            def run_fb(rt: _Runtime, frame: list) -> object:
                index = _as_index(index_c(rt, frame), pos)
                return _dyn_read_element(rt, frame, fsnap, name, index, pos)

            return run_fb
        if info.kind == SYMMETRIC:

            def run_sym(rt: _Runtime, frame: list) -> object:
                index = _as_index(index_c(rt, frame), pos)
                return rt.ctx.local_read(name, index=index)

            return run_sym
        if not info.is_array:

            def run_not_array(rt: _Runtime, frame: list) -> object:
                raise LolTypeError(f"'{name}' is not an array", pos)

            return run_not_array
        slot = info.slot
        if info.kind == LOCAL:
            simple = self._simple_operand(node.index, scope)
            if simple is not None:
                ikind, iv = simple
                if ikind == "slot":

                    def run_local_s(rt: _Runtime, frame: list) -> object:
                        index = frame[iv]
                        if type(index) is not int:
                            index = to_numbr(index, pos)
                        try:
                            return frame[slot].read(index)
                        except LolRuntimeError as exc:
                            raise LolRuntimeError(
                                f"{name}: {exc.message}", pos
                            ) from exc

                    return run_local_s
                const_index = _as_index(iv, pos)

                def run_local_c(rt: _Runtime, frame: list) -> object:
                    try:
                        return frame[slot].read(const_index)
                    except LolRuntimeError as exc:
                        raise LolRuntimeError(
                            f"{name}: {exc.message}", pos
                        ) from exc

                return run_local_c

            def run_local(rt: _Runtime, frame: list) -> object:
                index = _as_index(index_c(rt, frame), pos)
                try:
                    return frame[slot].read(index)
                except LolRuntimeError as exc:
                    raise LolRuntimeError(f"{name}: {exc.message}", pos) from exc

            return run_local

        def run_global(rt: _Runtime, frame: list) -> object:
            cell = rt.gframe[slot]
            if cell is UNDECLARED:
                raise _undeclared(name, pos)
            index = _as_index(index_c(rt, frame), pos)
            try:
                return cell.read(index)
            except LolRuntimeError as exc:
                raise LolRuntimeError(f"{name}: {exc.message}", pos) from exc

        return run_global

    def _expr_call(self, node: ast.FuncCall, scope: ScopeStack) -> Code:
        pos = node.pos
        name = node.name
        arg_cs = tuple(self._expr(a, scope) for a in node.args)
        n_args = len(arg_cs)

        def run(rt: _Runtime, frame: list) -> object:
            func = rt.functions.get(name)
            if func is None:
                raise LolNameError(f"no function named '{name}'", pos)
            if func.n_params != n_args:
                raise LolRuntimeError(
                    f"function '{name}' wants {func.n_params} arguments, "
                    f"got {n_args}",
                    pos,
                )
            callee = new_frame(func.n_slots)
            for c, slot in zip(arg_cs, func.param_slots):
                callee[slot] = c(rt, frame)
            try:
                for s in func.body:
                    s(rt, callee)
                return callee[0]  # fall off the end: IT is returned
            except _Return as ret:
                return ret.value
            except _Break:
                return None  # GTFO in a function returns NOOB

        return run

    _EXPR_DISPATCH = {
        ast.IntLit: _expr_const,
        ast.FloatLit: _expr_const,
        ast.TroofLit: _expr_const,
        ast.StringLit: _expr_string,
        ast.NoobLit: _expr_noob,
        ast.ItRef: _expr_it,
        ast.MeExpr: _expr_me,
        ast.FrenzExpr: _expr_frenz,
        ast.RandomExpr: _expr_random,
        ast.BinOp: _expr_binop,
        ast.UnaryOp: _expr_unop,
        ast.NaryOp: _expr_naryop,
        ast.Cast: _expr_cast,
        ast.VarRef: _expr_var,
        ast.SrsRef: _expr_srs,
        ast.Index: _expr_index,
        ast.FuncCall: _expr_call,
    }

    # -- variable plumbing -------------------------------------------------
    #
    # LOCAL slot reads skip the UNDECLARED sentinel check: a compile-time
    # resolvable local reference is always dominated by its declaration —
    # the declaration is textually earlier in the same or an enclosing
    # block of the same frame, and blocks have no internal jumps (GTFO /
    # FOUND YR exit the block entirely), so every execution path reaching
    # the read has executed the declaration.  GLOBAL reads (a function
    # touching a top-level variable) keep the check, because the call may
    # run before the top-level declaration statement has executed.

    def _raise_name(self, name: str, pos: SourcePos) -> Code:
        def run(rt: _Runtime, frame: list) -> object:
            raise _undeclared(name, pos)

        return run

    def _read_name(
        self,
        name: str,
        qualifier: Optional[str],
        scope: ScopeStack,
        pos: SourcePos,
    ) -> Code:
        if qualifier == "UR":

            def run_ur(rt: _Runtime, frame: list) -> object:
                return rt.ctx.get(name, _require_target(rt, name, pos))

            return run_ur
        return self._read_info(scope.lookup(name), name, pos)

    def _read_info(
        self, info: Optional[VarInfo], name: str, pos: SourcePos
    ) -> Code:
        """Compile a read of one *resolved* binding (fallback-aware)."""
        if info is None or info.kind == MISSING:
            return self._raise_name(name, pos)
        if info.kind == SYMMETRIC:

            def run_sym(rt: _Runtime, frame: list) -> object:
                return rt.ctx.local_read(name)

            return run_sym
        if info.is_array:

            def run_array(rt: _Runtime, frame: list) -> object:
                raise LolTypeError(
                    f"'{name}' is an array: index it with {name}'Z <expr>", pos
                )

            return run_array
        slot = info.slot
        if info.kind == LOCAL:
            if info.fallback is not None:
                # Pre-declared loop-body binding: until the declaration
                # first runs, reads see the enclosing binding.
                fb_c = self._read_info(info.fallback, name, pos)

                def run_cond(rt: _Runtime, frame: list) -> object:
                    v = frame[slot]
                    if v is UNDECLARED:
                        return fb_c(rt, frame)
                    return v

                return run_cond

            def run_local(rt: _Runtime, frame: list) -> object:
                return frame[slot]

            return run_local

        def run_global(rt: _Runtime, frame: list) -> object:
            v = rt.gframe[slot]
            if v is UNDECLARED:
                raise _undeclared(name, pos)
            return v

        return run_global

    def _simple_operand(self, node: ast.Expr, scope: ScopeStack):
        """Recognize operands the specializer can inline without a call.

        Returns ``("const", value)``, ``("slot", slot)`` (a LOCAL scalar,
        including ``IT`` as slot 0), or ``None`` for everything else.
        Pre-declared bindings (``fallback`` set) are excluded — they need
        the conditional read path.
        """
        t = type(node)
        if t in (ast.IntLit, ast.FloatLit, ast.TroofLit):
            return ("const", node.value)
        if t is ast.ItRef:
            return ("slot", 0)
        if t is ast.VarRef and node.qualifier != "UR":
            info = scope.lookup(node.name)
            if (
                info is not None
                and info.kind == LOCAL
                and not info.is_array
                and info.fallback is None
            ):
                return ("slot", info.slot)
        return None

    def _target_name(
        self, base: "ast.VarRef | ast.SrsRef", scope: ScopeStack
    ) -> Callable[["_Runtime", list], str]:
        """Compile the *name* of an lvalue base (static or ``SRS``)."""
        if isinstance(base, ast.VarRef):
            name = base.name

            def run_static(rt: _Runtime, frame: list) -> str:
                return name

            return run_static
        name_c = self._expr(base.expr, scope)

        def run_dyn(rt: _Runtime, frame: list) -> str:
            return format_yarn(name_c(rt, frame))

        return run_dyn

    # -- stores ------------------------------------------------------------

    def _store(
        self, target: ast.Expr, scope: ScopeStack
    ) -> Callable[["_Runtime", list, object], None]:
        pos = target.pos
        if isinstance(target, ast.Index):
            return self._store_element(target, scope)
        if isinstance(target, ast.SrsRef):
            name_c = self._expr(target.expr, scope)
            if target.qualifier == "UR":

                def run_srs_ur(rt: _Runtime, frame: list, value: object) -> None:
                    name = format_yarn(name_c(rt, frame))
                    pe = _require_target(rt, name, pos)
                    rt.ctx.put(name, coerce_symmetric(rt.ctx, name, value, pos), pe)

                return run_srs_ur
            snap = scope.snapshot()

            def run_srs(rt: _Runtime, frame: list, value: object) -> None:
                _dyn_write(
                    rt, frame, snap, format_yarn(name_c(rt, frame)), value, pos
                )

            return run_srs
        if isinstance(target, ast.VarRef):
            name = target.name
            if target.qualifier == "UR":

                def run_ur(rt: _Runtime, frame: list, value: object) -> None:
                    pe = _require_target(rt, name, pos)
                    rt.ctx.put(name, coerce_symmetric(rt.ctx, name, value, pos), pe)

                return run_ur
            return self._store_info(scope.lookup(name), name, pos)

        def run_invalid(rt: _Runtime, frame: list, value: object) -> None:
            raise LolRuntimeError("invalid assignment target", pos)

        return run_invalid

    def _store_info(
        self, info: Optional[VarInfo], name: str, pos: SourcePos
    ) -> Callable[["_Runtime", list, object], None]:
        """Compile a store into one *resolved* binding (fallback-aware)."""
        if info is None or info.kind == MISSING:
            raiser = self._raise_name(name, pos)

            def run_missing(rt: _Runtime, frame: list, value: object) -> None:
                raiser(rt, frame)

            return run_missing
        if info.kind == SYMMETRIC:

            def run_sym(rt: _Runtime, frame: list, value: object) -> None:
                rt.ctx.local_write(
                    name, coerce_symmetric(rt.ctx, name, value, pos)
                )

            return run_sym
        slot = info.slot
        is_global = info.kind == GLOBAL
        if info.fallback is not None and not is_global:
            # Pre-declared loop-body binding: assignments hit the
            # enclosing binding until the declaration first runs.
            fb_store = self._store_info(info.fallback, name, pos)
            inner = self._store_info(
                VarInfo(LOCAL, name, slot, info.static_type, info.is_array),
                name,
                pos,
            )

            def run_cond(rt: _Runtime, frame: list, value: object) -> None:
                if frame[slot] is UNDECLARED:
                    fb_store(rt, frame, value)
                else:
                    inner(rt, frame, value)

            return run_cond
        if info.is_array:

            def run_whole_array(rt: _Runtime, frame: list, value: object) -> None:
                f = rt.gframe if is_global else frame
                cell = f[slot]
                if cell is UNDECLARED:
                    raise _undeclared(name, pos)
                write_whole_array(cell, value, name, pos)

            return run_whole_array
        if info.static_type is not None:
            dt = info.static_type
            if is_global:

                def run_typed_global(
                    rt: _Runtime, frame: list, value: object
                ) -> None:
                    g = rt.gframe
                    if g[slot] is UNDECLARED:
                        raise _undeclared(name, pos)
                    g[slot] = coerce_static(value, dt, name, pos)

                return run_typed_global

            def run_typed(rt: _Runtime, frame: list, value: object) -> None:
                frame[slot] = coerce_static(value, dt, name, pos)

            return run_typed
        if is_global:

            def run_dyn_global(rt: _Runtime, frame: list, value: object) -> None:
                g = rt.gframe
                if g[slot] is UNDECLARED:
                    raise _undeclared(name, pos)
                if not is_scalar_value(value):
                    raise LolTypeError(
                        f"cannot assign an array value to scalar '{name}'",
                        pos,
                    )
                g[slot] = value

            return run_dyn_global

        def run_dyn(rt: _Runtime, frame: list, value: object) -> None:
            if not is_scalar_value(value):
                raise LolTypeError(
                    f"cannot assign an array value to scalar '{name}'", pos
                )
            frame[slot] = value

        return run_dyn

    def _store_element(
        self, target: ast.Index, scope: ScopeStack
    ) -> Callable[["_Runtime", list, object], None]:
        pos = target.pos
        index_c = self._expr(target.index, scope)
        base = target.base
        if isinstance(base, ast.SrsRef):
            name_c = self._expr(base.expr, scope)
            if base.qualifier == "UR":

                def run_srs_ur(rt: _Runtime, frame: list, value: object) -> None:
                    name = format_yarn(name_c(rt, frame))
                    index = _as_index(index_c(rt, frame), pos)
                    pe = _require_target(rt, name, pos)
                    obj = rt.ctx.world.heap.lookup(name)
                    rt.ctx.put(
                        name,
                        coerce_element(value, obj.lol_type, name, pos),
                        pe,
                        index=index,
                    )

                return run_srs_ur
            snap = scope.snapshot()

            def run_srs(rt: _Runtime, frame: list, value: object) -> None:
                name = format_yarn(name_c(rt, frame))
                index = _as_index(index_c(rt, frame), pos)
                _dyn_write_element(rt, frame, snap, name, index, value, pos)

            return run_srs
        name = base.name
        if base.qualifier == "UR":

            def run_ur(rt: _Runtime, frame: list, value: object) -> None:
                index = _as_index(index_c(rt, frame), pos)
                pe = _require_target(rt, name, pos)
                obj = rt.ctx.world.heap.lookup(name)
                rt.ctx.put(
                    name,
                    coerce_element(value, obj.lol_type, name, pos),
                    pe,
                    index=index,
                )

            return run_ur
        info = scope.lookup(name)
        if info is None:
            raiser = self._raise_name(name, pos)

            def run_missing(rt: _Runtime, frame: list, value: object) -> None:
                raiser(rt, frame)

            return run_missing
        if info.kind == LOCAL and info.fallback is not None:
            # Pre-declared loop-body binding: resolve at runtime.
            fsnap = {name: info}

            def run_fb(rt: _Runtime, frame: list, value: object) -> None:
                index = _as_index(index_c(rt, frame), pos)
                _dyn_write_element(rt, frame, fsnap, name, index, value, pos)

            return run_fb
        if info.kind == SYMMETRIC:

            def run_sym(rt: _Runtime, frame: list, value: object) -> None:
                index = _as_index(index_c(rt, frame), pos)
                obj = rt.ctx.world.heap.lookup(name)
                rt.ctx.local_write(
                    name,
                    coerce_element(value, obj.lol_type, name, pos),
                    index=index,
                )

            return run_sym
        if not info.is_array:

            def run_not_array(rt: _Runtime, frame: list, value: object) -> None:
                raise LolTypeError(f"'{name}' is not an array", pos)

            return run_not_array
        slot = info.slot
        elem_t = info.static_type or LolType.NUMBAR
        if info.kind == GLOBAL:

            def run_global(rt: _Runtime, frame: list, value: object) -> None:
                cell = rt.gframe[slot]
                if cell is UNDECLARED:
                    raise _undeclared(name, pos)
                index = _as_index(index_c(rt, frame), pos)
                value = coerce_static(value, elem_t, name, pos)
                try:
                    cell.write(index, value)
                except LolRuntimeError as exc:
                    raise LolRuntimeError(f"{name}: {exc.message}", pos) from exc

            return run_global
        simple = self._simple_operand(target.index, scope)
        if simple is not None and simple[0] == "slot":
            islot = simple[1]

            def run_s(rt: _Runtime, frame: list, value: object) -> None:
                index = frame[islot]
                if type(index) is not int:
                    index = to_numbr(index, pos)
                value = coerce_static(value, elem_t, name, pos)
                try:
                    frame[slot].write(index, value)
                except LolRuntimeError as exc:
                    raise LolRuntimeError(f"{name}: {exc.message}", pos) from exc

            return run_s

        def run(rt: _Runtime, frame: list, value: object) -> None:
            index = _as_index(index_c(rt, frame), pos)
            value = coerce_static(value, elem_t, name, pos)
            try:
                frame[slot].write(index, value)
            except LolRuntimeError as exc:
                raise LolRuntimeError(f"{name}: {exc.message}", pos) from exc

        return run


def compile_program(
    program: ast.Program, *, count_flops: bool = False
) -> CompiledProgram:
    """Compile ``program`` once; the result is shareable across PEs."""
    return ClosureCompiler(program, count_flops=count_flops).compile()
