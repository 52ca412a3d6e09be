"""SPMD-aware tree-walking interpreter for extended LOLCODE.

One :class:`Interpreter` instance runs per PE, all attached to the same
:class:`~repro.shmem.api.World` through per-PE
:class:`~repro.shmem.api.ShmemContext` handles.  All parallel semantics —
symmetric access, ``HUGZ`` barriers, ``TXT MAH BFF`` predication with
``UR``/``MAH`` addressing, and the implied locks of ``IM SHARIN IT`` —
delegate to the context, so the interpreter is executor-agnostic (threads,
processes, or a 1-PE serial world).

Design notes
------------

* ``IT`` is per call frame, as in the reference lci interpreter.
* ``GTFO`` and ``FOUND YR`` are implemented as control-flow exceptions.
* The ``TXT MAH BFF`` target PE is interpreter state saved/restored around
  each predicated statement or block; ``UR`` references outside a
  predicated region raise :class:`~repro.lang.errors.LolParallelError`.
* When op tracing is enabled the interpreter also counts floating-point
  work per operator (``FLOP_COST``) to feed the NoC performance model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..analysis.summary import is_symmetric, summarize, symmetric_plan
from ..lang import ast
from ..lang.errors import (
    LolNameError,
    LolParallelError,
    LolRuntimeError,
    LolTypeError,
    SourcePos,
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
    type_of,
)
from ..shmem.api import ShmemContext, serial_context
from ..shmem.heap import ArrayCell
from .env import Binding, Env
from .values import FLOP_COST, binop, equals, naryop, unop

#: Libraries accepted by ``CAN HAS <lib>?`` (all are no-ops at runtime, as
#: in the paper: STDIO et al. exist so the famous ``CAN HAS STDIO?`` line
#: parses; the parallel runtime is always linked).
KNOWN_LIBRARIES = {"STDIO", "STRING", "SOCKS", "STDLIB", "SHMEM"}


class _Break(Exception):
    """GTFO."""


class _Return(Exception):
    """FOUND YR <expr>."""

    def __init__(self, value: object) -> None:
        self.value = value
        super().__init__()


class Interpreter:
    def __init__(
        self,
        program: ast.Program,
        ctx: Optional[ShmemContext] = None,
        *,
        max_steps: Optional[int] = None,
    ) -> None:
        self.program = program
        if ctx is None:
            # Serial by default, over a heap planned from this program.
            ctx = serial_context(symmetric_plan(summarize(program), 1))
        self.ctx = ctx
        self.globals = Env()
        self.functions: dict[str, ast.FuncDef] = {}
        self.libraries: set[str] = set()
        self.target_pe: Optional[int] = None
        self.it: object = None
        self.max_steps = max_steps
        self._steps = 0
        # Tracing is decided once, here ("compile time" for a tree-walker):
        # the traced dispatch table carries the FLOP-accounting operator
        # handlers, so the untraced hot path performs no per-op trace
        # checks or attribute lookups at all.
        self._expr_dispatch = (
            _EXPR_DISPATCH_TRACED if self.ctx.trace is not None else _EXPR_DISPATCH
        )

    # -- entry point -----------------------------------------------------------

    def run(self) -> None:
        # Hoist top-level function definitions so call sites may precede
        # definitions textually (matches lci).
        for stmt in self.program.body:
            if isinstance(stmt, ast.FuncDef):
                self.functions[stmt.name] = stmt
        self.exec_block(self.program.body, self.globals)

    # -- statements ---------------------------------------------------------------

    def exec_block(self, stmts: list[ast.Stmt], env: Env) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def _step(self, pos: SourcePos) -> None:
        self._steps += 1
        if self._steps > self.max_steps:  # type: ignore[operator]
            raise LolRuntimeError(
                f"program exceeded {self.max_steps} statement steps", pos
            )

    def exec_stmt(self, stmt: ast.Stmt, env: Env) -> None:
        if self.max_steps is not None:
            self._step(stmt.pos)
        method = _STMT_DISPATCH.get(type(stmt))
        if method is None:
            raise LolRuntimeError(
                f"statement {type(stmt).__name__} not implemented", stmt.pos
            )
        method(self, stmt, env)

    def _exec_var_decl(self, stmt: ast.VarDecl, env: Env) -> None:
        declared_type = (
            parse_type(stmt.static_type, stmt.pos) if stmt.static_type else None
        )
        if is_symmetric(stmt):
            self._exec_symmetric_decl(stmt, declared_type)
            return
        if stmt.is_array:
            size = to_array_size(self.eval(stmt.size, env), stmt.pos)
            if size <= 0:
                raise LolRuntimeError(
                    f"array '{stmt.name}' must have positive size, got {size}",
                    stmt.pos,
                )
            cell = ArrayCell(declared_type or LolType.NUMBAR, size)
            env.declare(
                stmt.name,
                Binding(cell, static_type=declared_type, is_array=True),
                stmt.pos,
            )
            return
        if stmt.init is not None:
            value = self.eval(stmt.init, env)
            if declared_type is not None:
                value = coerce_static(value, declared_type, stmt.name, stmt.pos)
        elif declared_type is not None:
            value = default_value(declared_type)
        else:
            value = None  # NOOB
        env.declare(stmt.name, Binding(value, static_type=declared_type), stmt.pos)

    def _exec_symmetric_decl(
        self, stmt: ast.VarDecl, declared_type: Optional[LolType]
    ) -> None:
        # The world's plan already holds the object (typed, sized and
        # checked before launch): declaring only binds the name.
        self.globals.declare(
            stmt.name,
            Binding(
                None,
                static_type=declared_type,
                is_array=stmt.is_array,
                symmetric=True,
            ),
            stmt.pos,
        )
        if stmt.init is not None:
            value = self.eval(stmt.init, self.globals)
            value = coerce_static(value, declared_type, stmt.name, stmt.pos)
            self.ctx.local_write(stmt.name, value)

    def _exec_assign(self, stmt: ast.Assign, env: Env) -> None:
        value = self.eval(stmt.value, env)
        self.assign_target(stmt.target, value, env)

    def _exec_cast_stmt(self, stmt: ast.CastStmt, env: Env) -> None:
        to_type = parse_type(stmt.to_type, stmt.pos)
        current = self.eval(stmt.target, env)
        self.assign_target(stmt.target, cast_value(current, to_type, stmt.pos), env)

    def _exec_expr_stmt(self, stmt: ast.ExprStmt, env: Env) -> None:
        self.it = self.eval(stmt.expr, env)

    def _exec_visible(self, stmt: ast.Visible, env: Env) -> None:
        parts = [display_value(self.eval(a, env), a.pos) for a in stmt.args]
        self.ctx.emit("".join(parts) + ("\n" if stmt.newline else ""))

    def _exec_gimmeh(self, stmt: ast.Gimmeh, env: Env) -> None:
        line = self.ctx.read_line()
        self.assign_target(stmt.target, line, env)

    def _exec_can_has(self, stmt: ast.CanHas, env: Env) -> None:
        lib = stmt.library.upper()
        if lib not in KNOWN_LIBRARIES:
            raise LolRuntimeError(f"CAN HAS {stmt.library}?: unknown library", stmt.pos)
        self.libraries.add(lib)

    def _exec_if(self, stmt: ast.If, env: Env) -> None:
        if to_troof(self.it):
            self.exec_block(stmt.ya_rly, env.child())
            return
        for cond, body in stmt.mebbe:
            if to_troof(self.eval(cond, env)):
                self.exec_block(body, env.child())
                return
        self.exec_block(stmt.no_wai, env.child())

    def _exec_switch(self, stmt: ast.Switch, env: Env) -> None:
        scrutinee = self.it
        match_idx: Optional[int] = None
        for i, (literal, _) in enumerate(stmt.cases):
            if equals(scrutinee, self.eval(literal, env)):
                match_idx = i
                break
        try:
            if match_idx is not None:
                # C-style fallthrough until GTFO.
                for _, body in stmt.cases[match_idx:]:
                    self.exec_block(body, env.child())
                self.exec_block(stmt.default, env.child())
            else:
                self.exec_block(stmt.default, env.child())
        except _Break:
            pass

    def _exec_loop(self, stmt: ast.Loop, env: Env) -> None:
        loop_env = env.child()
        counter: Optional[Binding] = None
        if stmt.var is not None:
            counter = Binding(0, static_type=LolType.NUMBR)
            loop_env.declare(stmt.var, counter, stmt.pos)
        while True:
            # Loop iterations count as steps even when the body is empty,
            # so max_steps bounds condition-driven spins too.
            if self.max_steps is not None:
                self._step(stmt.pos)
            if stmt.cond is not None:
                flag = to_troof(self.eval(stmt.cond, loop_env))
                if stmt.cond_kind == "TIL" and flag:
                    break
                if stmt.cond_kind == "WILE" and not flag:
                    break
            try:
                # Each iteration is a fresh run of the body: its
                # declarations start over, the counter stays loop-scoped.
                self.exec_block(stmt.body, loop_env.child())
            except _Break:
                break
            if counter is not None:
                step = 1 if stmt.op == "UPPIN" else -1
                counter.value = to_numbr(counter.value, stmt.pos) + step
            elif stmt.cond is None:
                raise LolRuntimeError(
                    f"loop '{stmt.label}' has no counter, no condition and "
                    f"no GTFO: it would never terminate",
                    stmt.pos,
                )

    def _exec_gtfo(self, stmt: ast.Gtfo, env: Env) -> None:
        raise _Break()

    def _exec_func_def(self, stmt: ast.FuncDef, env: Env) -> None:
        self.functions[stmt.name] = stmt

    def _exec_return(self, stmt: ast.Return, env: Env) -> None:
        raise _Return(self.eval(stmt.expr, env))

    def _exec_hugz(self, stmt: ast.Hugz, env: Env) -> None:
        self.ctx.barrier_all()

    def _exec_lock(self, stmt: ast.LockStmt, env: Env) -> None:
        name = self._lock_symbol(stmt.target, env)
        if stmt.kind == "lock":
            self.ctx.set_lock(name)
        elif stmt.kind == "trylock":
            self.it = self.ctx.test_lock(name)
        else:
            self.ctx.clear_lock(name)

    def _exec_txt(self, stmt: ast.TxtStmt, env: Env) -> None:
        pe = to_numbr(self.eval(stmt.pe, env), stmt.pos)
        if not 0 <= pe < self.ctx.n_pes:
            raise LolParallelError(
                f"TXT MAH BFF {pe}: PE out of range [0, {self.ctx.n_pes})",
                stmt.pos,
            )
        saved = self.target_pe
        self.target_pe = pe
        try:
            self.exec_block(stmt.body, env)
        finally:
            self.target_pe = saved

    # -- expressions -----------------------------------------------------------------

    def eval(self, node: ast.Expr, env: Env) -> object:
        method = self._expr_dispatch.get(type(node))
        if method is None:
            raise LolRuntimeError(
                f"expression {type(node).__name__} not implemented", node.pos
            )
        return method(self, node, env)

    def _eval_int(self, node: ast.IntLit, env: Env) -> object:
        return node.value

    def _eval_float(self, node: ast.FloatLit, env: Env) -> object:
        return node.value

    def _eval_string(self, node: ast.StringLit, env: Env) -> object:
        out: list[str] = []
        for part in node.parts:
            if isinstance(part, str):
                out.append(part)
            else:
                _, name = part
                out.append(
                    format_yarn(self._read_var(name, None, env, node.pos))
                )
        return "".join(out)

    def _eval_troof(self, node: ast.TroofLit, env: Env) -> object:
        return node.value

    def _eval_noob(self, node: ast.NoobLit, env: Env) -> object:
        return None

    def _eval_it(self, node: ast.ItRef, env: Env) -> object:
        return self.it

    def _eval_me(self, node: ast.MeExpr, env: Env) -> object:
        return self.ctx.my_pe

    def _eval_frenz(self, node: ast.FrenzExpr, env: Env) -> object:
        return self.ctx.n_pes

    def _eval_random(self, node: ast.RandomExpr, env: Env) -> object:
        if node.kind == "int":
            return self.ctx.rng.randrange(0, 2**31 - 1)  # rand()
        return self.ctx.rng.random()  # randf()

    def _eval_binop(self, node: ast.BinOp, env: Env) -> object:
        lhs = self.eval(node.lhs, env)
        rhs = self.eval(node.rhs, env)
        return binop(node.op, lhs, rhs, node.pos)

    def _eval_binop_traced(self, node: ast.BinOp, env: Env) -> object:
        lhs = self.eval(node.lhs, env)
        rhs = self.eval(node.rhs, env)
        self.ctx.add_flops(FLOP_COST.get(node.op, 0))
        return binop(node.op, lhs, rhs, node.pos)

    def _eval_unop(self, node: ast.UnaryOp, env: Env) -> object:
        operand = self.eval(node.operand, env)
        return unop(node.op, operand, node.pos)

    def _eval_unop_traced(self, node: ast.UnaryOp, env: Env) -> object:
        operand = self.eval(node.operand, env)
        self.ctx.add_flops(FLOP_COST.get(node.op, 0))
        return unop(node.op, operand, node.pos)

    def _eval_naryop(self, node: ast.NaryOp, env: Env) -> object:
        values = [self.eval(e, env) for e in node.operands]
        return naryop(node.op, values, node.pos)

    def _eval_cast(self, node: ast.Cast, env: Env) -> object:
        return cast_value(
            self.eval(node.expr, env), parse_type(node.to_type, node.pos), node.pos
        )

    def _eval_var(self, node: ast.VarRef, env: Env) -> object:
        return self._read_var(node.name, node.qualifier, env, node.pos)

    def _eval_srs(self, node: ast.SrsRef, env: Env) -> object:
        name = format_yarn(self.eval(node.expr, env))
        return self._read_var(name, node.qualifier, env, node.pos)

    def _eval_index(self, node: ast.Index, env: Env) -> object:
        name, qualifier = self._target_name(node.base, env)
        index = to_numbr(self.eval(node.index, env), node.pos)
        return self._read_element(name, qualifier, index, env, node.pos)

    def _eval_call(self, node: ast.FuncCall, env: Env) -> object:
        func = self.functions.get(node.name)
        if func is None:
            raise LolNameError(f"no function named '{node.name}'", node.pos)
        if len(node.args) != len(func.params):
            raise LolRuntimeError(
                f"function '{node.name}' wants {len(func.params)} arguments, "
                f"got {len(node.args)}",
                node.pos,
            )
        args = [self.eval(a, env) for a in node.args]
        call_env = self.globals.child()
        for param, value in zip(func.params, args):
            call_env.declare(param, Binding(value), node.pos)
        saved_it = self.it
        self.it = None
        try:
            self.exec_block(func.body, call_env)
            result: object = self.it  # fall off the end: IT is returned
        except _Return as ret:
            result = ret.value
        except _Break:
            result = None  # GTFO in a function returns NOOB
        finally:
            self.it = saved_it
        return result

    # -- variable plumbing ---------------------------------------------------------

    def _target_name(
        self, base: ast.VarRef | ast.SrsRef, env: Env
    ) -> tuple[str, Optional[str]]:
        if isinstance(base, ast.VarRef):
            return base.name, base.qualifier
        name = format_yarn(self.eval(base.expr, env))
        return name, base.qualifier

    def _require_remote(self, name: str, pos: SourcePos) -> int:
        if self.target_pe is None:
            raise LolParallelError(
                f"'UR {name}' used outside a TXT MAH BFF predicated "
                f"statement or block",
                pos,
            )
        return self.target_pe

    def _read_var(
        self, name: str, qualifier: Optional[str], env: Env, pos: SourcePos
    ) -> object:
        if qualifier == "UR":
            pe = self._require_remote(name, pos)
            return self.ctx.get(name, pe)
        binding = env.lookup(name, pos)
        if binding.symmetric:
            return self.ctx.local_read(name)
        if binding.is_array:
            raise LolTypeError(
                f"'{name}' is an array: index it with {name}'Z <expr>", pos
            )
        return binding.value

    def _read_element(
        self,
        name: str,
        qualifier: Optional[str],
        index: int,
        env: Env,
        pos: SourcePos,
    ) -> object:
        if qualifier == "UR":
            pe = self._require_remote(name, pos)
            return self.ctx.get(name, pe, index=index, pos=pos)
        binding = env.lookup(name, pos)
        if binding.symmetric:
            return self.ctx.local_read(name, index=index, pos=pos)
        if not binding.is_array:
            raise LolTypeError(f"'{name}' is not an array", pos)
        cell: ArrayCell = binding.value  # type: ignore[assignment]
        try:
            return cell.read(index)
        except LolRuntimeError as exc:
            raise LolRuntimeError(f"{name}: {exc.message}", pos) from exc

    def assign_target(self, target: ast.Expr, value: object, env: Env) -> None:
        pos = target.pos
        if isinstance(target, ast.Index):
            name, qualifier = self._target_name(target.base, env)
            index = to_numbr(self.eval(target.index, env), pos)
            self._write_element(name, qualifier, index, value, env, pos)
            return
        if isinstance(target, (ast.VarRef, ast.SrsRef)):
            name, qualifier = self._target_name(target, env)
            self._write_var(name, qualifier, value, env, pos)
            return
        raise LolRuntimeError("invalid assignment target", pos)

    def _write_var(
        self,
        name: str,
        qualifier: Optional[str],
        value: object,
        env: Env,
        pos: SourcePos,
    ) -> None:
        if qualifier == "UR":
            pe = self._require_remote(name, pos)
            self.ctx.put(name, coerce_symmetric(self.ctx, name, value, pos), pe)
            return
        binding = env.lookup(name, pos)
        if binding.symmetric:
            self.ctx.local_write(name, coerce_symmetric(self.ctx, name, value, pos))
            return
        if binding.is_array:
            cell: ArrayCell = binding.value  # type: ignore[assignment]
            write_whole_array(cell, value, name, pos)
            return
        if binding.static_type is not None:
            value = coerce_static(value, binding.static_type, name, pos)
        elif not is_scalar_value(value):
            raise LolTypeError(
                f"cannot assign an array value to scalar '{name}'", pos
            )
        binding.value = value

    def _write_element(
        self,
        name: str,
        qualifier: Optional[str],
        index: int,
        value: object,
        env: Env,
        pos: SourcePos,
    ) -> None:
        if qualifier == "UR":
            pe = self._require_remote(name, pos)
            obj = self.ctx.world.heap.lookup(name)
            value = coerce_element(value, obj.lol_type, name, pos)
            self.ctx.put(name, value, pe, index=index, pos=pos)
            return
        binding = env.lookup(name, pos)
        if binding.symmetric:
            obj = self.ctx.world.heap.lookup(name)
            value = coerce_element(value, obj.lol_type, name, pos)
            self.ctx.local_write(name, value, index=index, pos=pos)
            return
        if not binding.is_array:
            raise LolTypeError(f"'{name}' is not an array", pos)
        cell: ArrayCell = binding.value  # type: ignore[assignment]
        value = coerce_element(value, cell.lol_type, name, pos)
        try:
            cell.write(index, value)
        except LolRuntimeError as exc:
            raise LolRuntimeError(f"{name}: {exc.message}", pos) from exc


    def _lock_symbol(self, target: ast.VarRef | ast.SrsRef, env: Env) -> str:
        """Resolve the symbol a lock statement protects.

        Per Table II the lock is *global* and associated with the symbol,
        so the ``UR``/``MAH`` qualifier (accepted, see the Section VI.B
        listing which writes ``IM MESIN WIF UR x``) does not change which
        lock is taken.
        """
        name, _qualifier = self._target_name(target, env)
        if not self.ctx.is_symmetric(name):
            raise LolParallelError(
                f"cannot lock '{name}': it is not a shared symmetric "
                f"variable (WE HAS A {name} ... AN IM SHARIN IT)",
                target.pos,
            )
        return name


def _scalarize(v: object) -> object:
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.bool_):
        return bool(v)
    return v


# ---------------------------------------------------------------------------
# Value plumbing shared by both interpreter engines (the tree-walker here
# and the VM in repro.vm.machine); one copy so semantics cannot drift.
# ---------------------------------------------------------------------------

_SCALAR_TYPES = frozenset((int, float, str, bool, type(None)))


def is_scalar_value(value: object) -> bool:
    if type(value) in _SCALAR_TYPES:
        return True
    return not isinstance(value, (list, np.ndarray, ArrayCell))


def display_value(value: object, pos: SourcePos) -> str:
    """Render one VISIBLE argument (arrays print space-separated)."""
    if isinstance(value, (list, np.ndarray)):
        return " ".join(format_yarn(_scalarize(v)) for v in value)
    try:
        return format_yarn(value)
    except LolTypeError as exc:
        raise LolTypeError(f"VISIBLE: {exc.message}", pos) from exc


def write_whole_array(
    cell: ArrayCell, value: object, name: str, pos: SourcePos
) -> None:
    if not isinstance(value, (list, np.ndarray)):
        raise LolTypeError(
            f"cannot assign a scalar to whole array '{name}' "
            f"(index it with {name}'Z <expr>)",
            pos,
        )
    if len(value) != len(cell):
        raise LolRuntimeError(
            f"array length mismatch assigning to '{name}': "
            f"{len(value)} vs {len(cell)}",
            pos,
        )
    cell.write_all(value)


def coerce_element(
    value: object, lol_type: Optional[LolType], name: str, pos: SourcePos
) -> object:
    if lol_type is None:
        return value
    return coerce_static(value, lol_type, name, pos)


def coerce_symmetric(
    ctx: ShmemContext, name: str, value: object, pos: SourcePos
) -> object:
    """Coerce a value headed for symmetric storage of ``name``."""
    obj = ctx.world.heap.lookup(name)
    if obj.is_array:
        if not isinstance(value, (list, np.ndarray)):
            raise LolTypeError(
                f"cannot assign a scalar to whole symmetric array "
                f"'{name}'",
                pos,
            )
        if len(value) != obj.size:
            raise LolRuntimeError(
                f"array length mismatch assigning to '{name}': "
                f"{len(value)} vs {obj.size}",
                pos,
            )
        return value
    return coerce_element(value, obj.lol_type, name, pos)


_STMT_DISPATCH = {
    ast.VarDecl: Interpreter._exec_var_decl,
    ast.Assign: Interpreter._exec_assign,
    ast.CastStmt: Interpreter._exec_cast_stmt,
    ast.ExprStmt: Interpreter._exec_expr_stmt,
    ast.Visible: Interpreter._exec_visible,
    ast.Gimmeh: Interpreter._exec_gimmeh,
    ast.CanHas: Interpreter._exec_can_has,
    ast.If: Interpreter._exec_if,
    ast.Switch: Interpreter._exec_switch,
    ast.Loop: Interpreter._exec_loop,
    ast.Gtfo: Interpreter._exec_gtfo,
    ast.FuncDef: Interpreter._exec_func_def,
    ast.Return: Interpreter._exec_return,
    ast.Hugz: Interpreter._exec_hugz,
    ast.LockStmt: Interpreter._exec_lock,
    ast.TxtStmt: Interpreter._exec_txt,
}

_EXPR_DISPATCH = {
    ast.IntLit: Interpreter._eval_int,
    ast.FloatLit: Interpreter._eval_float,
    ast.StringLit: Interpreter._eval_string,
    ast.TroofLit: Interpreter._eval_troof,
    ast.NoobLit: Interpreter._eval_noob,
    ast.ItRef: Interpreter._eval_it,
    ast.MeExpr: Interpreter._eval_me,
    ast.FrenzExpr: Interpreter._eval_frenz,
    ast.RandomExpr: Interpreter._eval_random,
    ast.BinOp: Interpreter._eval_binop,
    ast.UnaryOp: Interpreter._eval_unop,
    ast.NaryOp: Interpreter._eval_naryop,
    ast.Cast: Interpreter._eval_cast,
    ast.VarRef: Interpreter._eval_var,
    ast.SrsRef: Interpreter._eval_srs,
    ast.Index: Interpreter._eval_index,
    ast.FuncCall: Interpreter._eval_call,
}

#: Dispatch table used when op tracing is enabled: identical except the
#: operator handlers also account FLOPs toward the NoC model.
_EXPR_DISPATCH_TRACED = {
    **_EXPR_DISPATCH,
    ast.BinOp: Interpreter._eval_binop_traced,
    ast.UnaryOp: Interpreter._eval_unop_traced,
}


def interpret(
    source: str,
    ctx: Optional[ShmemContext] = None,
    *,
    filename: str = "<string>",
    max_steps: Optional[int] = None,
) -> ShmemContext:
    """Parse and run ``source`` on a single context (by default a serial
    one whose heap is planned from ``source``).

    Returns the context so callers can inspect ``ctx.output``.
    """
    from ..lang.parser import parse

    interp = Interpreter(parse(source, filename), ctx, max_steps=max_steps)
    interp.run()
    return interp.ctx


def run_serial(source: str, **kwargs) -> str:
    """Run ``source`` on one PE and return its VISIBLE output."""
    return interpret(source, **kwargs).output
