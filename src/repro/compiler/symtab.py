"""Static symbol resolution for the C compiler backend.

The paper's ``lcc`` is a *compiler*, so unlike the interpreter it must
know, before emitting code, for every name:

* whether it is symmetric (``WE HAS A``) or local (``I HAS A``);
* its static type, if declared (``ITZ [SRSLY] A <type>``), or dynamic;
* whether it is an array and, when constant, the array extent;
* whether it carries the implied global lock (``AN IM SHARIN IT``).

:func:`analyze` walks the AST once and produces a :class:`SymbolTable`
plus a list of :class:`CompileIssue` diagnostics for constructs that are
interpretable but not compilable (e.g. ``SRS`` computed identifiers —
a fundamentally dynamic feature, rejected by AOT backends).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..lang import ast
from ..lang.errors import LolError, SourcePos
from ..lang.types import LolType, parse_type


class CompileError(LolError):
    """A construct that cannot be compiled (though it may interpret)."""


@dataclass(slots=True)
class SymbolInfo:
    name: str
    symmetric: bool = False
    static_type: Optional[LolType] = None  # None => dynamic
    is_array: bool = False
    size_expr: Optional[ast.Expr] = None
    shared_lock: bool = False
    assigned_in_functions: set = field(default_factory=set)


@dataclass(slots=True)
class FunctionInfo:
    name: str
    params: list[str]
    node: ast.FuncDef
    locals: dict[str, SymbolInfo] = field(default_factory=dict)
    assigns_globals: list[str] = field(default_factory=list)


@dataclass
class SymbolTable:
    globals: dict[str, SymbolInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    uses_random: bool = False
    uses_gimmeh: bool = False
    libraries: list[str] = field(default_factory=list)

    def symmetric_symbols(self) -> list[SymbolInfo]:
        return [s for s in self.globals.values() if s.symmetric]

    def locked_symbols(self) -> list[SymbolInfo]:
        return [s for s in self.globals.values() if s.shared_lock]


def _decl_to_info(decl: ast.VarDecl) -> SymbolInfo:
    return SymbolInfo(
        name=decl.name,
        symmetric=decl.scope == "WE",
        static_type=(
            parse_type(decl.static_type, decl.pos) if decl.static_type else None
        ),
        is_array=decl.is_array,
        size_expr=decl.size,
        shared_lock=decl.shared_lock,
    )


def _walk_exprs(stmt: ast.Stmt):
    """Yield every expression reachable from a statement (shallow walk of
    the statement's own expression slots, not nested statements)."""
    if isinstance(stmt, ast.VarDecl):
        if stmt.size is not None:
            yield stmt.size
        if stmt.init is not None:
            yield stmt.init
    elif isinstance(stmt, ast.Assign):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, ast.CastStmt):
        yield stmt.target
    elif isinstance(stmt, ast.ExprStmt):
        yield stmt.expr
    elif isinstance(stmt, ast.Visible):
        yield from stmt.args
    elif isinstance(stmt, ast.Gimmeh):
        yield stmt.target
    elif isinstance(stmt, ast.If):
        for cond, _ in stmt.mebbe:
            yield cond
    elif isinstance(stmt, ast.Switch):
        for lit, _ in stmt.cases:
            yield lit
    elif isinstance(stmt, ast.Loop):
        if stmt.cond is not None:
            yield stmt.cond
    elif isinstance(stmt, ast.Return):
        yield stmt.expr
    elif isinstance(stmt, ast.LockStmt):
        yield stmt.target
    elif isinstance(stmt, ast.TxtStmt):
        yield stmt.pe


def _walk_subexprs(expr: ast.Expr):
    yield expr
    if isinstance(expr, ast.BinOp):
        yield from _walk_subexprs(expr.lhs)
        yield from _walk_subexprs(expr.rhs)
    elif isinstance(expr, ast.UnaryOp):
        yield from _walk_subexprs(expr.operand)
    elif isinstance(expr, ast.NaryOp):
        for op in expr.operands:
            yield from _walk_subexprs(op)
    elif isinstance(expr, ast.Cast):
        yield from _walk_subexprs(expr.expr)
    elif isinstance(expr, ast.Index):
        yield from _walk_subexprs(expr.base)
        yield from _walk_subexprs(expr.index)
    elif isinstance(expr, ast.SrsRef):
        yield from _walk_subexprs(expr.expr)
    elif isinstance(expr, ast.FuncCall):
        for a in expr.args:
            yield from _walk_subexprs(a)


def analyze(program: ast.Program, *, allow_srs: bool = False) -> SymbolTable:
    """Build the symbol table; raises :class:`CompileError` on constructs
    the compilers cannot translate."""
    table = SymbolTable()

    def scan_block(
        body: list[ast.Stmt],
        func: Optional[FunctionInfo],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.CanHas):
                table.libraries.append(stmt.library)
            if isinstance(stmt, ast.Gimmeh):
                table.uses_gimmeh = True
            if isinstance(stmt, ast.VarDecl):
                info = _decl_to_info(stmt)
                if info.symmetric and func is not None:
                    raise CompileError(
                        f"symmetric declaration of '{info.name}' inside a "
                        f"function is not compilable (symmetric data is "
                        f"statically allocated)",
                        stmt.pos,
                    )
                target = table.globals if func is None else func.locals
                prev = target.get(info.name)
                if prev is not None and (
                    prev.symmetric != info.symmetric
                    or prev.is_array != info.is_array
                ):
                    raise CompileError(
                        f"'{info.name}' re-declared with a different shape",
                        stmt.pos,
                    )
                target[info.name] = info
            if isinstance(stmt, ast.FuncDef):
                if func is not None:
                    raise CompileError(
                        f"nested function '{stmt.name}' is not compilable",
                        stmt.pos,
                    )
                finfo = FunctionInfo(stmt.name, list(stmt.params), stmt)
                table.functions[stmt.name] = finfo
                scan_block(stmt.body, finfo)
                continue
            if isinstance(stmt, ast.Loop) and stmt.var is not None:
                target = table.globals if func is None else func.locals
                # Loop counters are loop-local; track them so codegen can
                # initialise them, but do not clobber an outer declaration.
                key = f"{stmt.label}${stmt.var}"
                del key  # loop vars handled directly by codegen
            if isinstance(stmt, ast.Assign) and func is not None:
                tgt = stmt.target
                base = tgt.base if isinstance(tgt, ast.Index) else tgt
                if isinstance(base, ast.VarRef):
                    name = base.name
                    if name not in func.locals and name not in func.params:
                        func.assigns_globals.append(name)
            for expr in _walk_exprs(stmt):
                for sub in _walk_subexprs(expr):
                    if isinstance(sub, ast.RandomExpr):
                        table.uses_random = True
                    if isinstance(sub, ast.SrsRef) and not allow_srs:
                        raise CompileError(
                            "SRS computed identifiers are interpret-only "
                            "(not supported by the C backend)",
                            sub.pos,
                        )
            for block in ast.child_statements(stmt):
                scan_block(block, func)

    scan_block(program.body, None)
    return table


def loop_counters(body: list[ast.Stmt]) -> list[str]:
    """All loop-counter names declared by ``IM IN YR ... UPPIN YR v``
    anywhere in ``body`` (compilers pre-declare them)."""
    names: list[str] = []
    for stmt in ast.walk_statements(body):
        if isinstance(stmt, ast.Loop) and stmt.var is not None:
            if stmt.var not in names:
                names.append(stmt.var)
    return names
