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


@dataclass(slots=True)
class FunctionInfo:
    name: str
    params: list[str]
    node: ast.FuncDef
    locals: dict[str, SymbolInfo] = field(default_factory=dict)


@dataclass
class SymbolTable:
    globals: dict[str, SymbolInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    uses_random: bool = False
    uses_gimmeh: bool = False
    libraries: list[str] = field(default_factory=list)


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
            for expr in ast.stmt_exprs(stmt):
                for sub in ast.walk_expr(expr):
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
