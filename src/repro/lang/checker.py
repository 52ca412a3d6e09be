"""Static checker (lint) for extended LOLCODE.

The paper positions LOLCODE as a *teaching* language; the mistakes
students actually make with the parallel extensions are statically
detectable, so ``lollint`` (and ``lcc --check``) run this pass and report:

========== ============================================================
code        diagnostic
========== ============================================================
``E001``    use of an undeclared variable
``E002``    assignment to an undeclared variable
``E003``    ``UR`` reference outside any ``TXT MAH BFF`` predication
``E004``    locking a variable not declared ``AN IM SHARIN IT``
``E005``    symmetric (``WE HAS A``) declaration without a type
``E006``    call to an undefined function / wrong arity
``E007``    indexing a scalar / scalar use of an array
``E008``    array index / PE target definitely out of range
``W101``    ``HUGZ`` not matched on every path of PE-divergent control
            (barrier mismatch deadlock)
``W102``    conflicting local/remote accesses to a symmetric symbol in
            one barrier epoch (the Figure 2 race, statically)
``W103``    lock acquired but possibly never released on some path
``W104``    declared variable never used
``W105``    blocking re-acquire of a lock that is already held
``W106``    lock acquired under a PE-divergent branch, not released
``W107``    array index / PE target possibly out of range
========== ============================================================

This module performs the scope/type pass (``E001``–``E007`` and
``W104``) by direct traversal; the parallel-correctness codes come from
the CFG + dataflow analyses in :mod:`repro.analysis` (path-sensitive —
a barrier under a *uniform* branch or a lock released on *every* path
no longer warns).  ``E``-codes are errors a run would surface
dynamically; ``W``-codes are conservative warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis import ProgramSummary, analyze_program
from ..analysis.summary import is_symmetric, summary_of
from ..analysis.diagnostics import Diagnostic, FixIt, sort_key
from . import ast
from .errors import SourcePos
from .parser import parse

__all__ = [
    "Diagnostic",
    "FixIt",
    "check_program",
    "check_source",
]


@dataclass(slots=True)
class _VarInfo:
    name: str
    pos: SourcePos
    symmetric: bool = False
    is_array: bool = False
    shared_lock: bool = False
    used: bool = False


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.vars: dict[str, _VarInfo] = {}
        self.parent = parent

    def declare(self, info: _VarInfo) -> None:
        self.vars[info.name] = info

    def find(self, name: str) -> Optional[_VarInfo]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return None

    def all_vars(self):
        yield from self.vars.values()


class Checker:
    """The scope/type pass: ``E001``–``E007`` and ``W104``."""

    def __init__(self, program: ast.Program, summary: ProgramSummary) -> None:
        self.program = program
        self.diags: list[Diagnostic] = []
        #: name -> parameter counts of every definition (each may be live)
        self.arities: dict[str, set[int]] = {}
        for func in summary.functions:
            self.arities.setdefault(func.name, set()).add(len(func.params))
        self.txt_depth = 0
        self._scopes_for_unused: list[_Scope] = []

    # -- public ------------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        root = _Scope()
        self._scopes_for_unused.append(root)
        self.check_block(self.program.body, root)
        for scope in self._scopes_for_unused:
            for info in scope.all_vars():
                if not info.used and not info.name.startswith("_"):
                    self._warn(
                        "W104",
                        f"variable '{info.name}' is declared but never used",
                        info.pos,
                    )
        self.diags.sort(key=sort_key)
        return self.diags

    # -- helpers -----------------------------------------------------------

    def _err(self, code: str, message: str, pos: SourcePos) -> None:
        self.diags.append(Diagnostic(code, message, pos))

    _warn = _err

    # -- statement traversal --------------------------------------------------

    def check_block(self, body: list[ast.Stmt], scope: _Scope) -> None:
        for stmt in body:
            self.check_stmt(stmt, scope)

    def _child(self, scope: _Scope) -> _Scope:
        child = _Scope(scope)
        self._scopes_for_unused.append(child)
        return child

    def check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.VarDecl):
            if is_symmetric(stmt) and stmt.static_type is None:
                self._err(
                    "E005",
                    f"symmetric variable '{stmt.name}' must be typed "
                    f"(ITZ SRSLY A <type>)",
                    stmt.pos,
                )
            if stmt.size is not None:
                self.check_expr(stmt.size, scope)
            if stmt.init is not None:
                self.check_expr(stmt.init, scope)
            scope.declare(
                _VarInfo(
                    stmt.name,
                    stmt.pos,
                    symmetric=is_symmetric(stmt),
                    is_array=stmt.is_array,
                    shared_lock=stmt.shared_lock,
                )
            )
        elif isinstance(stmt, ast.Assign):
            self.check_expr(stmt.value, scope)
            self.check_target(stmt.target, scope)
        elif isinstance(stmt, ast.CastStmt):
            self.check_target(stmt.target, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.Visible):
            for arg in stmt.args:
                self.check_expr(arg, scope)
        elif isinstance(stmt, ast.Gimmeh):
            self.check_target(stmt.target, scope)
        elif isinstance(stmt, ast.CanHas):
            pass
        elif isinstance(stmt, ast.If):
            self.check_branches(
                [stmt.ya_rly, *[b for _, b in stmt.mebbe], stmt.no_wai],
                [cond for cond, _ in stmt.mebbe],
                scope,
            )
        elif isinstance(stmt, ast.Switch):
            self.check_branches(
                [b for _, b in stmt.cases] + [stmt.default],
                [lit for lit, _ in stmt.cases],
                scope,
            )
        elif isinstance(stmt, ast.Loop):
            loop_scope = self._child(scope)
            if stmt.var is not None:
                loop_scope.declare(_VarInfo(stmt.var, stmt.pos))
                loop_scope.vars[stmt.var].used = True  # counters are fine
            if stmt.cond is not None:
                self.check_expr(stmt.cond, loop_scope)
            self.check_block(stmt.body, loop_scope)
        elif isinstance(stmt, ast.Gtfo):
            pass
        elif isinstance(stmt, ast.FuncDef):
            fscope = self._child(scope)
            for p in stmt.params:
                info = _VarInfo(p, stmt.pos)
                info.used = True
                fscope.declare(info)
            self.check_block(stmt.body, fscope)
        elif isinstance(stmt, ast.Return):
            self.check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.Hugz):
            pass  # barrier matching is the CFG analysis's job (W101)
        elif isinstance(stmt, ast.LockStmt):
            self.check_lock(stmt, scope)
        elif isinstance(stmt, ast.TxtStmt):
            self.check_expr(stmt.pe, scope)
            self.txt_depth += 1
            self.check_block(stmt.body, scope)
            self.txt_depth -= 1

    def check_branches(
        self,
        bodies: list[list[ast.Stmt]],
        conds: list[ast.Expr],
        scope: _Scope,
    ) -> None:
        for cond in conds:
            self.check_expr(cond, scope)
        for body in bodies:
            self.check_block(body, self._child(scope))

    def check_lock(self, stmt: ast.LockStmt, scope: _Scope) -> None:
        target = stmt.target
        if not isinstance(target, ast.VarRef):
            if isinstance(target, ast.SrsRef):
                self.check_expr(target.expr, scope)
            return  # SRS: dynamic, can't check the symbol statically
        info = scope.find(target.name)
        if info is None:
            self._err(
                "E001",
                f"lock on undeclared variable '{target.name}'",
                stmt.pos,
            )
            return
        info.used = True
        if not info.shared_lock:
            self._err(
                "E004",
                f"'{target.name}' has no lock: declare it with "
                f"'WE HAS A {target.name} ... AN IM SHARIN IT'",
                stmt.pos,
            )

    # -- expressions ----------------------------------------------------------

    def check_target(self, target: ast.Expr, scope: _Scope) -> None:
        if isinstance(target, ast.Index):
            self.check_expr(target.index, scope)
            base = target.base
            if isinstance(base, ast.VarRef):
                self._check_var(base, scope, is_write=True, indexed=True)
            return
        if isinstance(target, ast.VarRef):
            self._check_var(target, scope, is_write=True)
            return
        if isinstance(target, ast.SrsRef):
            self.check_expr(target.expr, scope)

    def check_expr(self, expr: ast.Expr, scope: _Scope) -> None:
        for sub in ast.walk_expr(expr):
            if isinstance(sub, ast.StringLit):
                # ``:{name}`` interpolations are reads: mark the
                # variable used (undeclared names surface at runtime,
                # not here — interpolation resolves dynamically).
                for part in sub.parts:
                    if isinstance(part, tuple):
                        info = scope.find(part[1])
                        if info is not None:
                            info.used = True
            elif isinstance(sub, ast.VarRef):
                self._check_var(sub, scope, is_write=False,
                                indexed=_is_index_base(expr, sub))
            elif isinstance(sub, ast.FuncCall):
                arities = self.arities.get(sub.name)
                if arities is None:
                    self._err(
                        "E006", f"no function named '{sub.name}'", sub.pos
                    )
                elif len(sub.args) not in arities:
                    wants = " or ".join(str(n) for n in sorted(arities))
                    self._err(
                        "E006",
                        f"function '{sub.name}' wants {wants} "
                        f"arguments, got {len(sub.args)}",
                        sub.pos,
                    )

    def _check_var(
        self,
        ref: ast.VarRef,
        scope: _Scope,
        *,
        is_write: bool,
        indexed: bool = False,
    ) -> None:
        if ref.qualifier == "UR" and self.txt_depth == 0:
            self._err(
                "E003",
                f"'UR {ref.name}' outside a TXT MAH BFF predicated "
                f"statement or block",
                ref.pos,
            )
        info = scope.find(ref.name)
        if info is None:
            code = "E002" if is_write else "E001"
            verb = "assignment to" if is_write else "use of"
            self._err(
                code,
                f"{verb} undeclared variable '{ref.name}' "
                f"(I HAS A {ref.name})",
                ref.pos,
            )
            return
        info.used = True
        if indexed and not info.is_array:
            self._err("E007", f"'{ref.name}' is not an array", ref.pos)


def _is_index_base(root: ast.Expr, ref: ast.VarRef) -> bool:
    for sub in ast.walk_expr(root):
        if isinstance(sub, ast.Index) and sub.base is ref:
            return True
    return False


def check_program(tree: ast.Program | ProgramSummary) -> list[Diagnostic]:
    """Scope/type pass plus the full CFG analysis stack, sorted.
    ``tree`` may be the program's summary; its tree is checked."""
    summary = summary_of(tree)
    diags = Checker(summary.program, summary).run()
    diags.extend(analyze_program(summary))
    diags.sort(key=sort_key)
    return diags


def check_source(source: str, filename: str = "<string>") -> list[Diagnostic]:
    return check_program(parse(source, filename))
