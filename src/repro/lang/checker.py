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
``E009``    same-block redeclaration that changes type or array-ness
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

This module performs the scope/type pass (``E001``–``E007``, ``E009``
and ``W104``) by one traversal that reads every name's binding off the
binder (:func:`~repro.lang.resolve.bind`, cached on the program
summary); the parallel-correctness codes come from
the CFG + dataflow analyses in :mod:`repro.analysis` (path-sensitive —
a barrier under a *uniform* branch or a lock released on *every* path
no longer warns).  ``E``-codes are errors a run would surface
dynamically; ``W``-codes are conservative warnings.
"""

from __future__ import annotations

from ..analysis import ProgramSummary, analyze_program
from ..analysis.summary import is_symmetric, summary_of
from ..analysis.diagnostics import Diagnostic, FixIt, sort_key
from . import ast
from .errors import SourcePos
from .parser import parse
from .resolve import retype_message

__all__ = [
    "Diagnostic",
    "FixIt",
    "check_program",
    "check_source",
]


class Checker:
    """The scope/type pass: ``E001``–``E007``, ``E009`` and ``W104``,
    read off the binder's result (:mod:`repro.lang.resolve`)."""

    def __init__(self, program: ast.Program, summary: ProgramSummary) -> None:
        self.program = program
        self.bindings = summary.bindings
        self.diags: list[Diagnostic] = []
        #: name -> parameter counts of every definition (each may be live)
        self.arities: dict[str, set[int]] = {}
        for func in summary.functions:
            self.arities.setdefault(func.name, set()).add(len(func.params))
        self.txt_depth = 0

    # -- public ------------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        self.check_block(self.program.body)
        for decl, prev in self.bindings.conflicts:
            self._err("E009", retype_message(decl, prev), decl.pos)
        for b in self.bindings.all:
            if not b.used and not b.name.startswith("_"):
                self._warn(
                    "W104", f"variable '{b.name}' is declared but never used", b.pos
                )
        self.diags.sort(key=sort_key)
        return self.diags

    # -- helpers -----------------------------------------------------------

    def _err(self, code: str, message: str, pos: SourcePos) -> None:
        self.diags.append(Diagnostic(code, message, pos))

    _warn = _err

    # -- statement traversal --------------------------------------------------

    def check_block(self, body: list[ast.Stmt]) -> None:
        for stmt in body:
            self.check_stmt(stmt)

    def check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            if is_symmetric(stmt) and stmt.static_type is None:
                self._err(
                    "E005",
                    f"symmetric variable '{stmt.name}' must be typed "
                    f"(ITZ SRSLY A <type>)",
                    stmt.pos,
                )
            for expr in ast.stmt_exprs(stmt):
                self.check_expr(expr)
        elif isinstance(stmt, (ast.Assign, ast.CastStmt, ast.Gimmeh)):
            if isinstance(stmt, ast.Assign):
                self.check_expr(stmt.value)
            self.check_target(stmt.target)
        elif isinstance(stmt, ast.LockStmt):
            self.check_lock(stmt)
        elif isinstance(stmt, ast.TxtStmt):
            self.check_expr(stmt.pe)
            self.txt_depth += 1
            self.check_block(stmt.body)
            self.txt_depth -= 1
        else:
            # barrier matching is the CFG analysis's job (W101)
            for expr in ast.stmt_exprs(stmt):
                self.check_expr(expr)
            for body in ast.child_statements(stmt):
                self.check_block(body)

    def check_lock(self, stmt: ast.LockStmt) -> None:
        target = stmt.target
        if not isinstance(target, ast.VarRef):
            self.check_expr(target.expr)
            return  # SRS: dynamic, can't check the symbol statically
        b = self.bindings.of(target)
        if b is None:
            self._err(
                "E001",
                f"lock on undeclared variable '{target.name}'",
                stmt.pos,
            )
        elif not b.shared_lock:
            self._err(
                "E004",
                f"'{target.name}' has no lock: declare it with "
                f"'WE HAS A {target.name} ... AN IM SHARIN IT'",
                stmt.pos,
            )

    # -- expressions ----------------------------------------------------------

    def check_target(self, target: ast.Expr) -> None:
        if isinstance(target, ast.Index):
            self.check_expr(target.index)
            base = target.base
            if isinstance(base, ast.VarRef):
                self._check_var(base, is_write=True, indexed=True)
            return
        if isinstance(target, ast.VarRef):
            self._check_var(target, is_write=True)
            return
        if isinstance(target, ast.SrsRef):
            self.check_expr(target.expr)

    def check_expr(self, expr: ast.Expr) -> None:
        subs = list(ast.walk_expr(expr))
        bases = {id(sub.base) for sub in subs if type(sub) is ast.Index}
        for sub in subs:
            if isinstance(sub, ast.VarRef):
                self._check_var(sub, is_write=False, indexed=id(sub) in bases)
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
        self, ref: ast.VarRef, *, is_write: bool, indexed: bool = False
    ) -> None:
        if ref.qualifier == "UR" and self.txt_depth == 0:
            self._err(
                "E003",
                f"'UR {ref.name}' outside a TXT MAH BFF predicated "
                f"statement or block",
                ref.pos,
            )
        b = self.bindings.of(ref)
        if b is None:
            code = "E002" if is_write else "E001"
            verb = "assignment to" if is_write else "use of"
            self._err(
                code,
                f"{verb} undeclared variable '{ref.name}' "
                f"(I HAS A {ref.name})",
                ref.pos,
            )
        elif indexed and not b.is_array:
            self._err("E007", f"'{ref.name}' is not an array", ref.pos)


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
