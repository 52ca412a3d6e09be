"""Whole-program facts exported to the execution engines.

:class:`ProgramFacts` is the read side of the static analyses: engines
may consult it to *enable* optimisations that are only sound under a
proven property, never to change semantics.

* ``remote_unwritten`` — symmetric symbols that no statement ever
  stores to through a ``UR`` reference (and no dynamic ``SRS`` store
  could alias).  A read of such a symbol on the owning PE can be
  hoisted out of a loop: no peer can change it mid-loop, so one read
  standing for *n* reads is a valid interleaving even with the race
  detector on.  The VM vectorizer uses this to admit ``LOOP_VEC``
  plans whose trip count is a symmetric scalar (``TIL BOTH SAEM i AN
  n`` with ``WE HAS A n``), which previously bailed.
* ``epoch_local`` — symmetric symbols never accessed through ``UR`` at
  all (neither read nor written remotely).  They behave like private
  variables; diagnostics and engines can ignore them for communication
  purposes.

Any ``SRS``-qualified store (a computed lvalue) conservatively clears
``remote_unwritten`` — the store's target name is unknown, so every
symmetric symbol must be assumed written.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import ast


@dataclass(frozen=True, slots=True)
class ProgramFacts:
    remote_unwritten: frozenset[str] = frozenset()
    epoch_local: frozenset[str] = frozenset()


def _store_target(stmt: ast.Stmt) -> ast.Expr | None:
    if isinstance(stmt, ast.Assign):
        return stmt.target
    if isinstance(stmt, (ast.Gimmeh, ast.CastStmt)):
        return stmt.target
    return None


def compute_facts(program: ast.Program) -> ProgramFacts:
    symmetric = {
        s.name
        for s in ast.walk_statements(program.body)
        if isinstance(s, ast.VarDecl) and s.scope == "WE"
    }
    remote_written: set[str] = set()
    remote_touched: set[str] = set()
    dynamic_store = False
    for stmt in ast.walk_statements(program.body):
        target = _store_target(stmt)
        if target is not None:
            base = target.base if isinstance(target, ast.Index) else target
            if isinstance(base, ast.VarRef):
                if base.qualifier == "UR":
                    remote_written.add(base.name)
            elif isinstance(base, ast.SrsRef):
                dynamic_store = True
        for expr in ast.stmt_exprs(stmt):
            for sub in ast.walk_expr(expr):
                if isinstance(sub, ast.VarRef) and sub.qualifier == "UR":
                    remote_touched.add(sub.name)
                elif isinstance(sub, ast.SrsRef) and sub.qualifier == "UR":
                    dynamic_store = True  # could alias any name, any way
    if dynamic_store:
        return ProgramFacts(frozenset(), frozenset())
    return ProgramFacts(
        frozenset(symmetric - remote_written),
        frozenset(symmetric - remote_touched - remote_written),
    )
