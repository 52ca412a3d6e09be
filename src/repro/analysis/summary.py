"""One walk over a program: its functions, symmetric names and facts.

:func:`summarize` is the only place that collects ``HOW IZ I``
definitions and ``WE HAS A`` names; the scope checker, every CFG
analysis, the VM compiler and fuzz coverage read its result.  Nothing
is cached on the ``Program``: the fuzzer mutates ASTs in place.

* ``functions`` — every definition in walk order.  ``HOW IZ I`` binds
  its name when it runs (top-level ones are also hoisted), so a name
  may stand for different bodies at different call sites and a
  definition inside an ``O RLY?`` arm exists once the arm has run.
  Every body is therefore analysed, each with its own parameters.
* ``callees`` — name -> the *last* definition in walk order.  A call
  names no body, so call-site summaries (barrier counts, lock effects,
  remote accesses) need one; the last is the body the top-level hoist
  binds and the one every call after the final definition runs.
* ``remote_unwritten`` — symmetric names no statement stores to through
  ``UR``: no peer can change them mid-loop, so the VM vectorizer may
  hoist such a trip count.  ``epoch_local`` — symmetric names never
  accessed through ``UR`` at all.  An ``SRS`` store or ``UR SRS``
  access could alias any name, so it empties both sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import ast


@dataclass(frozen=True, slots=True)
class ProgramSummary:
    symmetric: frozenset[str]
    functions: tuple[ast.FuncDef, ...]
    callees: dict[str, ast.FuncDef]
    remote_unwritten: frozenset[str]
    epoch_local: frozenset[str]


def summarize(program: ast.Program) -> ProgramSummary:
    """Collect definitions, symmetric names and engine facts in one walk."""
    symmetric: set[str] = set()
    functions: list[ast.FuncDef] = []
    remote_written: set[str] = set()
    remote_touched: set[str] = set()
    dynamic = False
    for stmt in ast.walk_statements(program.body):
        if isinstance(stmt, ast.FuncDef):
            functions.append(stmt)
        elif isinstance(stmt, ast.VarDecl) and stmt.scope == "WE":
            symmetric.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.Gimmeh, ast.CastStmt)):
            target = stmt.target
            base = target.base if isinstance(target, ast.Index) else target
            if isinstance(base, ast.VarRef):
                if base.qualifier == "UR":
                    remote_written.add(base.name)
            elif isinstance(base, ast.SrsRef):
                dynamic = True
        for expr in ast.stmt_exprs(stmt):
            for sub in ast.walk_expr(expr):
                if isinstance(sub, ast.VarRef) and sub.qualifier == "UR":
                    remote_touched.add(sub.name)
                elif isinstance(sub, ast.SrsRef) and sub.qualifier == "UR":
                    dynamic = True  # could alias any name, any way
    unwritten: frozenset[str] = (
        frozenset() if dynamic else frozenset(symmetric - remote_written)
    )
    return ProgramSummary(
        symmetric=frozenset(symmetric),
        functions=tuple(functions),
        callees={func.name: func for func in functions},
        remote_unwritten=unwritten,
        epoch_local=unwritten - remote_touched,
    )
