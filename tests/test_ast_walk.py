"""The shared AST walkers reach every expression node.

``walk_statements`` + ``stmt_exprs`` + ``walk_expr`` are the one
traversal the checker, the static analyses, the C symbol table and the
fuzzer all use.  The reference here is built by ``dataclasses.fields``
reflection, so a field added to a node in ``lang/ast.py`` and missed by
the walkers fails this test instead of being skipped silently by every
analysis at once.
"""

from __future__ import annotations

import dataclasses
import pathlib
import typing

from repro.fuzz.grammar import generate_program
from repro.lang import ast
from repro.lang.parser import parse

REPO = pathlib.Path(__file__).resolve().parent.parent

_EXPR_TYPES = typing.get_args(ast.Expr)


def _reflected_exprs(value: object, out: list[ast.Expr]) -> None:
    if isinstance(value, ast.Node):
        if isinstance(value, _EXPR_TYPES):
            out.append(value)
        for f in dataclasses.fields(value):
            _reflected_exprs(getattr(value, f.name), out)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _reflected_exprs(item, out)


def _walked_exprs(program: ast.Program) -> list[ast.Expr]:
    return [
        sub
        for stmt in ast.walk_statements(program.body)
        for root in ast.stmt_exprs(stmt)
        for sub in ast.walk_expr(root)
    ]


def test_shared_walkers_reach_every_expression():
    programs = [
        (str(path.relative_to(REPO)), parse(path.read_text()))
        for pattern in ("examples/lol/*.lol", "tests/golden/analysis/*.lol")
        for path in sorted(REPO.glob(pattern))
    ]
    programs += [(f"seed {s}", generate_program(s)) for s in range(200)]
    assert len(programs) > 200
    for label, program in programs:
        reference: list[ast.Expr] = []
        _reflected_exprs(program, reference)
        assert reference, label
        walked = _walked_exprs(program)
        assert sorted(map(id, walked)) == sorted(map(id, reference)), label
