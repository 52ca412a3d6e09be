"""One walk over a program: its functions, declarations and facts.

:func:`summarize` is the only place that collects ``HOW IZ I``
definitions and ``WE HAS A`` / ``I HAS A`` declarations; the scope
checker, every CFG analysis, the VM compiler, every executor's
symmetric plan, the C backend and fuzz coverage read its result.  Nothing is cached on
the ``Program``: the fuzzer mutates ASTs in place, so it calls
:func:`summarize` on each tree it builds.  Everything else starts from
source text and reads :func:`summarize_cached`, keyed like
:func:`~repro.lang.parser.parse_cached`, so a warm run walks nothing.
A summary carries the tree it describes (``program``): a consumer that
needs both reads the tree from there, never from a second parse.

* ``functions`` — every definition in walk order.  ``HOW IZ I`` binds
  its name when it runs (top-level ones are also hoisted), so a name
  may stand for different bodies at different call sites and a
  definition inside an ``O RLY?`` arm exists once the arm has run.
  Every body is therefore analysed, each with its own parameters.
* ``callees`` — name -> the *last* definition in walk order.  A call
  names no body, so call-site summaries (barrier counts, lock effects,
  remote accesses) need one; the last is the body the top-level hoist
  binds and the one every call after the final definition runs.
* ``declarations`` — every ``WE HAS A`` in walk order, function bodies
  included; :func:`symmetric_plan` lays them out for every executor
  (:func:`symmetric_plan_cached` per launch width).
* ``bindings`` — the binder's scope resolution
  (:func:`~repro.lang.resolve.bind`): what every name of the program
  means, for the checker, the VM compiler and the C backend.
* ``accesses`` — the access table (:class:`~.access.Accesses`): what
  every statement reads, writes and calls, keyed by binding, for the
  CFG analyses.
* ``remote_unwritten`` — symmetric names no statement stores to through
  ``UR``: no peer can change them mid-loop, so the VM vectorizer may
  hoist such a trip count.  An ``SRS`` store or ``UR SRS`` access could
  alias any name, so it empties the set.
* ``has_locks`` — whether any statement, reachable or not, is a lock
  statement: without one the lock analysis has nothing to report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..lang import ast
from ..lang.errors import LolParallelError
from ..lang.parser import parse_cached
from ..lang.resolve import Bindings, bind
from ..lang.types import parse_type, to_numbr
from ..shmem.heap import SymmetricPlan
from .access import ANY, Accesses


@dataclass(frozen=True, slots=True)
class ProgramSummary:
    program: ast.Program = field(repr=False, compare=False)
    functions: tuple[ast.FuncDef, ...]
    callees: dict[str, ast.FuncDef]
    declarations: tuple[ast.VarDecl, ...]
    bindings: Bindings = field(repr=False, compare=False)
    accesses: Accesses = field(repr=False, compare=False)
    remote_unwritten: frozenset[str]
    has_locks: bool


def is_symmetric(decl: ast.VarDecl) -> bool:
    """``WE HAS A`` (one object on every PE) rather than ``I HAS A``."""
    return decl.scope == "WE"


def summarize(program: ast.Program) -> ProgramSummary:
    """Collect definitions, declarations and engine facts in one walk."""
    bindings = bind(program)
    functions: list[ast.FuncDef] = []
    declarations: list[ast.VarDecl] = []
    callees: dict[str, ast.FuncDef] = {}  # read once the walk is done
    accesses = Accesses(bindings, callees)
    remote_written: set[str] = set()
    dynamic = False
    has_locks = False
    for stmt in ast.walk_statements(program.body):
        if isinstance(stmt, ast.FuncDef):
            functions.append(stmt)
            callees[stmt.name] = stmt
        elif isinstance(stmt, ast.VarDecl) and is_symmetric(stmt):
            declarations.append(stmt)
        elif isinstance(stmt, ast.LockStmt):
            has_locks = True
        uses = accesses.of(stmt)
        for access in (*uses.reads, *uses.writes):
            if access.binding is ANY:
                # could alias any name, any way
                dynamic = dynamic or access.write or access.remote
            elif access.write and access.remote:
                remote_written.add(access.binding.name)
    unwritten: frozenset[str] = (
        frozenset()
        if dynamic
        else frozenset(decl.name for decl in declarations) - remote_written
    )
    return ProgramSummary(
        program=program,
        functions=tuple(functions),
        callees=callees,
        declarations=tuple(declarations),
        bindings=bindings,
        accesses=accesses,
        remote_unwritten=unwritten,
        has_locks=has_locks,
    )


@lru_cache(maxsize=64)
def summarize_cached(source: str, filename: str = "<string>") -> ProgramSummary:
    """Memoized summary of ``parse_cached(source, filename)``; its
    ``program`` is the tree to use, not a later ``parse_cached`` call."""
    return summarize(parse_cached(source, filename))


def summary_of(tree: ast.Program | ProgramSummary) -> ProgramSummary:
    """``tree`` itself if it is already a summary, else its summary."""
    return tree if isinstance(tree, ProgramSummary) else summarize(tree)


def _fold(expr: ast.Expr, n_pes: int | None) -> object:
    # The interpreters' value semantics; imported here because the
    # interpreter package itself imports this module.
    from ..interp.values import binop, unop

    if isinstance(expr, (ast.IntLit, ast.FloatLit)):
        return expr.value
    if isinstance(expr, ast.FrenzExpr):
        return n_pes
    if isinstance(expr, ast.BinOp):
        lhs = _fold(expr.lhs, n_pes)
        rhs = _fold(expr.rhs, n_pes)
        if lhs is None or rhs is None:
            return None
        return binop(expr.op, lhs, rhs, expr.pos)
    if isinstance(expr, ast.UnaryOp):
        operand = _fold(expr.operand, n_pes)
        return None if operand is None else unop(expr.op, operand, expr.pos)
    return None


def const_eval(expr: ast.Expr, n_pes: int | None) -> int | None:
    """Fold an array extent to its element count, or ``None`` if it
    does not fold at compile time.

    Literals and their arithmetic fold, and so does ``MAH FRENZ`` when
    the launch width ``n_pes`` is known; ``ME``, variables and calls do
    not.  An extent that folds to a fraction like ``2.9`` is an error
    rather than 2 elements: executors that disagreed on a symmetric
    extent would corrupt the symmetric heap, not just the one array.
    """
    value = _fold(expr, n_pes)
    if value is None:
        return None
    if isinstance(value, float) and not value.is_integer():
        raise LolParallelError(
            f"array size must be an integer, but the size expression "
            f"folds to {value!r}",
            expr.pos,
        )
    return to_numbr(value, expr.pos)


def symmetric_plan(summary: ProgramSummary, n_pes: int | None) -> SymmetricPlan:
    """Lay out every ``WE HAS A`` of the program, reachable or not.

    This is the one copy of the symmetric-declaration rule, checked
    before any PE runs: a symmetric name must be typed; an array extent
    must fold (see :func:`const_eval`) — ``ME`` never folds, since
    per-PE extents would break the symmetric layout, exactly as in
    OpenSHMEM — to at least 1 element; redeclarations must agree on
    type, array-ness and extent, and their ``AN IM SHARIN IT`` flags OR
    together (:meth:`~repro.shmem.heap.SymmetricPlan.add`).  Then the
    program's bindings must hold no same-block retype
    (:meth:`~repro.lang.resolve.Bindings.check`): building the plan is
    how every engine refuses such a program before launch.  The plan
    is read-only.
    """
    plan = SymmetricPlan()
    for decl in summary.declarations:
        if decl.static_type is None:
            raise LolParallelError(
                f"symmetric variable '{decl.name}' must be typed "
                f"(WE HAS A {decl.name} ITZ SRSLY A <type> ...)",
                decl.pos,
            )
        size = 1
        if decl.is_array:
            extent = decl.size
            assert extent is not None  # the parser requires AN THAR IZ
            folded = const_eval(extent, n_pes)
            if folded is None:
                raise LolParallelError(
                    f"symmetric array '{decl.name}' needs a size that folds "
                    f"at compile time: literals, MAH FRENZ once the launch "
                    f"width is known, never ME (all PEs must allocate "
                    f"identically)",
                    extent.pos,
                )
            size = folded
        plan.add(
            decl.name,
            parse_type(decl.static_type, decl.pos),
            decl.is_array,
            size,
            decl.shared_lock,
            decl.pos,
        )
    summary.bindings.check()
    return plan.freeze()


@lru_cache(maxsize=64)
def symmetric_plan_cached(
    source: str, filename: str, n_pes: int
) -> SymmetricPlan:
    """Memoized :func:`symmetric_plan` of ``summarize_cached(source,
    filename)`` at launch width ``n_pes``: a warm launch plans nothing."""
    return symmetric_plan(summarize_cached(source, filename), n_pes)
