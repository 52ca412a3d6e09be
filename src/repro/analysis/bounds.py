"""Constant-fold / interval analysis over indices and PE targets.

The value domain is affine in the SPMD parameters:

* ``Aff(me, np, c)`` — exactly ``me*ME + np*NP + c`` (``NP`` is
  ``MAH FRENZ``), so neighbour math like ``DIFF OF ME AN 1`` stays
  symbolic;
* ``Rng(lo, hi)`` — an interval whose bounds are :class:`Lin` forms
  ``np*NP + c`` (``ME`` is eliminated through the current refined
  ``ME``-range, which starts at ``[0, NP-1]``);
* ``None`` — unknown.

The walk is *path-refining*: ``O RLY?`` arms guarded by comparisons on
``ME`` (or on a variable holding an affine value) narrow the ranges, so
the canonical guarded halo exchange

.. code-block:: text

    BIGGER ME AN 0
    O RLY?  YA RLY, TXT MAH BFF up, ...  OIC

verifies (``up = ME-1 ∈ [0, NP-2]`` inside the arm).  Quantification is
over every world size ``NP >= 1``: a bound like ``NP-2`` is accepted
against ``NP-1`` because ``NP-2 <= NP-1`` for all ``NP``.

Diagnostics: ``E008`` for *definitely* out-of-range indices / PE
targets (provably outside for every ``NP``), ``W107`` when a fully
bounded range cannot be proven in-range.  Unknown or half-bounded
values stay silent — this keeps data-dependent kernels (tree reduction
strides, random histogram bins) quiet by construction.

As a side product the walk annotates every array access with its
:class:`Rng` (``BoundsResult.index_ranges``), which the barrier-epoch
race analysis uses for disjointness proofs on halo patterns.  The
environment and the array extents are keyed by binding
(:mod:`repro.lang.resolve`), so a shadowing declaration never
clobbers the variable it hides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..lang import ast
from ..lang.errors import SourcePos
from ..lang.resolve import Binding
from .diagnostics import Diagnostic
from .summary import ProgramSummary

# ---------------------------------------------------------------------------
# The domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Lin:
    """``np*NP + c`` with integer coefficients."""

    np: int
    c: int

    def __add__(self, other: "Lin") -> "Lin":
        return Lin(self.np + other.np, self.c + other.c)

    def __sub__(self, other: "Lin") -> "Lin":
        return Lin(self.np - other.np, self.c - other.c)

    def scale(self, k: int) -> "Lin":
        return Lin(self.np * k, self.c * k)

    def shift(self, k: int) -> "Lin":
        return Lin(self.np, self.c + k)


def lin_le(a: Lin, b: Lin) -> bool:
    """``a <= b`` for every ``NP >= 1``?"""
    d = b - a
    return d.np >= 0 and d.np + d.c >= 0


def lin_lt(a: Lin, b: Lin) -> bool:
    return lin_le(a.shift(1), b)


def lin_max(a: Lin, b: Lin) -> Optional[Lin]:
    if lin_le(a, b):
        return b
    if lin_le(b, a):
        return a
    return None


def lin_min(a: Lin, b: Lin) -> Optional[Lin]:
    if lin_le(a, b):
        return a
    if lin_le(b, a):
        return b
    return None


@dataclass(frozen=True, slots=True)
class Aff:
    """``me*ME + np*NP + c`` exactly."""

    me: int
    np: int
    c: int

    @property
    def is_const(self) -> bool:
        return self.me == 0 and self.np == 0

    def lin(self) -> Optional[Lin]:
        return Lin(self.np, self.c) if self.me == 0 else None


@dataclass(frozen=True, slots=True)
class Rng:
    """Interval with optional (``None`` = unbounded) :class:`Lin` bounds."""

    lo: Optional[Lin]
    hi: Optional[Lin]

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None


Value = Union[Aff, Rng, None]

FULL = Rng(None, None)


def const(v: int) -> Aff:
    return Aff(0, 0, v)


def rng_of(value: Value, me: tuple[Lin, Lin]) -> Rng:
    """Eliminate ``ME`` from a value using the current ``ME``-range."""
    if value is None:
        return FULL
    if isinstance(value, Rng):
        return value
    me_lo, me_hi = me
    base = Lin(value.np, value.c)
    if value.me == 0:
        return Rng(base, base)
    if value.me > 0:
        return Rng(
            me_lo.scale(value.me) + base, me_hi.scale(value.me) + base
        )
    return Rng(me_hi.scale(value.me) + base, me_lo.scale(value.me) + base)


def ranges_may_overlap(a: Optional[Rng], b: Optional[Rng]) -> bool:
    """May two index ranges touch the same element (any ``NP >= 1``)?"""
    if a is None or b is None:
        return True
    if a.hi is not None and b.lo is not None and lin_lt(a.hi, b.lo):
        return False
    if b.hi is not None and a.lo is not None and lin_lt(b.hi, a.lo):
        return False
    return True


def _add_vals(a: Value, b: Value, me: tuple[Lin, Lin], sign: int) -> Value:
    if isinstance(a, Aff) and isinstance(b, Aff):
        return Aff(a.me + sign * b.me, a.np + sign * b.np, a.c + sign * b.c)
    ra, rb = rng_of(a, me), rng_of(b, me)
    if sign < 0:
        rb = Rng(
            rb.hi.scale(-1) if rb.hi is not None else None,
            rb.lo.scale(-1) if rb.lo is not None else None,
        )
    lo = ra.lo + rb.lo if ra.lo is not None and rb.lo is not None else None
    hi = ra.hi + rb.hi if ra.hi is not None and rb.hi is not None else None
    if lo is None and hi is None:
        return None
    return Rng(lo, hi)


def _mul_vals(a: Value, b: Value, me: tuple[Lin, Lin]) -> Value:
    # only scaling by a known constant is modelled
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Aff) and x.is_const:
            k = x.c
            if isinstance(y, Aff):
                return Aff(y.me * k, y.np * k, y.c * k)
            r = rng_of(y, me)
            if k == 0:
                return const(0)
            lo = r.lo.scale(k) if r.lo is not None else None
            hi = r.hi.scale(k) if r.hi is not None else None
            if k < 0:
                lo, hi = hi, lo
            if lo is None and hi is None:
                return None
            return Rng(lo, hi)
    return None


def _mod_vals(a: Value, b: Value) -> Value:
    # Python-style % with a positive divisor lands in [0, divisor-1]
    if isinstance(b, Aff) and b.me == 0:
        d = Lin(b.np, b.c)
        if lin_le(Lin(0, 1), d):  # divisor >= 1 for every NP
            return Rng(Lin(0, 0), d.shift(-1))
    return None


def _meet(a: Value, b: Value, me: tuple[Lin, Lin]) -> Value:
    if a is None:
        return b
    if b is None:
        return a
    if isinstance(a, Aff) and isinstance(b, Aff):
        return a  # equal or dead path; keep the existing fact
    ra, rb = rng_of(a, me), rng_of(b, me)
    lo = ra.lo if rb.lo is None else (rb.lo if ra.lo is None else None)
    if ra.lo is not None and rb.lo is not None:
        lo = lin_max(ra.lo, rb.lo) or ra.lo
    hi = ra.hi if rb.hi is None else (rb.hi if ra.hi is None else None)
    if ra.hi is not None and rb.hi is not None:
        hi = lin_min(ra.hi, rb.hi) or ra.hi
    if isinstance(a, Aff) and a.me != 0:
        return a  # keep the exact ME-form over a coarser interval
    return Rng(lo, hi)


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BoundsResult:
    diags: list[Diagnostic]
    #: id(ast.Index) -> element range of the access (None = unknown)
    index_ranges: dict[int, Optional[Rng]]


_ME_FULL: tuple[Lin, Lin] = (Lin(0, 0), Lin(1, -1))


class BoundsAnalyzer:
    def __init__(self, program: ast.Program, summary: ProgramSummary) -> None:
        self.program = program
        self.summary = summary
        self.bindings = summary.bindings
        self.accesses = summary.accesses
        self.diags: list[Diagnostic] = []
        self._seen: set[tuple[str, int, int, str]] = set()
        self.env: dict[Binding, Value] = {}
        self.me: tuple[Lin, Lin] = _ME_FULL
        #: array binding -> its extent
        self.sizes: dict[Binding, Value] = {}
        self.index_ranges: dict[int, Optional[Rng]] = {}
        self._last_it: Optional[ast.Expr] = None

    def run(self) -> BoundsResult:
        self._body(self.program.body)
        for func in self.summary.functions:
            self.env = {}
            self.me = _ME_FULL
            self._last_it = None
            self._body(func.body)
        return BoundsResult(self.diags, self.index_ranges)

    # -- reporting -----------------------------------------------------

    def _report(self, code: str, message: str, pos: SourcePos) -> None:
        key = (code, pos.line, pos.col, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.diags.append(Diagnostic(code, message, pos))

    # -- expression evaluation (with access checking) ------------------

    def eval(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.IntLit):
            return const(expr.value)
        if isinstance(expr, ast.TroofLit):
            return const(1 if expr.value else 0)
        if isinstance(expr, ast.MeExpr):
            return Aff(1, 0, 0)
        if isinstance(expr, ast.FrenzExpr):
            return Aff(0, 1, 0)
        if isinstance(expr, ast.VarRef):
            b = self.bindings.of(expr)
            if expr.qualifier == "UR" or b is None:
                return None
            return self.env.get(b)
        if isinstance(expr, ast.Index):
            self._check_index(expr)
            return None
        if isinstance(expr, ast.BinOp):
            lhs = self.eval(expr.lhs)
            rhs = self.eval(expr.rhs)
            if expr.op == "add":
                return _add_vals(lhs, rhs, self.me, 1)
            if expr.op == "sub":
                return _add_vals(lhs, rhs, self.me, -1)
            if expr.op == "mul":
                return _mul_vals(lhs, rhs, self.me)
            if expr.op == "mod":
                return _mod_vals(lhs, rhs)
            return None
        if isinstance(expr, ast.UnaryOp):
            self.eval(expr.operand)
            return None
        if isinstance(expr, ast.NaryOp):
            for op in expr.operands:
                self.eval(op)
            return None
        if isinstance(expr, ast.Cast):
            inner = self.eval(expr.expr)
            if expr.to_type == "NUMBR" and isinstance(inner, (Aff, Rng)):
                return inner  # already integral in the domain
            return None
        if isinstance(expr, ast.SrsRef):
            self.eval(expr.expr)
            return None
        if isinstance(expr, ast.FuncCall):
            for a in expr.args:
                self.eval(a)
            return None
        return None  # literals/It/Random: unknown or uninteresting

    # -- access checks -------------------------------------------------

    def _check_index(self, node: ast.Index) -> None:
        value = self.eval(node.index)
        rng = rng_of(value, self.me)
        self.index_ranges[id(node)] = rng if rng != FULL else None
        base = node.base
        if not isinstance(base, ast.VarRef):
            return
        array = self.bindings.of(base)
        size = self.sizes.get(array) if array is not None else None
        if not isinstance(size, Aff) or size.me != 0:
            return
        limit = Lin(size.np, size.c - 1)  # size - 1
        self._check_range(
            rng,
            limit,
            node.pos,
            what=f"index into '{base.name}'",
            bound=f"0..{_fmt_lin(limit)}",
        )

    def _check_pe_target(self, stmt: ast.TxtStmt) -> None:
        value = self.eval(stmt.pe)
        rng = rng_of(value, self.me)
        limit = Lin(1, -1)  # MAH FRENZ - 1
        self._check_range(
            rng,
            limit,
            stmt.pos,
            what="TXT MAH BFF target PE",
            bound="0..MAH FRENZ-1",
        )

    def _check_range(
        self,
        rng: Rng,
        limit: Lin,
        pos: SourcePos,
        *,
        what: str,
        bound: str,
    ) -> None:
        zero = Lin(0, 0)
        lo_ok = rng.lo is not None and lin_le(zero, rng.lo)
        hi_ok = rng.hi is not None and lin_le(rng.hi, limit)
        if lo_ok and hi_ok:
            return
        # definitely out: the whole range below 0 or above the limit
        if rng.hi is not None and lin_lt(rng.hi, zero):
            self._report(
                "E008", f"{what} is always negative (valid: {bound})", pos
            )
            return
        if rng.lo is not None and lin_lt(limit, rng.lo):
            self._report(
                "E008",
                f"{what} is always past the end (valid: {bound})",
                pos,
            )
            return
        if rng.bounded:
            self._report(
                "W107",
                f"{what} may be out of range "
                f"({_fmt_rng(rng)}; valid: {bound})",
                pos,
            )

    # -- statements ----------------------------------------------------

    def _body(self, body: list[ast.Stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            size = self.eval(stmt.size) if stmt.size is not None else None
            init = self.eval(stmt.init) if stmt.init is not None else None
            b = self.bindings.of(stmt)
            assert b is not None
            if stmt.is_array:
                self.sizes[b] = size
            self.env[b] = init if not stmt.is_array else None
        elif isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            target = stmt.target
            if isinstance(target, ast.Index):
                self._check_index(target)
            elif isinstance(target, ast.VarRef):
                b = self.bindings.of(target)
                if target.qualifier != "UR" and b is not None:
                    self.env[b] = value
            elif isinstance(target, ast.SrsRef):
                self.eval(target.expr)
                self.env = {k: None for k in self.env}  # dynamic write
        elif isinstance(stmt, ast.CastStmt):
            b = self.bindings.of(stmt.target)
            if b is not None and stmt.to_type != "NUMBR":
                self.env[b] = None
        elif isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr)
            self._last_it = stmt.expr
        elif isinstance(stmt, ast.Visible):
            for arg in stmt.args:
                self.eval(arg)
        elif isinstance(stmt, ast.Gimmeh):
            if isinstance(stmt.target, ast.VarRef):
                b = self.bindings.of(stmt.target)
                if b is not None:
                    self.env[b] = None
            elif isinstance(stmt.target, ast.Index):
                self._check_index(stmt.target)
        elif isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, ast.Switch):
            self._switch(stmt)
        elif isinstance(stmt, ast.Loop):
            self._loop(stmt)
        elif isinstance(stmt, ast.Return):
            self.eval(stmt.expr)
        elif isinstance(stmt, ast.LockStmt):
            if stmt.kind == "trylock":
                self._last_it = None
        elif isinstance(stmt, ast.TxtStmt):
            self._check_pe_target(stmt)
            self._body(stmt.body)
        # Hugz / CanHas / Gtfo / FuncDef: no value effect here

    def _snapshot(self) -> tuple[dict[Binding, Value], tuple[Lin, Lin]]:
        return dict(self.env), self.me

    def _restore(
        self, snap: tuple[dict[Binding, Value], tuple[Lin, Lin]]
    ) -> None:
        self.env, self.me = dict(snap[0]), snap[1]

    def _join_envs(self, snaps: list[dict[Binding, Value]]) -> None:
        out: dict[Binding, Value] = {}
        for name in set().union(*[set(s) for s in snaps]) if snaps else set():
            vals = [s.get(name) for s in snaps]
            out[name] = vals[0] if all(v == vals[0] for v in vals) else None
        self.env = out

    def _if(self, stmt: ast.If) -> None:
        it_cond = self._last_it
        self._last_it = None
        base = self._snapshot()
        arm_envs: list[dict[Binding, Value]] = []
        # YA RLY — refined by the IT condition being truthy
        if it_cond is not None:
            self._refine(it_cond, True)
        self._body(stmt.ya_rly)
        arm_envs.append(self.env)
        for cond, body in stmt.mebbe:
            self._restore(base)
            self.eval(cond)
            self._refine(cond, True)
            self._body(body)
            arm_envs.append(self.env)
        self._restore(base)
        if it_cond is not None and not stmt.mebbe:
            self._refine(it_cond, False)
        self._body(stmt.no_wai)
        arm_envs.append(self.env)
        self.me = base[1]
        self._join_envs(arm_envs)

    def _switch(self, stmt: ast.Switch) -> None:
        self._last_it = None
        base = self._snapshot()
        arm_envs: list[dict[Binding, Value]] = []
        for lit, body in stmt.cases:
            self._restore(base)
            self.eval(lit)
            self._body(body)
            arm_envs.append(self.env)
        self._restore(base)
        self._body(stmt.default)
        arm_envs.append(self.env)
        self.me = base[1]
        self._join_envs(arm_envs)

    def _loop(self, stmt: ast.Loop) -> None:
        self._last_it = None
        counter = self.bindings.of(stmt)
        body_assigned = {
            access.binding
            for sub in ast.walk_statements(stmt.body)
            for access in self.accesses.of(sub).writes
        }
        assigned = set(body_assigned)
        if counter is not None:
            assigned.add(counter)
        for b in assigned:
            if b in self.env:
                self.env[b] = None
        # counted-loop trip range: UPPIN from 0 against an affine limit
        if (
            counter is not None
            and counter not in body_assigned
            and stmt.op == "UPPIN"
            and stmt.cond is not None
            and isinstance(stmt.cond, ast.BinOp)
        ):
            cond = stmt.cond
            limit: Value = None
            if (
                stmt.cond_kind == "TIL"
                and cond.op == "eq"
                or stmt.cond_kind == "WILE"
                and cond.op == "lt"
            ):
                if (
                    isinstance(cond.lhs, ast.VarRef)
                    and self.bindings.of(cond.lhs) is counter
                ):
                    limit = self.eval(cond.rhs)
            if limit is not None:
                hi = rng_of(limit, self.me).hi
                if hi is not None:
                    self.env[counter] = Rng(Lin(0, 0), hi.shift(-1))
        base_me = self.me
        self._body(stmt.body)
        self.me = base_me
        for b in assigned:
            self.env[b] = None
        self._last_it = None

    # -- refinement ----------------------------------------------------

    def _refine(self, cond: ast.Expr, truthy: bool) -> None:
        if isinstance(cond, ast.UnaryOp) and cond.op == "not":
            self._refine(cond.operand, not truthy)
            return
        if isinstance(cond, ast.BinOp):
            if cond.op == "and" and truthy:
                self._refine(cond.lhs, True)
                self._refine(cond.rhs, True)
                return
            if cond.op == "or" and not truthy:
                self._refine(cond.lhs, False)
                self._refine(cond.rhs, False)
                return
            if cond.op in ("eq", "ne", "gt", "lt"):
                self._refine_cmp(cond, truthy)

    def _refine_cmp(self, cond: ast.BinOp, truthy: bool) -> None:
        op = cond.op
        if op == "ne":
            op, truthy = "eq", not truthy
        if op == "eq" and not truthy:
            return  # != gives no interval information here
        for lhs, rhs, swapped in (
            (cond.lhs, cond.rhs, False),
            (cond.rhs, cond.lhs, True),
        ):
            if not _refinable(lhs):
                continue
            bound = self.eval(rhs)
            if bound is None:
                continue
            br = rng_of(bound, self.me)
            eff = op
            if swapped and op in ("gt", "lt"):
                eff = "lt" if op == "gt" else "gt"
            if not truthy:
                eff = {"gt": "le", "lt": "ge", "eq": "eq"}[eff]
            else:
                eff = {"gt": "gt", "lt": "lt", "eq": "eq"}[eff]
            self._apply_bound(lhs, eff, br)
            return

    def _apply_bound(self, target: ast.Expr, op: str, bound: Rng) -> None:
        # the refined interval for `target` implied by `target <op> bound`
        lo: Optional[Lin] = None
        hi: Optional[Lin] = None
        if op == "eq":
            lo, hi = bound.lo, bound.hi
        elif op == "gt":  # target > bound  =>  target >= bound.lo + 1
            lo = bound.lo.shift(1) if bound.lo is not None else None
        elif op == "ge":
            lo = bound.lo
        elif op == "lt":  # target < bound  =>  target <= bound.hi - 1
            hi = bound.hi.shift(-1) if bound.hi is not None else None
        elif op == "le":
            hi = bound.hi
        if lo is None and hi is None:
            return
        new = Rng(lo, hi)
        if isinstance(target, ast.MeExpr):
            cur_lo, cur_hi = self.me
            if lo is not None:
                cur_lo = lin_max(cur_lo, lo) or lo
            if hi is not None:
                cur_hi = lin_min(cur_hi, hi) or hi
            self.me = (cur_lo, cur_hi)
        elif isinstance(target, ast.VarRef) and target.qualifier != "UR":
            b = self.bindings.of(target)
            if b is not None:
                self.env[b] = _meet(self.env.get(b), new, self.me)


def _refinable(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.MeExpr) or (
        isinstance(expr, ast.VarRef) and expr.qualifier != "UR"
    )


def _fmt_lin(lin: Lin) -> str:
    if lin.np == 0:
        return str(lin.c)
    npart = "MAH FRENZ" if lin.np == 1 else f"{lin.np}*MAH FRENZ"
    if lin.c == 0:
        return npart
    return f"{npart}{lin.c:+d}"


def _fmt_rng(rng: Rng) -> str:
    lo = _fmt_lin(rng.lo) if rng.lo is not None else "-inf"
    hi = _fmt_lin(rng.hi) if rng.hi is not None else "+inf"
    return f"range {lo}..{hi}"


def analyze_bounds(
    program: ast.Program, summary: ProgramSummary
) -> BoundsResult:
    return BoundsAnalyzer(program, summary).run()
