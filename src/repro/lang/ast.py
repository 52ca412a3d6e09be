"""Abstract syntax tree for extended LOLCODE.

Every node carries a :class:`~repro.lang.errors.SourcePos` for diagnostics.
The AST is deliberately plain (frozen-free dataclasses, no behaviour) so it
can be walked by the interpreters, the C compiler backend, the formatter,
and the symmetric-allocation planner without coupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .errors import SourcePos

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Node:
    pos: SourcePos = field(default_factory=SourcePos, kw_only=True, compare=False)


@dataclass(slots=True)
class IntLit(Node):
    value: int


@dataclass(slots=True)
class FloatLit(Node):
    value: float


@dataclass(slots=True)
class StringLit(Node):
    """String literal.

    ``parts`` interleaves plain ``str`` segments with ``("interp", name)``
    tuples produced by ``:{name}`` interpolation escapes.
    """

    parts: list[object]

    def is_plain(self) -> bool:
        return all(isinstance(p, str) for p in self.parts)

    def plain_text(self) -> str:
        assert self.is_plain()
        return "".join(self.parts)  # type: ignore[arg-type]


@dataclass(slots=True)
class TroofLit(Node):
    value: bool  # WIN / FAIL


@dataclass(slots=True)
class NoobLit(Node):
    pass


@dataclass(slots=True)
class VarRef(Node):
    """A variable reference, optionally qualified for PGAS addressing.

    ``qualifier`` is ``None`` (unqualified), ``"UR"`` (remote address
    space of the predicated PE) or ``"MAH"`` (explicitly local).
    """

    name: str
    qualifier: Optional[str] = None


@dataclass(slots=True)
class SrsRef(Node):
    """``SRS <expr>`` — interpret a YARN value as an identifier."""

    expr: "Expr"
    qualifier: Optional[str] = None


@dataclass(slots=True)
class Index(Node):
    """Array element access ``base'Z index`` (paper Table II)."""

    base: Union[VarRef, SrsRef]
    index: "Expr"


@dataclass(slots=True)
class ItRef(Node):
    """The implicit ``IT`` variable holding the last bare expression value."""


@dataclass(slots=True)
class MeExpr(Node):
    """``ME`` — the PE id of the executing thread (Table II)."""


@dataclass(slots=True)
class FrenzExpr(Node):
    """``MAH FRENZ`` — total number of PEs (Table II)."""


@dataclass(slots=True)
class RandomExpr(Node):
    """``WHATEVR`` (random NUMBR) / ``WHATEVAR`` (random NUMBAR)."""

    kind: str  # "int" | "float"


@dataclass(slots=True)
class BinOp(Node):
    op: str  # add sub mul div mod max min eq ne gt lt and or xor
    lhs: "Expr"
    rhs: "Expr"


@dataclass(slots=True)
class UnaryOp(Node):
    op: str  # not square sqrt recip
    operand: "Expr"


@dataclass(slots=True)
class NaryOp(Node):
    op: str  # all any smoosh
    operands: list["Expr"]


@dataclass(slots=True)
class Cast(Node):
    """``MAEK <expr> A <type>``."""

    expr: "Expr"
    to_type: str


@dataclass(slots=True)
class FuncCall(Node):
    """``I IZ <name> [YR <expr> [AN YR <expr>]*] MKAY``."""

    name: str
    args: list["Expr"]


Expr = Union[
    IntLit,
    FloatLit,
    StringLit,
    TroofLit,
    NoobLit,
    VarRef,
    SrsRef,
    Index,
    ItRef,
    MeExpr,
    FrenzExpr,
    RandomExpr,
    BinOp,
    UnaryOp,
    NaryOp,
    Cast,
    FuncCall,
]

#: Expression node types that may appear as an assignment target.
LValue = (VarRef, SrsRef, Index)

# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class VarDecl(Node):
    """``I HAS A`` / ``WE HAS A`` declaration with the paper's multi-clause
    extensions.

    * ``scope`` — ``"I"`` (thread-local) or ``"WE"`` (symmetric, PGAS).
    * ``static_type`` — declared type name for ``ITZ [SRSLY] A <type>``
      clauses, ``None`` for dynamically typed variables.
    * ``srsly`` — whether the static-typing keyword ``SRSLY`` was used.
    * ``is_array`` / ``size`` — ``LOTZ A <type>S AN THAR IZ <size>``.
    * ``shared_lock`` — ``AN IM SHARIN IT`` declares the implied global lock.
    * ``init`` — initializer from ``ITZ <expr>`` or an ``AN ITZ <expr>``
      clause.
    """

    scope: str
    name: str
    static_type: Optional[str] = None
    srsly: bool = False
    is_array: bool = False
    size: Optional[Expr] = None
    shared_lock: bool = False
    init: Optional[Expr] = None


@dataclass(slots=True)
class Assign(Node):
    target: Expr  # one of LValue
    value: Expr


@dataclass(slots=True)
class CastStmt(Node):
    """``<var> IS NOW A <type>`` — in-place re-cast."""

    target: Expr
    to_type: str


@dataclass(slots=True)
class ExprStmt(Node):
    """A bare expression; its value is stored into ``IT``."""

    expr: Expr


@dataclass(slots=True)
class Visible(Node):
    args: list[Expr]
    newline: bool = True  # suppressed by a trailing "!"


@dataclass(slots=True)
class Gimmeh(Node):
    target: Expr


@dataclass(slots=True)
class CanHas(Node):
    library: str


@dataclass(slots=True)
class If(Node):
    """``O RLY?`` — tests IT; ``mebbe`` arms carry their own expressions."""

    ya_rly: list["Stmt"]
    mebbe: list[tuple[Expr, list["Stmt"]]]
    no_wai: list["Stmt"]


@dataclass(slots=True)
class Switch(Node):
    """``WTF?`` — compares IT against OMG literals, C-style fallthrough."""

    cases: list[tuple[Expr, list["Stmt"]]]
    default: list["Stmt"]


@dataclass(slots=True)
class Loop(Node):
    """``IM IN YR <label> [UPPIN|NERFIN YR <var> [TIL|WILE <expr>]]``."""

    label: str
    op: Optional[str] = None  # "UPPIN" | "NERFIN" | function name
    var: Optional[str] = None
    cond_kind: Optional[str] = None  # "TIL" | "WILE"
    cond: Optional[Expr] = None
    body: list["Stmt"] = field(default_factory=list)


@dataclass(slots=True)
class Gtfo(Node):
    """``GTFO`` — break out of loop / switch case / return from function."""


@dataclass(slots=True)
class FuncDef(Node):
    name: str
    params: list[str]
    body: list["Stmt"] = field(default_factory=list)


@dataclass(slots=True)
class Return(Node):
    """``FOUND YR <expr>``."""

    expr: Expr


@dataclass(slots=True)
class Hugz(Node):
    """``HUGZ`` — collective barrier over all PEs (Table II)."""


@dataclass(slots=True)
class LockStmt(Node):
    """Lock operations on a shared variable's implied global lock.

    ``kind`` is ``"lock"`` (``IM SRSLY MESIN WIF``, blocking),
    ``"trylock"`` (``IM MESIN WIF``, non-blocking, stores WIN/FAIL in IT)
    or ``"unlock"`` (``DUN MESIN WIF``).
    """

    kind: str
    target: Union[VarRef, SrsRef]


@dataclass(slots=True)
class TxtStmt(Node):
    """Thread predication (Table II).

    ``TXT MAH BFF <expr>, <stmt>`` or the block form
    ``TXT MAH BFF <expr> AN STUFF ... TTYL``.  Within the body, ``UR``
    references resolve in the address space of PE ``pe``.
    """

    pe: Expr
    body: list["Stmt"]
    block: bool = False


Stmt = Union[
    VarDecl,
    Assign,
    CastStmt,
    ExprStmt,
    Visible,
    Gimmeh,
    CanHas,
    If,
    Switch,
    Loop,
    Gtfo,
    FuncDef,
    Return,
    Hugz,
    LockStmt,
    TxtStmt,
]


@dataclass(slots=True)
class Program(Node):
    """A complete ``HAI ... KTHXBYE`` program."""

    version: Optional[str]
    body: list[Stmt] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------


def child_statements(stmt: Stmt) -> list[list[Stmt]]:
    """Return the nested statement blocks of ``stmt`` (for generic walks)."""
    if isinstance(stmt, If):
        return [stmt.ya_rly, *[b for _, b in stmt.mebbe], stmt.no_wai]
    if isinstance(stmt, Switch):
        return [*[b for _, b in stmt.cases], stmt.default]
    if isinstance(stmt, Loop):
        return [stmt.body]
    if isinstance(stmt, FuncDef):
        return [stmt.body]
    if isinstance(stmt, TxtStmt):
        return [stmt.body]
    return []


def walk_statements(body: list[Stmt]):
    """Yield every statement in ``body``, depth-first, including nested."""
    for stmt in body:
        yield stmt
        for block in child_statements(stmt):
            yield from walk_statements(block)


def stmt_exprs(stmt: Stmt) -> Iterator[Expr]:
    """Yield the expressions ``stmt`` holds directly, not those of its
    nested blocks.  An ``Assign`` target comes before its value, so a
    pass that stops at its first error reports the target's."""
    if isinstance(stmt, VarDecl):
        if stmt.size is not None:
            yield stmt.size
        if stmt.init is not None:
            yield stmt.init
    elif isinstance(stmt, Assign):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, (CastStmt, Gimmeh, LockStmt)):
        yield stmt.target
    elif isinstance(stmt, (ExprStmt, Return)):
        yield stmt.expr
    elif isinstance(stmt, Visible):
        yield from stmt.args
    elif isinstance(stmt, If):
        for cond, _ in stmt.mebbe:
            yield cond
    elif isinstance(stmt, Switch):
        for lit, _ in stmt.cases:
            yield lit
    elif isinstance(stmt, Loop):
        if stmt.cond is not None:
            yield stmt.cond
    elif isinstance(stmt, TxtStmt):
        yield stmt.pe


#: Expression node type -> its sub-expressions, last first (stack order).
_CHILDREN = {
    BinOp: lambda node: (node.rhs, node.lhs),
    UnaryOp: lambda node: (node.operand,),
    Cast: lambda node: (node.expr,),
    SrsRef: lambda node: (node.expr,),
    Index: lambda node: (node.index, node.base),
    NaryOp: lambda node: reversed(node.operands),
    FuncCall: lambda node: reversed(node.args),
}


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, pre-order, left to right."""
    stack: list[Expr] = [expr]
    children = _CHILDREN.get
    while stack:
        node = stack.pop()
        yield node
        kids = children(type(node))
        if kids is not None:
            stack += kids(node)


def has_call(expr: Expr) -> bool:
    """Whether evaluating ``expr`` calls a function (which may store to
    variables an earlier operand read)."""
    return any(isinstance(sub, FuncCall) for sub in walk_expr(expr))
