"""The binder: one static scope resolution for the checker, ``vm`` and ``c``.

:func:`bind` walks a program once and maps every declaration, parameter,
loop counter and name use to a :class:`Binding`.  The static checker
reads ``E001``/``E002``/``E004``/``E007``/``E009``/``W104`` off the
result, the VM compiler gives each binding one frame slot, and the C
backend names one C object after each; nothing else decides scope.  The
rules reproduce the tree-walker's dynamic :class:`~repro.interp.env.Env`
(``docs/language.md`` § Scope):

* one *frame* per function plus the root frame of top-level code;
* every ``O RLY?`` arm, ``WTF?`` case, loop body and function body is a
  *block*; a ``TXT MAH BFF`` body is part of the enclosing block; a
  loop's counter lives in a block of its own around the body, so each
  iteration is a new run of the body block and a body declaration of
  the counter's name shadows it;
* a declaration is visible from the next statement to the end of its
  block; its initializer and extent still see the enclosing binding;
* a same-block redeclaration with the same static type and array-ness
  is the same binding (the statement replaces its value); one that
  changes either is a program error, recorded in
  :attr:`Bindings.conflicts` (``E009`` for ``lollint``; every engine
  refuses to launch it, see :meth:`Bindings.check`);
* every ``WE HAS A`` binds in the *root* block, at the top-level
  statement that contains it (at the ``HOW IZ I`` for one inside a
  function), and its initializer reads the root block: the interpreters
  declare it on, and evaluate it in, the globals.  Its lock flag ORs
  across redeclarations, as the symmetric plan's does;
* function bodies resolve against their parameters plus the **final**
  root block (a call runs in a child of the globals).  A global read
  before its declaration has run is still a run-time ``LolNameError``
  on ``ast`` and ``vm``;
* a ``UR`` reference and a lock statement name the symmetric object of
  that name wherever it is declared (they address the symmetric heap,
  not the environment).

Uses are keyed by node identity, so a :class:`Bindings` describes the
exact tree it was built from (it keeps that tree alive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import ast
from .errors import LolTypeError, SourcePos
from .types import LolType, parse_type

#: How the VM reaches a resolved name from the code being compiled.
LOCAL = "local"  # slot in the current (function or root) frame
GLOBAL = "global"  # slot in the root frame, accessed from a function
SYMMETRIC = "symmetric"  # storage in the symmetric heap, addressed by name

#: The block id of the root block (file scope on ``c``).
ROOT = 0


@dataclass(frozen=True, slots=True)
class VarInfo:
    """A binding as the VM compiler addresses it from one frame."""

    kind: str  # LOCAL | GLOBAL | SYMMETRIC
    name: str
    slot: int = -1  # frame slot for LOCAL/GLOBAL
    static_type: Optional[LolType] = None
    is_array: bool = False

    def as_global(self) -> "VarInfo":
        """The view of a root-frame binding from inside a function."""
        if self.kind != LOCAL:
            return self
        return VarInfo(GLOBAL, self.name, self.slot, self.static_type, self.is_array)


@dataclass(eq=False, slots=True)
class Binding:
    """One variable: every declaration and use that means the same storage."""

    name: str
    pos: SourcePos  # its first declaration
    frame: Optional[ast.FuncDef]  # None: the root frame (and the heap)
    slot: int  # its ordinal in the frame, from 1 (slot 0 is IT); -1 symmetric
    block: int  # the declaring block; ROOT is the root block
    decl: Optional[ast.VarDecl] = None  # first declaration; None: parameter/counter
    static_type: Optional[LolType] = None
    is_array: bool = False
    symmetric: bool = False
    shared_lock: bool = False
    used: bool = False
    #: another binding of the name is visible wherever this one is
    shadows: bool = False


class Bindings:
    """The result of :func:`bind` for one program."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        #: id(VarRef | VarDecl | Loop) and (id(StringLit), name) -> binding
        self.refs: dict[object, Binding] = {}
        #: id(FuncDef) -> its parameters' bindings
        self.params: dict[int, tuple[Binding, ...]] = {}
        #: id(SrsRef) -> every binding visible at that ``SRS`` site
        self.snapshots: dict[int, dict[str, Binding]] = {}
        #: every binding, in the order it was declared
        self.all: list[Binding] = []
        #: root-block bindings, in the order they become visible
        self.root: list[Binding] = []
        #: same-block redeclarations that change type or array-ness:
        #: (the redeclaration, the binding it would retype)
        self.conflicts: list[tuple[ast.VarDecl, Binding]] = []

    def of(self, node: ast.Node) -> Optional[Binding]:
        """The binding of a ``VarRef``, a ``VarDecl`` or a counted
        ``Loop`` (its counter); ``None`` for an undeclared name."""
        return self.refs.get(id(node))

    def part(self, node: ast.StringLit, name: str) -> Optional[Binding]:
        """The binding of a ``:{name}`` interpolation in ``node``."""
        return self.refs.get((id(node), name))

    def check(self) -> None:
        """Raise the program's first same-block retype, if any."""
        if self.conflicts:
            decl, prev = self.conflicts[0]
            raise LolTypeError(retype_message(decl, prev), decl.pos)


def retype_message(decl: ast.VarDecl, prev: Binding) -> str:
    return (
        f"'{decl.name}' re-declared in the same block with a different "
        f"type or shape (first declared at line {prev.pos.line}); give "
        f"the new variable its own name"
    )


class _Block:
    __slots__ = ("id", "parent", "names")

    def __init__(self, block_id: int, parent: Optional["_Block"]) -> None:
        self.id = block_id
        self.parent = parent
        self.names: dict[str, Binding] = {}


class _Binder:
    def __init__(self, program: ast.Program) -> None:
        self.out = Bindings(program)
        self.root = _Block(ROOT, None)
        self.n_blocks = 1
        self.frame: Optional[ast.FuncDef] = None
        self.n_slots: dict[int, int] = {}  # id(frame) -> slots used
        self.symmetric: dict[str, Binding] = {}
        self.pending: list[ast.FuncDef] = []
        #: UR references and lock names: (key, name, lexical binding)
        self.remote: list[tuple[object, str, Optional[Binding]]] = []

    def run(self) -> Bindings:
        self._stmts(self.out.program.body, self.root)
        while self.pending:
            func = self.pending.pop(0)
            self.frame = func
            block = self._child(self.root)
            self.out.params[id(func)] = tuple(
                self._declare(None, p, func.pos, block, None, False)
                for p in func.params
            )
            self._stmts(func.body, block)
        for key, name, lexical in self.remote:
            b = self.symmetric.get(name) or lexical
            if b is not None:
                b.used = True
                self.out.refs[key] = b
        return self.out

    # -- blocks and declarations ------------------------------------------

    def _child(self, parent: _Block) -> _Block:
        self.n_blocks += 1
        return _Block(self.n_blocks - 1, parent)

    @staticmethod
    def _lookup(block: Optional[_Block], name: str) -> Optional[Binding]:
        while block is not None:
            b = block.names.get(name)
            if b is not None:
                return b
            block = block.parent
        return None

    def _new(
        self,
        name: str,
        pos: SourcePos,
        block: _Block,
        decl: Optional[ast.VarDecl],
        static_type: Optional[LolType],
        is_array: bool,
        **flags: bool,
    ) -> Binding:
        frame = None if block is self.root else self.frame
        b = Binding(
            name, pos, frame, -1, block.id, decl, static_type, is_array, **flags
        )
        if not b.symmetric:
            key = id(b.frame)
            b.slot = self.n_slots[key] = self.n_slots.get(key, 0) + 1
        block.names[name] = b
        self.out.all.append(b)
        if block is self.root:
            self.out.root.append(b)
        return b

    def _declare(
        self,
        decl: Optional[ast.VarDecl],
        name: str,
        pos: SourcePos,
        block: _Block,
        static_type: Optional[LolType],
        is_array: bool,
    ) -> Binding:
        prev = block.names.get(name)
        if prev is None:
            return self._new(
                name, pos, block, decl, static_type, is_array,
                used=decl is None, shadows=self._lookup(block, name) is not None,
            )
        if decl is not None and (
            prev.symmetric
            or prev.static_type is not static_type
            or prev.is_array != is_array
        ):
            self.out.conflicts.append((decl, prev))
        return prev

    def _bind_symmetric(self, decl: ast.VarDecl, block: _Block) -> None:
        if id(decl) in self.out.refs:
            return  # bound when its HOW IZ I was reached
        static_type = parse_type(decl.static_type) if decl.static_type else None
        b = self.symmetric.get(decl.name)
        if b is None:
            prev = self.root.names.get(decl.name)
            if prev is not None:  # a top-level I HAS A of the name
                self.out.conflicts.append((decl, prev))
                self.out.refs[id(decl)] = prev
                return
            hidden = self._lookup(block, decl.name)
            if hidden is not None:
                # a local of the name is in scope here: the C assignment
                # this declaration runs must reach past it
                hidden.shadows = True
            b = self.symmetric[decl.name] = self._new(
                decl.name, decl.pos, self.root, decl, static_type,
                decl.is_array, symmetric=True,
            )
        elif (b.static_type, b.is_array) != (static_type, decl.is_array):
            self.out.conflicts.append((decl, b))
        b.shared_lock = b.shared_lock or decl.shared_lock
        self.out.refs[id(decl)] = b

    # -- statements --------------------------------------------------------

    def _stmts(self, body: list[ast.Stmt], block: _Block) -> None:
        for stmt in body:
            self._stmt(stmt, block)

    def _stmt(self, stmt: ast.Stmt, block: _Block) -> None:
        t = type(stmt)
        if t is ast.VarDecl:
            symmetric = stmt.scope == "WE"
            for expr in ast.stmt_exprs(stmt):
                self._expr(expr, self.root if symmetric else block)
            if symmetric:
                self._bind_symmetric(stmt, block)
                return
            self.out.refs[id(stmt)] = self._declare(
                stmt,
                stmt.name,
                stmt.pos,
                block,
                parse_type(stmt.static_type) if stmt.static_type else None,
                stmt.is_array,
            )
        elif t is ast.If or t is ast.Switch:
            for expr in ast.stmt_exprs(stmt):
                self._expr(expr, block)
            for body in ast.child_statements(stmt):
                self._stmts(body, self._child(block))
        elif t is ast.Loop:
            loop = self._child(block)
            if stmt.var is not None:
                self.out.refs[id(stmt)] = self._declare(
                    None, stmt.var, stmt.pos, loop, LolType.NUMBR, False
                )
            if stmt.cond is not None:
                self._expr(stmt.cond, loop)
            self._stmts(stmt.body, self._child(loop))
        elif t is ast.FuncDef:
            for sub in ast.walk_statements(stmt.body):
                if type(sub) is ast.VarDecl and sub.scope == "WE":
                    self._bind_symmetric(sub, self.root)
            self.pending.append(stmt)
        elif t is ast.TxtStmt:
            self._expr(stmt.pe, block)
            self._stmts(stmt.body, block)
        elif t is ast.LockStmt and type(stmt.target) is ast.VarRef:
            target = stmt.target
            self.remote.append(
                (id(target), target.name, self._lookup(block, target.name))
            )
        else:
            for expr in ast.stmt_exprs(stmt):
                self._expr(expr, block)

    def _expr(self, expr: ast.Expr, block: _Block) -> None:
        refs = self.out.refs
        for sub in ast.walk_expr(expr):
            t = type(sub)
            if t is ast.VarRef:
                b = self._lookup(block, sub.name)
                if sub.qualifier == "UR":
                    self.remote.append((id(sub), sub.name, b))
                elif b is not None:
                    b.used = True
                    refs[id(sub)] = b
            elif t is ast.StringLit:
                for part in sub.parts:
                    if type(part) is tuple:
                        b = self._lookup(block, part[1])
                        if b is not None:
                            b.used = True
                            refs[(id(sub), part[1])] = b
            elif t is ast.SrsRef and sub.qualifier != "UR":
                self.out.snapshots[id(sub)] = self._visible(block)

    def _visible(self, block: Optional[_Block]) -> dict[str, Binding]:
        chain = []
        while block is not None:
            chain.append(block.names)
            block = block.parent
        visible: dict[str, Binding] = {}
        for names in reversed(chain):
            visible.update(names)
        return visible


def bind(program: ast.Program) -> Bindings:
    """Resolve every name of ``program`` (see the module docstring)."""
    return _Binder(program).run()
