"""LOLCODE -> C + OpenSHMEM source-to-source compiler.

This is the reproduction of the paper's ``lcc``: it translates extended
LOLCODE into a single self-contained C translation unit that targets the
OpenSHMEM API (Section II: "translates LOLCODE with parallel extensions to
C with OpenSHMEM routines"; a standard C compiler then produces the
executable).

This module docstring is the single source of truth for the emitted-C ↔
LOLCODE mapping; ``docs/language.md`` carries the user-facing version of
the same table and must stay in sync with it.

Mapping (Tables II/III -> C):

=============================== ==========================================
LOLCODE                          emitted C
=============================== ==========================================
``ME`` / ``MAH FRENZ``           ``shmem_my_pe()`` / ``shmem_n_pes()``
``HUGZ``                         ``shmem_barrier_all()``
``WE HAS A x ITZ SRSLY A NUMBR`` file-scope ``static long long x LOL_SYMMETRIC;``
``... AN IM SHARIN IT``          plus ``static long __lock_x LOL_SYMMETRIC;``
``TXT MAH BFF k, ...``           ``int __tgtN = (k);``, then the body inline
``UR x`` (NUMBAR)                ``shmem_double_g(&x, __tgtN)``
``UR x R v``                     ``shmem_double_p(&x, v, __tgtN)``
``MAH a R UR b`` (arrays)        ``shmem_double_get(a, b, n, __tgtN)``
``IM SRSLY MESIN WIF x``         ``shmem_set_lock(&__lock_x)``
``IM MESIN WIF x`` (trylock)     ``__it = lol_from_b(shmem_test_lock(...) == 0)``
``WHATEVR`` / ``WHATEVAR``       ``lol_rand_i()`` / ``lol_rand_f()``
=============================== ==========================================

C leaves the order of operand evaluation unspecified and ``&&``/``||``
skip operands; the interpreters evaluate every operand, left to right.
So every ``WHATEVR``/``WHATEVAR`` draw and every function call is
evaluated into a ``__tmp`` temporary before the statement that uses it,
in source order, and an operand that reads program state ahead of a
later call is pinned the same way.  The prelude's ``lol_rand_*`` draw
from the interpreters' per-PE Mersenne Twister, so equal
``(source, n_pes, seed)`` print equal output on every engine.

(``LOL_SYMMETRIC`` is the prelude macro that places symmetric objects in
the bundled shim's remappable section under ``-DLOL_SHMEM_SHIM`` and
expands to nothing for real OpenSHMEM builds.  Every other file-scope
object is tagged ``LOL_STATE``, and the program body is ``lol_main``:
under the shim a parked PE calls it once per job and restores the
``LOL_STATE`` section in between; elsewhere ``main`` calls it once.)

Statically typed variables become native C objects; dynamically typed
variables use the ``lol_value_t`` tagged union from the embedded prelude.
Every name means what the binder (:mod:`repro.lang.resolve`) says it
means, and each binding is one C object.  Root-block bindings are
emitted at file scope (each PE is an OS process under SHMEM, so
file-scope statics are per-PE — this is what makes them addressable
from LOLCODE functions), with initialisers run at their original
program point; every other binding is a C local named after its
LOLCODE name, with a ``__<slot>`` suffix when it shadows another
binding of that name, so a C declarator never hides a binding the
program still reads.

Symmetric objects come from the plan every executor lays out
(:mod:`repro.analysis.summary`) — so a symmetric name must be typed, its
extent must fold to at least 1 element (literals always fold; with a
known launch width, ``compile_c(..., n_pes=N)`` as the ``engine="c"``
driver does, ``MAH FRENZ`` arithmetic folds too, so registry kernels
sized ``THAR IZ MAH FRENZ`` compile per launch width), and
redeclarations must agree.  A ``WE HAS A`` anywhere, a function body
included, only runs its initializer.  Backend-specific restrictions,
each diagnosed as a :class:`CompileError` at compile time:

* ``SRS`` computed identifiers (fundamentally dynamic);
* YARN-typed *symmetric* data over ``UR`` (OpenSHMEM moves raw memory);
* functions must be defined once, at top level;
* a same-block array redeclaration (C has one declarator per block).
"""

from __future__ import annotations

from typing import Optional

from ..analysis.summary import (
    ProgramSummary,
    const_eval,
    summarize_cached,
    summary_of,
    symmetric_plan,
)
from ..lang import ast
from ..lang.errors import LolError, LolParallelError, SourcePos
from ..lang.resolve import ROOT, Binding
from ..lang.types import LolType
from ..interp.interpreter import KNOWN_LIBRARIES
from .c_prelude import C_PRELUDE


class CompileError(LolError):
    """A construct the C backend cannot translate (though it may interpret)."""


#: C scalar kind codes: i=long long, f=double, s=const char*, b=int,
#: d=lol_value_t (dynamic).
_KIND_OF_TYPE = {
    LolType.NUMBR: "i",
    LolType.NUMBAR: "f",
    LolType.YARN: "s",
    LolType.TROOF: "b",
}
_C_DECL = {
    "i": "long long",
    "f": "double",
    "s": "const char *",
    "b": "int",
    "d": "lol_value_t",
}
_SHMEM_TYPE = {"i": "longlong", "f": "double", "b": "int"}

_CONV: dict[tuple[str, str], str] = {
    ("i", "f"): "(double)({0})",
    ("b", "f"): "((double)({0}))",
    ("s", "f"): "strtod({0}, NULL)",
    ("d", "f"): "lol_to_f({0})",
    ("f", "i"): "(long long)({0})",
    ("b", "i"): "((long long)({0}))",
    ("s", "i"): "strtoll({0}, NULL, 10)",
    ("d", "i"): "lol_to_i({0})",
    ("i", "b"): "(({0}) != 0)",
    ("f", "b"): "(({0}) != 0.0)",
    ("s", "b"): "(({0})[0] != '\\0')",
    ("d", "b"): "lol_truthy({0})",
    ("i", "s"): "lol_fmt_i({0})",
    ("f", "s"): "lol_fmt_f({0})",
    ("b", "s"): '(({0}) ? "WIN" : "FAIL")',
    ("d", "s"): "lol_to_s({0})",
    ("i", "d"): "lol_from_i({0})",
    ("f", "d"): "lol_from_f({0})",
    ("b", "d"): "lol_from_b({0})",
    ("s", "d"): "lol_from_s({0})",
}


#: Expressions whose value no function call can change; an operand
#: before a later call is pinned into a temporary unless it is one.
_CALL_PROOF = (
    ast.IntLit, ast.FloatLit, ast.TroofLit, ast.NoobLit, ast.MeExpr,
    ast.FrenzExpr, ast.RandomExpr, ast.FuncCall,
)


def conv(code: str, src: str, dst: str) -> str:
    """Wrap C expression ``code`` in the ``src`` -> ``dst`` kind coercion."""
    if src == dst:
        return code
    return _CONV[(src, dst)].format(code)


_C_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\a": "\\a"}


def c_string(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch in _C_ESCAPES:
            out.append(_C_ESCAPES[ch])
        elif 32 <= ord(ch) < 127:
            out.append(ch)
        else:
            out.append(f"\\u{ord(ch):04x}" if ord(ch) > 0xFF else f"\\x{ord(ch):02x}")
    out.append('"')
    return "".join(out)


def c_float(value: float) -> str:
    text = repr(value)
    if "e" not in text and "E" not in text and "." not in text:
        text += ".0"
    return text


class CBackend:
    """One-shot code generator: ``CBackend(program).generate()``.

    ``n_pes`` optionally fixes the launch width at compile time so
    symmetric array extents written in terms of ``MAH FRENZ`` fold to C
    constants; leave it ``None`` for width-independent output (only
    literal extents compile then).  ``tree`` is the program or its
    :class:`~repro.analysis.summary.ProgramSummary`; given a summary,
    the backend compiles the tree that summary was built from.
    Expression generation is the ``gen_expr`` dispatch (returns
    ``(C expression, kind code)``), statement generation the
    ``gen_stmt`` dispatch (appends to ``body_lines``); both raise
    :class:`CompileError` with a source position for every
    interpret-only construct they meet.
    """

    def __init__(
        self,
        tree: ast.Program | ProgramSummary,
        n_pes: Optional[int] = None,
    ):
        self.summary = summary_of(tree)
        self.program = self.summary.program
        self.bindings = self.summary.bindings
        self.n_pes = n_pes
        self.functions: dict[str, ast.FuncDef] = {}
        self.body_lines: list[str] = []
        self.file_lines: list[str] = []
        self.indent = 1
        self._tmp = 0
        self._tgts: list[str] = []  # the enclosing TXT targets' C names
        self._ntgt = 0
        self._gtfo_ok = 0  # nesting depth of loop/switch
        self._current_func: Optional[str] = None

    # -- emit helpers -----------------------------------------------------

    def out(self, line: str) -> None:
        self.body_lines.append("    " * self.indent + line)

    def _fresh(self, prefix: str) -> str:
        self._tmp += 1
        return f"__{prefix}{self._tmp}"

    def _pin(self, code: str, kind: str) -> tuple[str, str]:
        """Evaluate ``code`` here, into a fresh temporary."""
        tmp = self._fresh("tmp")
        self.out(f"{_C_DECL[kind]} {tmp} = {code};")
        return tmp, kind

    def _gen_operands(self, exprs: list[ast.Expr]) -> list[tuple[str, str]]:
        """Compile ``exprs`` left to right, pinning each operand that a
        later operand's function call could change."""
        last_call = max(
            (i for i, expr in enumerate(exprs) if ast.has_call(expr)), default=-1
        )
        parts = []
        for i, expr in enumerate(exprs):
            part = self.gen_expr(expr)
            if i < last_call and not isinstance(expr, _CALL_PROOF):
                part = self._pin(*part)
            parts.append(part)
        return parts

    # -- symbol classification ----------------------------------------------

    def _info(
        self, node: ast.VarRef | ast.StringLit, part: Optional[str] = None
    ) -> Binding:
        """The binding the binder resolved for a ``VarRef`` (or for the
        ``:{part}`` interpolation of a string literal)."""
        name = part or node.name
        b = self.bindings.of(node) if part is None else self.bindings.part(node, part)
        if b is None:
            raise CompileError(f"'{name}' is not declared", node.pos)
        return b

    @staticmethod
    def _cname(b: Binding) -> str:
        """The C name of a binding's object."""
        return f"{b.name}__{b.slot}" if b.shadows else b.name

    @staticmethod
    def _kind_of(b: Binding) -> str:
        if b.static_type is None:
            return "d"
        return _KIND_OF_TYPE[b.static_type]

    # -- expressions -----------------------------------------------------------

    def gen_expr(self, node: ast.Expr) -> tuple[str, str]:
        """Compile one expression; returns ``(C expression, kind code)``.

        The kind code is the scalar classification from ``_KIND_OF_TYPE``
        (``i``/``f``/``s``/``b`` for statically typed values, ``d`` for a
        dynamic ``lol_value_t``); callers coerce with :func:`conv`.
        Dispatches over every AST expression class; the only
        interpret-only expression is ``SRS`` (computed identifiers),
        diagnosed here as a :class:`CompileError`.
        """
        if isinstance(node, ast.IntLit):
            return f"{node.value}LL", "i"
        if isinstance(node, ast.FloatLit):
            return c_float(node.value), "f"
        if isinstance(node, ast.StringLit):
            return self._gen_string(node)
        if isinstance(node, ast.TroofLit):
            return ("1", "b") if node.value else ("0", "b")
        if isinstance(node, ast.NoobLit):
            return "lol_noob()", "d"
        if isinstance(node, ast.ItRef):
            return "__it", "d"
        if isinstance(node, ast.MeExpr):
            return "((long long)shmem_my_pe())", "i"
        if isinstance(node, ast.FrenzExpr):
            return "((long long)shmem_n_pes())", "i"
        if isinstance(node, ast.RandomExpr):
            if node.kind == "int":
                return self._pin("lol_rand_i()", "i")
            return self._pin("lol_rand_f()", "f")
        if isinstance(node, ast.BinOp):
            return self._gen_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._gen_unop(node)
        if isinstance(node, ast.NaryOp):
            return self._gen_nary(node)
        if isinstance(node, ast.Cast):
            return self._gen_cast(node)
        if isinstance(node, ast.VarRef):
            return self._gen_var_read(self._info(node), node.qualifier, node.pos)
        if isinstance(node, ast.Index):
            return self._gen_index_read(node)
        if isinstance(node, ast.FuncCall):
            return self._gen_call(node)
        if isinstance(node, ast.SrsRef):
            raise CompileError(
                "SRS computed identifiers are interpret-only", node.pos
            )
        raise CompileError(
            f"cannot compile expression {type(node).__name__}", node.pos
        )

    def _gen_string(self, node: ast.StringLit) -> tuple[str, str]:
        if node.is_plain():
            return c_string(node.plain_text()), "s"
        code: Optional[str] = None
        for part in node.parts:
            piece = (
                c_string(part)
                if isinstance(part, str)
                else conv(
                    *self._gen_var_read(self._info(node, part[1]), None, node.pos),
                    "s",
                )
            )
            code = piece if code is None else f"lol_concat({code}, {piece})"
        return code or '""', "s"

    def _arith_char(self, op: str) -> str:
        return {
            "add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%",
            "max": ">", "min": "<",
        }[op]

    def _gen_binop(self, node: ast.BinOp) -> tuple[str, str]:
        op = node.op
        (ca, ta), (cb, tb) = self._gen_operands([node.lhs, node.rhs])
        if op in ("add", "sub", "mul", "div", "mod", "max", "min"):
            # BIGGR/SMALLR OF return the chosen operand unconverted, so a
            # NUMBR/NUMBAR pair is only resolved at run time.
            mixed = op in ("max", "min") and "f" in (ta, tb) and ta != tb
            if ta in ("s", "d") or tb in ("s", "d") or mixed:
                return (
                    f"lol_arith('{self._arith_char(op)}', "
                    f"{conv(ca, ta, 'd')}, {conv(cb, tb, 'd')})",
                    "d",
                )
            kind = "f" if "f" in (ta, tb) else "i"
            xa, xb = conv(ca, ta, kind), conv(cb, tb, kind)
            if op in ("add", "sub", "mul"):
                sym = {"add": "+", "sub": "-", "mul": "*"}[op]
                return f"({xa} {sym} {xb})", kind
            if op == "div":
                return f"({xa} / {xb})", kind
            if op == "mod":
                return (
                    (f"fmod({xa}, {xb})", "f")
                    if kind == "f"
                    else (f"lol_trunc_mod({xa}, {xb})", "i")
                )
            fn = f"lol_{'max' if op == 'max' else 'min'}_{kind}"
            return f"{fn}({xa}, {xb})", kind
        if op in ("eq", "ne"):
            bang = "!" if op == "ne" else ""
            if ta in ("i", "f", "b") and tb in ("i", "f", "b"):
                return f"({bang}({conv(ca, ta, 'f')} == {conv(cb, tb, 'f')}))", "b"
            if ta == "s" and tb == "s":
                return f"({bang}(strcmp({ca}, {cb}) == 0))", "b"
            return (
                f"({bang}lol_eq({conv(ca, ta, 'd')}, {conv(cb, tb, 'd')}))",
                "b",
            )
        if op in ("gt", "lt"):
            sym = ">" if op == "gt" else "<"
            return f"({conv(ca, ta, 'f')} {sym} {conv(cb, tb, 'f')})", "b"
        if op in ("and", "or", "xor"):
            xa, xb = conv(ca, ta, "b"), conv(cb, tb, "b")
            if op == "and":
                return f"({xa} && {xb})", "b"
            if op == "or":
                return f"({xa} || {xb})", "b"
            return f"((!!{xa}) != (!!{xb}))", "b"
        raise CompileError(f"unknown binary op {op!r}", node.pos)

    def _gen_unop(self, node: ast.UnaryOp) -> tuple[str, str]:
        code, kind = self.gen_expr(node.operand)
        if node.op == "not":
            return f"(!{conv(code, kind, 'b')})", "b"
        if node.op == "square":
            if kind == "i" or kind == "b":
                return f"lol_squar_i({conv(code, kind, 'i')})", "i"
            if kind == "f":
                return f"lol_squar_f({code})", "f"
            # A dynamic NUMBR squares to a NUMBR: decide at run time.
            tmp, _ = self._pin(conv(code, kind, "d"), "d")
            return f"lol_arith('*', {tmp}, {tmp})", "d"
        if node.op == "sqrt":
            return f"sqrt({conv(code, kind, 'f')})", "f"
        if node.op == "recip":
            return f"(1.0 / {conv(code, kind, 'f')})", "f"
        raise CompileError(f"unknown unary op {node.op!r}", node.pos)

    def _gen_nary(self, node: ast.NaryOp) -> tuple[str, str]:
        parts = self._gen_operands(node.operands)
        if node.op in ("all", "any"):
            joiner = " && " if node.op == "all" else " || "
            return (
                "(" + joiner.join(conv(c, k, "b") for c, k in parts) + ")",
                "b",
            )
        # SMOOSH
        code: Optional[str] = None
        for c, k in parts:
            piece = conv(c, k, "s")
            code = piece if code is None else f"lol_concat({code}, {piece})"
        return code or '""', "s"

    def _gen_cast(self, node: ast.Cast) -> tuple[str, str]:
        code, kind = self.gen_expr(node.expr)
        target = LolType(node.to_type)
        if target is LolType.NOOB:
            return "lol_noob()", "d"
        return conv(code, kind, _KIND_OF_TYPE[target]), _KIND_OF_TYPE[target]

    def _gen_call(self, node: ast.FuncCall) -> tuple[str, str]:
        finfo = self.functions.get(node.name)
        if finfo is None:
            raise CompileError(f"no function named '{node.name}'", node.pos)
        if len(node.args) != len(finfo.params):
            raise CompileError(
                f"function '{node.name}' wants {len(finfo.params)} "
                f"arguments, got {len(node.args)}",
                node.pos,
            )
        parts = self._gen_operands(node.args)
        args = ", ".join(conv(code, kind, "d") for code, kind in parts)
        return self._pin(f"lol_fn_{node.name}({args})", "d")

    # -- variable access -----------------------------------------------------------

    def _tgt(self, name: str, pos: SourcePos) -> str:
        """The C name of the innermost ``TXT MAH BFF`` target."""
        if not self._tgts:
            raise CompileError(
                f"'UR {name}' used outside a TXT MAH BFF predicated "
                f"statement or block",
                pos,
            )
        return self._tgts[-1]

    def _shmem_kind(self, b: Binding, pos: SourcePos) -> str:
        kind = self._kind_of(b)
        if kind not in _SHMEM_TYPE:
            raise CompileError(
                f"symmetric symbol '{b.name}' must be numeric for the C "
                f"backend (YARN cannot cross PEs via OpenSHMEM)",
                pos,
            )
        return kind

    def _gen_var_read(
        self, b: Binding, qualifier: Optional[str], pos: SourcePos
    ) -> tuple[str, str]:
        name = self._cname(b)
        if qualifier == "UR":
            tgt = self._tgt(b.name, pos)
            if not b.symmetric:
                raise CompileError(
                    f"'UR {b.name}': not a symmetric variable", pos
                )
            kind = self._shmem_kind(b, pos)
            if b.is_array:
                raise CompileError(
                    f"whole-array 'UR {b.name}' is only valid on the right "
                    f"side of an array assignment",
                    pos,
                )
            return f"shmem_{_SHMEM_TYPE[kind]}_g(&{name}, {tgt})", kind
        if b.is_array:
            raise CompileError(
                f"'{b.name}' is an array: index it with {b.name}'Z <expr>", pos
            )
        return name, self._kind_of(b)

    def _gen_index_read(self, node: ast.Index) -> tuple[str, str]:
        if not isinstance(node.base, ast.VarRef):
            raise CompileError(
                "SRS computed identifiers are interpret-only", node.pos
            )
        b = self._info(node.base)
        if not b.is_array:
            raise CompileError(f"'{b.name}' is not an array", node.pos)
        name = self._cname(b)
        idx = conv(*self.gen_expr(node.index), "i")
        kind = self._kind_of(b)
        if node.base.qualifier == "UR":
            tgt = self._tgt(b.name, node.pos)
            kind = self._shmem_kind(b, node.pos)
            return f"shmem_{_SHMEM_TYPE[kind]}_g(&{name}[{idx}], {tgt})", kind
        return f"{name}[{idx}]", kind

    # -- statements ---------------------------------------------------------------

    def gen_block(self, body: list[ast.Stmt]) -> None:
        """Compile a statement list into the current C block."""
        for stmt in body:
            self.gen_stmt(stmt)

    def gen_stmt(self, stmt: ast.Stmt) -> None:
        """Compile one statement into ``body_lines``.

        Dispatches over every AST statement class.  Restriction
        diagnostics raised from here (and from the ``_gen_*`` helpers
        it fans out to) carry the statement's source position, so
        ``lcc`` points at the offending LOLCODE line rather
        than at generated C.
        """
        if isinstance(stmt, ast.VarDecl):
            self._gen_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._gen_assign(stmt.target, stmt.value)
        elif isinstance(stmt, ast.CastStmt):
            self._gen_cast_stmt(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            code, kind = self.gen_expr(stmt.expr)
            self.out(f"__it = {conv(code, kind, 'd')};")
        elif isinstance(stmt, ast.Visible):
            # Every argument is evaluated before anything prints: a
            # called function may print too.
            for code, kind in self._gen_operands(stmt.args):
                self.out(f"fputs({conv(code, kind, 's')}, stdout);")
            if stmt.newline:
                self.out('fputs("\\n", stdout);')
        elif isinstance(stmt, ast.Gimmeh):
            self._gen_store(stmt.target, "lol_readline()", "s")
        elif isinstance(stmt, ast.CanHas):
            if stmt.library.upper() not in KNOWN_LIBRARIES:
                raise CompileError(
                    f"CAN HAS {stmt.library}?: unknown library", stmt.pos
                )
            self.out(f"/* CAN HAS {stmt.library}? */")
        elif isinstance(stmt, ast.If):
            self.out("if (lol_truthy(__it)) {")
            self.indent += 1
            self.gen_block(stmt.ya_rly)
            for cond, body in stmt.mebbe:
                # Nested, not `else if`: the condition's temporaries are
                # evaluated only when this arm is tested.
                self.indent -= 1
                self.out("} else {")
                self.indent += 1
                code, kind = self.gen_expr(cond)
                self.out(f"if ({conv(code, kind, 'b')}) {{")
                self.indent += 1
                self.gen_block(body)
            self.indent -= 1
            self.out("} else {")
            self.indent += 1
            self.gen_block(stmt.no_wai)
            for _ in range(len(stmt.mebbe) + 1):
                self.indent -= 1
                self.out("}")
        elif isinstance(stmt, ast.Switch):
            self._gen_switch(stmt)
        elif isinstance(stmt, ast.Loop):
            self._gen_loop(stmt)
        elif isinstance(stmt, ast.Gtfo):
            if self._gtfo_ok > 0:
                self.out("break;")
            elif self._current_func is not None:
                self.out("return lol_noob();")
            else:
                raise CompileError(
                    "GTFO outside a loop, switch, or function", stmt.pos
                )
        elif isinstance(stmt, ast.FuncDef):
            pass  # emitted at file scope in generate()
        elif isinstance(stmt, ast.Return):
            if self._current_func is None:
                raise CompileError("FOUND YR outside a function", stmt.pos)
            code, kind = self.gen_expr(stmt.expr)
            self.out(f"return {conv(code, kind, 'd')};")
        elif isinstance(stmt, ast.Hugz):
            self.out("shmem_barrier_all();")
        elif isinstance(stmt, ast.LockStmt):
            self._gen_lock(stmt)
        elif isinstance(stmt, ast.TxtStmt):
            # The body is part of the enclosing block: its declarations
            # stay visible after TTYL, so it opens no C block.
            code, kind = self.gen_expr(stmt.pe)
            self._ntgt += 1
            tgt = f"__tgt{self._ntgt}"
            self.out(f"int {tgt} = (int)({conv(code, kind, 'i')});")
            self.indent += 1
            self._tgts.append(tgt)
            self.gen_block(stmt.body)
            self._tgts.pop()
            self.indent -= 1
        else:
            raise CompileError(
                f"cannot compile statement {type(stmt).__name__}", stmt.pos
            )

    # -- declarations ----------------------------------------------------------

    def _const_size(self, expr: ast.Expr, name: str) -> Optional[int]:
        """Fold an ``I HAS A`` array extent to a C constant, or ``None``
        if it only has a value at run time (a block-local VLA then).

        Folding is :func:`~repro.analysis.summary.const_eval`, the one
        every executor's symmetric plan uses: literals always fold, and
        with a fixed launch width (``self.n_pes``) ``MAH FRENZ``
        arithmetic folds too.
        """
        try:
            size = const_eval(expr, self.n_pes)
        except LolParallelError as exc:
            raise CompileError(exc.message, exc.pos) from exc
        except LolError:
            # E.g. QUOSHUNT OF 1 AN 0: a VLA fails only if it runs.
            return None
        if size is not None and size < 1:
            # C has no zero/negative-length arrays; diagnose here
            # rather than letting cc reject the emitted unit.
            raise CompileError(
                f"array '{name}': extent folds to {size}, but the C "
                f"backend needs at least 1 element",
                expr.pos,
            )
        return size

    def _decl_c(self, b: Binding, size_code: Optional[str]) -> str:
        base = _C_DECL[self._kind_of(b)]
        if b.is_array:
            return f"{base} {self._cname(b)}[{size_code}]"
        return f"{base} {self._cname(b)}"

    def _declare_functions(self) -> None:
        """Index the summary's functions; C needs one top-level
        definition per name."""
        top = {id(stmt) for stmt in self.program.body}
        for func in self.summary.functions:
            if id(func) not in top:
                raise CompileError(
                    f"nested function '{func.name}' is not compilable",
                    func.pos,
                )
            if func.name in self.functions:
                raise CompileError(
                    f"function '{func.name}' is defined twice; the C "
                    f"backend compiles one definition per name",
                    func.pos,
                )
            self.functions[func.name] = func

    def _emit_file_scope(self) -> None:
        """Emit one file-scope C object per root-block binding: the
        top-level ``I HAS A`` names and every entry of the symmetric plan.

        Symmetric objects (``WE HAS A``) are tagged ``LOL_SYMMETRIC`` so
        the bundled shim can place them in its remappable section;
        ``AN IM SHARIN IT`` additionally emits the symbol's lock word.
        Initialisers are *not* handled here — ``_gen_decl`` runs them at
        the declaration's original program point; only a YARN scalar
        gets its empty start value here, once.
        """
        try:
            plan = symmetric_plan(self.summary, self.n_pes)
        except LolError as exc:
            raise CompileError(exc.message, exc.pos) from exc
        for b in self.bindings.root:
            size: Optional[int] = None
            if b.symmetric:
                size = plan.entries[b.name][2]
            elif b.is_array:
                assert b.decl is not None and b.decl.size is not None
                size = self._const_size(b.decl.size, b.name)
                if size is None:
                    raise CompileError(
                        f"file-scope array '{b.name}' needs a "
                        f"compile-time size for the C backend (an "
                        f"integer literal, or MAH FRENZ arithmetic when "
                        f"compiling for a known launch width)",
                        b.pos,
                    )
            # symmetric data goes to the shim's remappable section, the
            # rest to the state section a job server restores per job
            tag = "" if b.symmetric else "LOL_STATE "
            attr = " LOL_SYMMETRIC" if b.symmetric else ""
            comment = " /* symmetric */" if b.symmetric else ""
            # a YARN starts empty, once: a WE HAS A without initializer
            # leaves the value alone, however often it runs
            init = ' = ""' if self._kind_of(b) == "s" and not b.is_array else ""
            self.file_lines.append(
                f"{tag}static {self._decl_c(b, str(size))}{attr}{init};"
                f"{comment}"
            )
            if b.shared_lock:
                # The (void) cast in lol_main keeps -Wunused-variable quiet
                # when a program declares IM SHARIN IT but never takes the
                # lock.
                self.file_lines.append(
                    f"static long __lock_{b.name} LOL_SYMMETRIC = 0L;"
                )

    def _gen_decl(self, stmt: ast.VarDecl) -> None:
        b = self.bindings.of(stmt)
        assert b is not None
        name = self._cname(b)
        kind = self._kind_of(b)
        first = b.decl is stmt
        if b.is_array and not b.symmetric and not first:
            raise CompileError(
                f"'{stmt.name}' re-declared in the same block (the C "
                f"backend keeps one array object per name and block)",
                stmt.pos,
            )
        if b.block == ROOT:
            # A file-scope object: run its initialiser here (a repeated
            # I HAS A also resets the value).
            if stmt.init is not None or (not b.symmetric and not first):
                self.out(f"{name} = {self._decl_value(stmt, kind)};")
            elif kind == "d":
                self.out(f"{name} = lol_noob();")
            return
        if not first:
            # C allows one declarator per name and block: a same-block
            # redeclaration assigns the existing object.
            self.out(f"{name} = {self._decl_value(stmt, kind)};")
            return
        if not stmt.is_array:
            self.out(f"{self._decl_c(b, None)} = {self._decl_value(stmt, kind)};")
            return
        size_lit = self._const_size(stmt.size, stmt.name)
        if size_lit is not None:
            self.out(f"{self._decl_c(b, str(size_lit))} = {{0}};")
            return
        size_code = conv(*self.gen_expr(stmt.size), "i")
        n = self._fresh("n")
        self.out(f"long long {n} = {size_code};")
        self.out(f"{self._decl_c(b, n)};")
        self.out(
            f"memset({name}, 0, sizeof {name});"
            if kind != "s"
            else f"for (long long __z = 0; __z < {n}; __z++) "
            f'{name}[__z] = "";'
        )

    def _decl_value(self, stmt: ast.VarDecl, kind: str) -> str:
        """The C value a scalar ``I HAS A`` stores: its initializer or
        the type's default."""
        if stmt.init is not None:
            return conv(*self.gen_expr(stmt.init), kind)
        if kind == "d":
            return "lol_noob()"
        return '""' if kind == "s" else "0"

    # -- assignment --------------------------------------------------------------

    def _gen_assign(self, target: ast.Expr, value: ast.Expr) -> None:
        # Whole-array transfers first (they need the shmem_get/put forms).
        if isinstance(target, ast.VarRef) and not isinstance(value, ast.Index):
            tb = self._info(target)
            if tb.is_array:
                self._gen_array_copy(target, tb, value)
                return
        code, kind = self.gen_expr(value)
        if ast.has_call(target) and not isinstance(value, _CALL_PROOF):
            # The target's index evaluates after the value.
            code, kind = self._pin(code, kind)
        self._gen_store(target, code, kind)

    def _gen_array_copy(
        self, target: ast.VarRef, tb: Binding, value: ast.Expr
    ) -> None:
        if not isinstance(value, ast.VarRef):
            raise CompileError(
                f"whole-array assignment to '{target.name}' needs an array "
                f"on the right-hand side",
                target.pos,
            )
        sb = self._info(value)
        if not sb.is_array:
            raise CompileError(
                f"cannot assign scalar '{value.name}' to whole array "
                f"'{target.name}'",
                target.pos,
            )
        dst, src = self._cname(tb), self._cname(sb)
        count = f"(sizeof {dst} / sizeof {dst}[0])"
        if value.qualifier == "UR":
            tgt = self._tgt(value.name, value.pos)
            kind = self._shmem_kind(sb, value.pos)
            self.out(
                f"shmem_{_SHMEM_TYPE[kind]}_get({dst}, {src}, {count}, {tgt});"
            )
            return
        if target.qualifier == "UR":
            tgt = self._tgt(target.name, target.pos)
            kind = self._shmem_kind(tb, target.pos)
            self.out(
                f"shmem_{_SHMEM_TYPE[kind]}_put({dst}, {src}, {count}, {tgt});"
            )
            return
        self.out(f"memcpy({dst}, {src}, sizeof {dst});")

    def _gen_store(self, target: ast.Expr, code: str, kind: str) -> None:
        if isinstance(target, ast.Index):
            if not isinstance(target.base, ast.VarRef):
                raise CompileError(
                    "SRS computed identifiers are interpret-only", target.pos
                )
            b = self._info(target.base)
            if not b.is_array:
                raise CompileError(f"'{b.name}' is not an array", target.pos)
            name = self._cname(b)
            idx = conv(*self.gen_expr(target.index), "i")
            ekind = self._kind_of(b)
            if target.base.qualifier == "UR":
                tgt = self._tgt(b.name, target.pos)
                ekind = self._shmem_kind(b, target.pos)
                self.out(
                    f"shmem_{_SHMEM_TYPE[ekind]}_p(&{name}[{idx}], "
                    f"{conv(code, kind, ekind)}, {tgt});"
                )
                return
            self.out(f"{name}[{idx}] = {conv(code, kind, ekind)};")
            return
        if isinstance(target, ast.VarRef):
            b = self._info(target)
            name = self._cname(b)
            vkind = self._kind_of(b)
            if target.qualifier == "UR":
                tgt = self._tgt(b.name, target.pos)
                if not b.symmetric:
                    raise CompileError(
                        f"'UR {b.name}': not a symmetric variable", target.pos
                    )
                vkind = self._shmem_kind(b, target.pos)
                self.out(
                    f"shmem_{_SHMEM_TYPE[vkind]}_p(&{name}, "
                    f"{conv(code, kind, vkind)}, {tgt});"
                )
                return
            if b.is_array:
                raise CompileError(
                    f"cannot assign a scalar to whole array '{b.name}'",
                    target.pos,
                )
            self.out(f"{name} = {conv(code, kind, vkind)};")
            return
        raise CompileError("invalid assignment target", target.pos)

    def _gen_cast_stmt(self, stmt: ast.CastStmt) -> None:
        code, kind = self.gen_expr(stmt.target)
        target_type = LolType(stmt.to_type)
        if target_type is LolType.NOOB:
            self._gen_store(stmt.target, "lol_noob()", "d")
            return
        tkind = _KIND_OF_TYPE[target_type]
        self._gen_store(stmt.target, conv(code, kind, tkind), tkind)

    # -- control flow ------------------------------------------------------------

    def _gen_switch(self, stmt: ast.Switch) -> None:
        sw = self._fresh("sw")
        m = self._fresh("m")
        self.out(f"{{ lol_value_t {sw} = __it; int {m} = 0;")
        self.indent += 1
        self.out("while (1) {")
        self.indent += 1
        self._gtfo_ok += 1
        for literal, body in stmt.cases:
            code, kind = self.gen_expr(literal)
            self.out(f"if ({m} || lol_eq({sw}, {conv(code, kind, 'd')})) {{")
            self.indent += 1
            self.out(f"{m} = 1;")
            self.gen_block(body)
            self.indent -= 1
            self.out("}")
        self.gen_block(stmt.default)
        self.out("break;")
        self._gtfo_ok -= 1
        self.indent -= 1
        self.out("}")
        self.indent -= 1
        self.out("}")

    def _gen_loop(self, stmt: ast.Loop) -> None:
        opener = "{"
        counter = None
        if stmt.var is not None:
            counter = self._cname(self.bindings.of(stmt))
            opener = f"{{ long long {counter} = 0;"
        self.out(opener)
        self.indent += 1
        self.out("while (1) {")
        self.indent += 1
        self._gtfo_ok += 1
        if stmt.cond is not None:
            code, kind = self.gen_expr(stmt.cond)
            cond = conv(code, kind, "b")
            if stmt.cond_kind == "TIL":
                self.out(f"if ({cond}) break;")
            else:
                self.out(f"if (!{cond}) break;")
        elif stmt.var is None and not any(
            isinstance(s, ast.Gtfo) for s in ast.walk_statements(stmt.body)
        ):
            raise CompileError(
                f"loop '{stmt.label}' has no counter, no condition and no "
                f"GTFO",
                stmt.pos,
            )
        self.gen_block(stmt.body)
        if counter is not None:
            step = "+ 1" if stmt.op == "UPPIN" else "- 1"
            self.out(f"{counter} = {counter} {step};")
        self._gtfo_ok -= 1
        self.indent -= 1
        self.out("}")
        self.indent -= 1
        self.out("}")

    def _gen_lock(self, stmt: ast.LockStmt) -> None:
        if not isinstance(stmt.target, ast.VarRef):
            raise CompileError(
                "SRS computed identifiers are interpret-only", stmt.pos
            )
        name = stmt.target.name
        b = self.bindings.of(stmt.target)
        if b is None or not b.symmetric or not b.shared_lock:
            raise CompileError(
                f"cannot lock '{name}': declare it with 'WE HAS A {name} "
                f"... AN IM SHARIN IT'",
                stmt.pos,
            )
        if stmt.kind == "lock":
            self.out(f"shmem_set_lock(&__lock_{name});")
        elif stmt.kind == "trylock":
            self.out(
                f"__it = lol_from_b(shmem_test_lock(&__lock_{name}) == 0);"
            )
        else:
            self.out(f"shmem_clear_lock(&__lock_{name});")

    # -- functions / program -----------------------------------------------------

    def _gen_function(self, fdef: ast.FuncDef) -> list[str]:
        saved_body, self.body_lines = self.body_lines, []
        saved_indent, self.indent = self.indent, 1
        # The parameters share the body's outermost C block, so a body
        # declaration of a parameter's name is a same-block one.
        self._current_func = fdef.name
        params = ", ".join(
            f"lol_value_t {self._cname(b)}"
            for b in self.bindings.params[id(fdef)]
        ) or "void"
        lines = [f"static lol_value_t lol_fn_{fdef.name}({params})", "{"]
        self.out("lol_value_t __it = lol_noob();")
        self.gen_block(fdef.body)
        self.out("return __it;")
        lines.extend(self.body_lines)
        lines.append("}")
        self.body_lines = saved_body
        self.indent = saved_indent
        self._current_func = None
        return lines

    def generate(self) -> str:
        """Emit the complete self-contained C translation unit."""
        # 1. file-scope data for every top-level and symmetric declaration
        self._declare_functions()
        self._emit_file_scope()
        # 2. functions (prototypes handled by definition order: emit all
        #    definitions before lol_main; forward calls between functions
        #    get prototypes)
        func_blocks: list[list[str]] = []
        protos: list[str] = []
        for stmt in self.program.body:
            if isinstance(stmt, ast.FuncDef):
                params = ", ".join("lol_value_t" for _ in stmt.params) or "void"
                protos.append(f"static lol_value_t lol_fn_{stmt.name}({params});")
                func_blocks.append(self._gen_function(stmt))
        # 3. the program body: lol_main, which main hands to lol_run
        self.body_lines = []
        self.indent = 1
        self.out("shmem_init();")
        self.out("lol_value_t __it = lol_noob();")
        # Reference every file-scope object once so -Wunused-variable stays
        # quiet for symbols a program declares but never touches.
        for gname in sorted(b.name for b in self.bindings.root):
            self.out(f"(void){gname};")
        for b in self.bindings.root:
            if b.shared_lock:
                self.out(f"(void)__lock_{b.name};")
        self.gen_block(self.program.body)
        self.out("(void)__it;")
        self.out("shmem_finalize();")
        self.out("return 0;")

        parts: list[str] = [C_PRELUDE]
        if self.file_lines:
            parts.append("/* -- symmetric & top-level program data -- */")
            parts.extend(self.file_lines)
            parts.append("")
        if protos:
            parts.extend(protos)
            parts.append("")
        for block in func_blocks:
            parts.extend(block)
            parts.append("")
        parts.append("static int lol_main(void)")
        parts.append("{")
        parts.extend(self.body_lines)
        parts.append("}")
        parts.append("")
        parts.append("int main(void) { return lol_run(lol_main); }")
        return "\n".join(parts) + "\n"


def compile_c(
    source_or_program,
    filename: str = "<string>",
    *,
    n_pes: Optional[int] = None,
) -> str:
    """Compile LOLCODE source to a C + OpenSHMEM translation unit.

    With ``n_pes`` the launch width is fixed at compile time: symmetric
    array extents written as ``MAH FRENZ`` arithmetic fold to constants
    (the output is then specific to that width — the native build cache
    keys on the folded C text, so each width gets its own binary).
    """
    tree = source_or_program
    if not isinstance(tree, ast.Program):
        tree = summarize_cached(tree, filename)
    return CBackend(tree, n_pes=n_pes).generate()
