"""Canonical formatter / pretty-printer for extended LOLCODE.

Produces normalized source from an AST: two-space indentation, one
statement per line, ``AN`` separators spelled out, long lines *not*
re-wrapped (the ``...`` continuation is purely lexical).  The guarantee is
*round-trip stability*: ``parse(format(parse(src)))`` equals
``parse(src)`` — property-tested over the whole corpus.
"""

from __future__ import annotations

from . import ast
from .errors import LolRuntimeError
from .tokens import BINARY_OPS, UNARY_OPS, VARIADIC_OPS

_BIN_KW = {v: k for k, v in BINARY_OPS.items()}
_UN_KW = {v: k for k, v in UNARY_OPS.items()}
_NARY_KW = {v: k for k, v in VARIADIC_OPS.items()}


def _escape(text: str) -> str:
    out = []
    for ch in text:
        if ch == ":":
            out.append("::")
        elif ch == '"':
            out.append(':"')
        elif ch == "\n":
            out.append(":)")
        elif ch == "\t":
            out.append(":>")
        elif ch == "\a":
            out.append(":o")
        else:
            out.append(ch)
    return "".join(out)


def format_expr(node: ast.Expr) -> str:
    if isinstance(node, ast.IntLit):
        return str(node.value)
    if isinstance(node, ast.FloatLit):
        text = repr(node.value)
        return text
    if isinstance(node, ast.StringLit):
        parts = []
        for part in node.parts:
            if isinstance(part, str):
                parts.append(_escape(part))
            else:
                parts.append(":{" + part[1] + "}")
        return '"' + "".join(parts) + '"'
    if isinstance(node, ast.TroofLit):
        return "WIN" if node.value else "FAIL"
    if isinstance(node, ast.NoobLit):
        return "NOOB"
    if isinstance(node, ast.ItRef):
        return "IT"
    if isinstance(node, ast.MeExpr):
        return "ME"
    if isinstance(node, ast.FrenzExpr):
        return "MAH FRENZ"
    if isinstance(node, ast.RandomExpr):
        return "WHATEVR" if node.kind == "int" else "WHATEVAR"
    if isinstance(node, ast.VarRef):
        prefix = f"{node.qualifier} " if node.qualifier else ""
        return f"{prefix}{node.name}"
    if isinstance(node, ast.SrsRef):
        prefix = f"{node.qualifier} " if node.qualifier else ""
        return f"{prefix}SRS {format_expr(node.expr)}"
    if isinstance(node, ast.Index):
        return f"{format_expr(node.base)}'Z {format_expr(node.index)}"
    if isinstance(node, ast.BinOp):
        kw = _BIN_KW[node.op]
        return f"{kw} {format_expr(node.lhs)} AN {format_expr(node.rhs)}"
    if isinstance(node, ast.UnaryOp):
        return f"{_UN_KW[node.op]} {format_expr(node.operand)}"
    if isinstance(node, ast.NaryOp):
        kw = _NARY_KW[node.op]
        inner = " AN ".join(format_expr(e) for e in node.operands)
        return f"{kw} {inner} MKAY"
    if isinstance(node, ast.Cast):
        return f"MAEK {format_expr(node.expr)} A {node.to_type}"
    if isinstance(node, ast.FuncCall):
        if not node.args:
            return f"I IZ {node.name} MKAY"
        args = " AN ".join(f"YR {format_expr(a)}" for a in node.args)
        return f"I IZ {node.name} {args} MKAY"
    raise LolRuntimeError(f"cannot format expression {type(node).__name__}")


class Formatter:
    def __init__(self, indent_width: int = 2) -> None:
        self.indent_width = indent_width
        self.lines: list[str] = []
        self.depth = 0

    def line(self, text: str) -> None:
        self.lines.append(" " * (self.indent_width * self.depth) + text)

    def fmt_block(self, body: list[ast.Stmt]) -> None:
        self.depth += 1
        for stmt in body:
            self.fmt_stmt(stmt)
        self.depth -= 1

    def fmt_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            parts = [f"{stmt.scope} HAS A {stmt.name}"]
            if stmt.is_array and stmt.static_type:
                kw = "ITZ SRSLY LOTZ A" if stmt.srsly else "ITZ LOTZ A"
                parts.append(f"{kw} {stmt.static_type}S")
                parts.append(f"AN THAR IZ {format_expr(stmt.size)}")
            elif stmt.static_type:
                kw = "ITZ SRSLY A" if stmt.srsly else "ITZ A"
                parts.append(f"{kw} {stmt.static_type}")
            if stmt.init is not None:
                joiner = "AN ITZ" if stmt.static_type else "ITZ"
                parts.append(f"{joiner} {format_expr(stmt.init)}")
            if stmt.shared_lock:
                parts.append("AN IM SHARIN IT")
            self.line(" ".join(parts))
        elif isinstance(stmt, ast.Assign):
            self.line(f"{format_expr(stmt.target)} R {format_expr(stmt.value)}")
        elif isinstance(stmt, ast.CastStmt):
            self.line(f"{format_expr(stmt.target)} IS NOW A {stmt.to_type}")
        elif isinstance(stmt, ast.ExprStmt):
            self.line(format_expr(stmt.expr))
        elif isinstance(stmt, ast.Visible):
            args = " ".join(format_expr(a) for a in stmt.args)
            bang = "" if stmt.newline else "!"
            self.line(f"VISIBLE {args}{bang}".rstrip())
        elif isinstance(stmt, ast.Gimmeh):
            self.line(f"GIMMEH {format_expr(stmt.target)}")
        elif isinstance(stmt, ast.CanHas):
            self.line(f"CAN HAS {stmt.library}?")
        elif isinstance(stmt, ast.If):
            self.line("O RLY?")
            self.line("YA RLY")
            self.fmt_block(stmt.ya_rly)
            for cond, body in stmt.mebbe:
                self.line(f"MEBBE {format_expr(cond)}")
                self.fmt_block(body)
            if stmt.no_wai:
                self.line("NO WAI")
                self.fmt_block(stmt.no_wai)
            self.line("OIC")
        elif isinstance(stmt, ast.Switch):
            self.line("WTF?")
            for lit, body in stmt.cases:
                self.line(f"OMG {format_expr(lit)}")
                self.fmt_block(body)
            if stmt.default:
                self.line("OMGWTF")
                self.fmt_block(stmt.default)
            self.line("OIC")
        elif isinstance(stmt, ast.Loop):
            head = f"IM IN YR {stmt.label}"
            if stmt.var is not None:
                head += f" {stmt.op} YR {stmt.var}"
            if stmt.cond is not None:
                head += f" {stmt.cond_kind} {format_expr(stmt.cond)}"
            self.line(head)
            self.fmt_block(stmt.body)
            self.line(f"IM OUTTA YR {stmt.label}")
        elif isinstance(stmt, ast.Gtfo):
            self.line("GTFO")
        elif isinstance(stmt, ast.FuncDef):
            head = f"HOW IZ I {stmt.name}"
            if stmt.params:
                head += " " + " AN ".join(f"YR {p}" for p in stmt.params)
            self.line(head)
            self.fmt_block(stmt.body)
            self.line("IF U SAY SO")
        elif isinstance(stmt, ast.Return):
            self.line(f"FOUND YR {format_expr(stmt.expr)}")
        elif isinstance(stmt, ast.Hugz):
            self.line("HUGZ")
        elif isinstance(stmt, ast.LockStmt):
            kw = {
                "lock": "IM SRSLY MESIN WIF",
                "trylock": "IM MESIN WIF",
                "unlock": "DUN MESIN WIF",
            }[stmt.kind]
            self.line(f"{kw} {format_expr(stmt.target)}")
        elif isinstance(stmt, ast.TxtStmt):
            if stmt.block:
                self.line(f"TXT MAH BFF {format_expr(stmt.pe)} AN STUFF")
                self.fmt_block(stmt.body)
                self.line("TTYL")
            else:
                inner = Formatter(self.indent_width)
                inner.fmt_stmt(stmt.body[0])
                self.line(
                    f"TXT MAH BFF {format_expr(stmt.pe)}, "
                    + inner.lines[0].lstrip()
                )
                for extra in inner.lines[1:]:
                    self.lines.append(
                        " " * (self.indent_width * self.depth) + extra
                    )
        else:
            raise LolRuntimeError(
                f"cannot format statement {type(stmt).__name__}"
            )


def format_program(program: ast.Program) -> str:
    f = Formatter()
    version = f" {program.version}" if program.version else ""
    f.line(f"HAI{version}")
    for stmt in program.body:
        f.fmt_stmt(stmt)
    f.line("KTHXBYE")
    return "\n".join(f.lines) + "\n"


def format_source(source: str, filename: str = "<string>") -> str:
    from .parser import parse

    return format_program(parse(source, filename))
