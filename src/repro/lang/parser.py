"""Recursive-descent parser for LOLCODE 1.2 + the paper's extensions.

LOLCODE expressions use prefix (Polish) notation, so the expression grammar
is unambiguous without precedence rules: a binary operator keyword is
followed by its two operand expressions separated by an optional ``AN``.
Statements are newline-separated; commas are virtual newlines (handled by
the lexer).

Paper-specific grammar, supported here:

* multi-clause declarations, e.g.
  ``I HAS A pe ITZ A NUMBR AN ITZ ME``
  ``WE HAS A pos_x ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32 AN IM SHARIN IT``
* array indexing ``var'Z expr`` (also valid as an assignment target);
* thread predication, single-statement (``TXT MAH BFF k, <stmt>``) and
  block (``TXT MAH BFF k AN STUFF ... TTYL``) forms;
* ``UR`` / ``MAH`` address-space qualifiers on variable references;
* lock statements ``IM [SRSLY] MESIN WIF <var>`` / ``DUN MESIN WIF <var>``;
* ``HUGZ`` barrier, ``ME`` / ``MAH FRENZ`` PE enumeration;
* Table III math keywords (parsed as ordinary unary/nullary operators).
"""

from __future__ import annotations

from functools import lru_cache

from . import ast
from .errors import LolSyntaxError, SourcePos
from .tokens import (
    BINARY_OPS,
    TYPE_KEYWORDS,
    UNARY_OPS,
    VARIADIC_OPS,
    Token,
    TokType,
)

#: Keywords that terminate a statement block; parse_block stops (without
#: consuming) when it sees one of these.
_BLOCK_TERMINATORS = frozenset(
    {
        "KTHXBYE",
        "OIC",
        "YA RLY",
        "NO WAI",
        "MEBBE",
        "OMG",
        "OMGWTF",
        "IM OUTTA YR",
        "IF U SAY SO",
        "TTYL",
    }
)

#: Keyword phrases that can begin an expression.
_EXPR_START_KWS = (
    frozenset(BINARY_OPS)
    | frozenset(UNARY_OPS)
    | frozenset(VARIADIC_OPS)
    | frozenset(
        {
            "MAEK",
            "SRS",
            "IT",
            "ME",
            "MAH FRENZ",
            "WHATEVR",
            "WHATEVAR",
            "WIN",
            "FAIL",
            "NOOB",
            "I IZ",
            "UR",
            "MAH",
        }
    )
)


class Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.i = 0

    # -- token helpers --------------------------------------------------------

    def peek(self) -> Token:
        # ``advance`` never moves past the final EOF token.
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if self.i < len(self.tokens) - 1:
            self.i += 1
        return tok

    def check_kw(self, *phrases: str) -> bool:
        tok = self.peek()
        return tok.type is TokType.KW and tok.value in phrases

    def match_kw(self, *phrases: str) -> Token | None:
        if self.check_kw(*phrases):
            return self.advance()
        return None

    def expect_kw(self, phrase: str) -> Token:
        tok = self.peek()
        if not tok.is_kw(phrase):
            raise LolSyntaxError(f"expected '{phrase}', found {tok}", tok.pos)
        return self.advance()

    def expect(self, ttype: TokType) -> Token:
        tok = self.peek()
        if tok.type is not ttype:
            raise LolSyntaxError(f"expected {ttype.value}, found {tok}", tok.pos)
        return self.advance()

    def skip_newlines(self) -> None:
        while self.peek().type is TokType.NEWLINE:
            self.advance()

    def end_statement(self) -> None:
        tok = self.peek()
        if tok.type is TokType.NEWLINE:
            self.advance()
        elif tok.type is not TokType.EOF and not (
            tok.type is TokType.KW and tok.value in _BLOCK_TERMINATORS
        ):
            raise LolSyntaxError(f"expected end of statement, found {tok}", tok.pos)

    # -- program --------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        self.skip_newlines()
        pos = self.peek().pos
        self.expect_kw("HAI")
        version: str | None = None
        tok = self.peek()
        if tok.type in (TokType.FLOAT, TokType.INT):
            version = str(self.advance().value)
        elif tok.type is TokType.IDENT:
            version = str(self.advance().value)
        self.end_statement()
        body = self.parse_block()
        self.expect_kw("KTHXBYE")
        self.skip_newlines()
        tok = self.peek()
        if tok.type is not TokType.EOF:
            raise LolSyntaxError(f"unexpected {tok} after KTHXBYE", tok.pos)
        return ast.Program(version, body, pos=pos)

    def parse_block(self) -> list[ast.Stmt]:
        stmts: list[ast.Stmt] = []
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.type is TokType.EOF:
                return stmts
            if tok.type is TokType.KW and tok.value in _BLOCK_TERMINATORS:
                return stmts
            stmts.append(self.parse_statement())
        return stmts

    # -- statements -------------------------------------------------------------

    def parse_statement(self) -> ast.Stmt:
        tok = self.peek()
        pos = tok.pos
        if tok.type is TokType.KW:
            kw = tok.value
            if kw in ("I HAS A", "WE HAS A"):
                return self.parse_declaration()
            if kw == "VISIBLE":
                return self.parse_visible()
            if kw == "GIMMEH":
                self.advance()
                target = self.parse_lvalue()
                self.end_statement()
                return ast.Gimmeh(target, pos=pos)
            if kw == "CAN HAS":
                self.advance()
                lib = self.expect(TokType.IDENT).value
                self.expect(TokType.QMARK)
                self.end_statement()
                return ast.CanHas(str(lib), pos=pos)
            if kw == "O RLY":
                return self.parse_if()
            if kw == "WTF":
                return self.parse_switch()
            if kw == "IM IN YR":
                return self.parse_loop()
            if kw == "GTFO":
                self.advance()
                self.end_statement()
                return ast.Gtfo(pos=pos)
            if kw == "HOW IZ I":
                return self.parse_funcdef()
            if kw == "FOUND YR":
                self.advance()
                expr = self.parse_expression()
                self.end_statement()
                return ast.Return(expr, pos=pos)
            if kw == "HUGZ":
                self.advance()
                self.end_statement()
                return ast.Hugz(pos=pos)
            if kw in ("IM SRSLY MESIN WIF", "IM MESIN WIF", "DUN MESIN WIF"):
                return self.parse_lock(kw)
            if kw == "TXT MAH BFF":
                return self.parse_txt()
        # Fall through: expression statement, assignment, or IS NOW A cast.
        expr = self.parse_expression()
        if self.check_kw("R"):
            self.advance()
            if not isinstance(expr, ast.LValue):
                raise LolSyntaxError("invalid assignment target", pos)
            value = self.parse_expression()
            self.end_statement()
            return ast.Assign(expr, value, pos=pos)
        if self.check_kw("IS NOW A"):
            self.advance()
            to_type = self.parse_type_name()
            if not isinstance(expr, ast.LValue):
                raise LolSyntaxError("invalid cast target", pos)
            self.end_statement()
            return ast.CastStmt(expr, to_type, pos=pos)
        self.end_statement()
        return ast.ExprStmt(expr, pos=pos)

    # -- declarations ----------------------------------------------------------

    def parse_type_name(self) -> str:
        tok = self.peek()
        if tok.type is TokType.KW and str(tok.value) in TYPE_KEYWORDS:
            self.advance()
            return TYPE_KEYWORDS[str(tok.value)]
        raise LolSyntaxError(f"expected a type name, found {tok}", tok.pos)

    def parse_declaration(self) -> ast.VarDecl:
        tok = self.advance()
        pos = tok.pos
        scope = "WE" if tok.value == "WE HAS A" else "I"
        name = str(self.expect(TokType.IDENT).value)
        decl = ast.VarDecl(scope=scope, name=name, pos=pos)
        while True:
            t = self.peek()
            if t.type is TokType.NEWLINE or t.type is TokType.EOF:
                break
            if t.type is not TokType.KW:
                raise LolSyntaxError(
                    f"unexpected {t} in declaration of '{name}'", t.pos
                )
            kw = str(t.value)
            if kw == "ITZ A":
                self.advance()
                decl.static_type = self.parse_type_name()
            elif kw == "ITZ SRSLY A":
                self.advance()
                decl.static_type = self.parse_type_name()
                decl.srsly = True
            elif kw in ("ITZ SRSLY LOTZ A", "ITZ LOTZ A"):
                self.advance()
                decl.static_type = self.parse_type_name()
                decl.srsly = kw == "ITZ SRSLY LOTZ A"
                decl.is_array = True
            elif kw == "ITZ":
                self.advance()
                decl.init = self.parse_expression()
            elif kw == "AN ITZ":
                self.advance()
                decl.init = self.parse_expression()
            elif kw == "AN THAR IZ":
                self.advance()
                decl.size = self.parse_expression()
                decl.is_array = True
            elif kw in ("AN IM SHARIN IT", "IM SHARIN IT"):
                self.advance()
                decl.shared_lock = True
            else:
                raise LolSyntaxError(
                    f"unexpected '{kw}' in declaration of '{name}'", t.pos
                )
        if decl.is_array and decl.size is None:
            raise LolSyntaxError(
                f"array declaration of '{name}' is missing 'AN THAR IZ <size>'",
                pos,
            )
        if decl.shared_lock and decl.scope != "WE":
            raise LolSyntaxError(
                f"'IM SHARIN IT' requires a symmetric 'WE HAS A' declaration "
                f"for '{name}'",
                pos,
            )
        self.end_statement()
        return decl

    # -- simple statements -------------------------------------------------------

    def parse_visible(self) -> ast.Visible:
        pos = self.advance().pos
        args: list[ast.Expr] = []
        newline = True
        while True:
            tok = self.peek()
            if tok.type in (TokType.NEWLINE, TokType.EOF):
                break
            if tok.type is TokType.BANG:
                self.advance()
                newline = False
                break
            args.append(self.parse_expression())
        self.end_statement()
        return ast.Visible(args, newline, pos=pos)

    def parse_lock(self, kw: str) -> ast.LockStmt:
        pos = self.advance().pos
        kind = {
            "IM SRSLY MESIN WIF": "lock",
            "IM MESIN WIF": "trylock",
            "DUN MESIN WIF": "unlock",
        }[kw]
        target = self.parse_lvalue()
        if isinstance(target, ast.Index):
            raise LolSyntaxError(
                "locks protect whole variables, not array elements", pos
            )
        self.end_statement()
        return ast.LockStmt(kind, target, pos=pos)

    def parse_txt(self) -> ast.TxtStmt:
        pos = self.advance().pos
        pe = self.parse_expression()
        if self.match_kw("AN STUFF"):
            # Block form; tolerate a trailing comma/newline after AN STUFF
            # (the paper's n-body listing writes ``TXT MAH BFF k AN STUFF,``).
            self.skip_newlines()
            body = self.parse_block()
            self.expect_kw("TTYL")
            self.end_statement()
            return ast.TxtStmt(pe, body, block=True, pos=pos)
        # Single-statement form: the lexer turned the comma into a newline.
        self.skip_newlines()
        stmt = self.parse_statement()
        return ast.TxtStmt(pe, [stmt], block=False, pos=pos)

    # -- control flow ------------------------------------------------------------

    def parse_if(self) -> ast.If:
        pos = self.advance().pos  # O RLY
        self.expect(TokType.QMARK)
        self.end_statement()
        self.skip_newlines()
        ya_rly: list[ast.Stmt] = []
        mebbe: list[tuple[ast.Expr, list[ast.Stmt]]] = []
        no_wai: list[ast.Stmt] = []
        if self.match_kw("YA RLY"):
            self.end_statement()
            ya_rly = self.parse_block()
        while self.check_kw("MEBBE"):
            mpos = self.advance().pos
            cond = self.parse_expression()
            self.end_statement()
            body = self.parse_block()
            mebbe.append((cond, body))
            del mpos
        if self.match_kw("NO WAI"):
            self.end_statement()
            no_wai = self.parse_block()
        self.expect_kw("OIC")
        self.end_statement()
        return ast.If(ya_rly, mebbe, no_wai, pos=pos)

    def parse_switch(self) -> ast.Switch:
        pos = self.advance().pos  # WTF
        self.expect(TokType.QMARK)
        self.end_statement()
        self.skip_newlines()
        cases: list[tuple[ast.Expr, list[ast.Stmt]]] = []
        default: list[ast.Stmt] = []
        while self.check_kw("OMG"):
            self.advance()
            literal = self.parse_literal()
            self.end_statement()
            body = self.parse_block()
            cases.append((literal, body))
        if self.match_kw("OMGWTF"):
            self.end_statement()
            default = self.parse_block()
        self.expect_kw("OIC")
        self.end_statement()
        return ast.Switch(cases, default, pos=pos)

    def parse_literal(self) -> ast.Expr:
        tok = self.peek()
        if tok.type is TokType.INT:
            self.advance()
            return ast.IntLit(int(tok.value), pos=tok.pos)  # type: ignore[arg-type]
        if tok.type is TokType.FLOAT:
            self.advance()
            return ast.FloatLit(float(tok.value), pos=tok.pos)  # type: ignore[arg-type]
        if tok.type is TokType.STRING:
            self.advance()
            return ast.StringLit(list(tok.value), pos=tok.pos)  # type: ignore[arg-type]
        if tok.is_kw("WIN"):
            self.advance()
            return ast.TroofLit(True, pos=tok.pos)
        if tok.is_kw("FAIL"):
            self.advance()
            return ast.TroofLit(False, pos=tok.pos)
        raise LolSyntaxError(f"expected a literal, found {tok}", tok.pos)

    def parse_loop(self) -> ast.Loop:
        pos = self.advance().pos  # IM IN YR
        label = str(self.expect(TokType.IDENT).value)
        loop = ast.Loop(label=label, pos=pos)
        tok = self.peek()
        if tok.is_kw("UPPIN") or tok.is_kw("NERFIN"):
            loop.op = str(self.advance().value)
            self.expect_kw("YR")
            loop.var = str(self.expect(TokType.IDENT).value)
            tok = self.peek()
        if tok.is_kw("TIL") or tok.is_kw("WILE"):
            loop.cond_kind = str(self.advance().value)
            loop.cond = self.parse_expression()
        self.end_statement()
        loop.body = self.parse_block()
        self.expect_kw("IM OUTTA YR")
        end_label = str(self.expect(TokType.IDENT).value)
        if end_label != label:
            raise LolSyntaxError(
                f"loop label mismatch: 'IM IN YR {label}' closed by "
                f"'IM OUTTA YR {end_label}'",
                pos,
            )
        self.end_statement()
        return loop

    def parse_funcdef(self) -> ast.FuncDef:
        pos = self.advance().pos  # HOW IZ I
        name = str(self.expect(TokType.IDENT).value)
        params: list[str] = []
        if self.match_kw("YR"):
            params.append(str(self.expect(TokType.IDENT).value))
            while self.check_kw("AN"):
                # 'AN YR <param>'
                save = self.i
                self.advance()
                if not self.match_kw("YR"):
                    self.i = save
                    break
                params.append(str(self.expect(TokType.IDENT).value))
        self.end_statement()
        body = self.parse_block()
        self.expect_kw("IF U SAY SO")
        self.end_statement()
        return ast.FuncDef(name, params, body, pos=pos)

    # -- expressions ---------------------------------------------------------------

    def parse_lvalue(self) -> ast.Expr:
        """Parse a (possibly qualified, possibly indexed) variable reference."""
        expr = self.parse_expression()
        if not isinstance(expr, ast.LValue):
            raise LolSyntaxError(
                "expected a variable reference", self.peek().pos
            )
        return expr

    def parse_expression(self) -> ast.Expr:
        tok = self.peek()
        pos = tok.pos
        if tok.type is TokType.INT:
            self.advance()
            return self._postfix(ast.IntLit(int(tok.value), pos=pos))  # type: ignore[arg-type]
        if tok.type is TokType.FLOAT:
            self.advance()
            return self._postfix(ast.FloatLit(float(tok.value), pos=pos))  # type: ignore[arg-type]
        if tok.type is TokType.STRING:
            self.advance()
            return self._postfix(ast.StringLit(list(tok.value), pos=pos))  # type: ignore[arg-type]
        if tok.type is TokType.IDENT:
            self.advance()
            return self._postfix(ast.VarRef(str(tok.value), pos=pos))
        if tok.type is not TokType.KW:
            raise LolSyntaxError(f"expected an expression, found {tok}", pos)

        kw = str(tok.value)
        if kw in BINARY_OPS:
            self.advance()
            lhs = self.parse_expression()
            self.match_kw("AN")  # the separator is optional in LOLCODE 1.2
            rhs = self.parse_expression()
            return ast.BinOp(BINARY_OPS[kw], lhs, rhs, pos=pos)
        if kw in UNARY_OPS:
            self.advance()
            operand = self.parse_expression()
            return ast.UnaryOp(UNARY_OPS[kw], operand, pos=pos)
        if kw in VARIADIC_OPS:
            self.advance()
            operands = [self.parse_expression()]
            while self.match_kw("AN"):
                operands.append(self.parse_expression())
            self.match_kw("MKAY")  # optional at end of statement
            return ast.NaryOp(VARIADIC_OPS[kw], operands, pos=pos)
        if kw == "MAEK":
            self.advance()
            inner = self.parse_expression()
            self.match_kw("A")  # 'A' is optional in common usage
            to_type = self.parse_type_name()
            return ast.Cast(inner, to_type, pos=pos)
        if kw == "SRS":
            self.advance()
            inner = self.parse_expression()
            return self._postfix(ast.SrsRef(inner, pos=pos))
        if kw in ("UR", "MAH"):
            self.advance()
            nxt = self.peek()
            if nxt.is_kw("SRS"):
                self.advance()
                inner = self.parse_expression()
                return self._postfix(ast.SrsRef(inner, qualifier=kw, pos=pos))
            name = str(self.expect(TokType.IDENT).value)
            return self._postfix(ast.VarRef(name, qualifier=kw, pos=pos))
        if kw == "IT":
            self.advance()
            return ast.ItRef(pos=pos)
        if kw == "ME":
            self.advance()
            return ast.MeExpr(pos=pos)
        if kw == "MAH FRENZ":
            self.advance()
            return ast.FrenzExpr(pos=pos)
        if kw == "WHATEVR":
            self.advance()
            return ast.RandomExpr("int", pos=pos)
        if kw == "WHATEVAR":
            self.advance()
            return ast.RandomExpr("float", pos=pos)
        if kw == "WIN":
            self.advance()
            return ast.TroofLit(True, pos=pos)
        if kw == "FAIL":
            self.advance()
            return ast.TroofLit(False, pos=pos)
        if kw == "NOOB":
            self.advance()
            return ast.NoobLit(pos=pos)
        if kw == "I IZ":
            self.advance()
            name = str(self.expect(TokType.IDENT).value)
            args: list[ast.Expr] = []
            if self.match_kw("YR"):
                args.append(self.parse_expression())
                while self.check_kw("AN"):
                    save = self.i
                    self.advance()
                    if not self.match_kw("YR"):
                        self.i = save
                        break
                    args.append(self.parse_expression())
            self.match_kw("MKAY")
            return ast.FuncCall(name, args, pos=pos)
        raise LolSyntaxError(f"expected an expression, found {tok}", pos)

    def _postfix(self, expr: ast.Expr) -> ast.Expr:
        """Apply the ``'Z`` index postfix (binds tighter than any prefix op)."""
        if self.check_kw("'Z"):
            pos = self.advance().pos
            if not isinstance(expr, (ast.VarRef, ast.SrsRef)):
                raise LolSyntaxError("only variables can be indexed with 'Z", pos)
            index = self.parse_expression()
            return ast.Index(expr, index, pos=pos)
        return expr


def parse(source: str, filename: str = "<string>") -> ast.Program:
    """Parse LOLCODE source text into a :class:`~repro.lang.ast.Program`."""
    from .lexer import tokenize

    return Parser(tokenize(source, filename)).parse_program()


@lru_cache(maxsize=64)
def parse_cached(source: str, filename: str = "<string>") -> ast.Program:
    """Memoized :func:`parse`, shared by the launcher and the VM
    compiler.  Safe because every AST consumer (interpreters, planners,
    compilers, formatter) treats the tree as read-only."""
    return parse(source, filename)


def parse_tokens(tokens: list[Token]) -> ast.Program:
    return Parser(tokens).parse_program()
