"""Parser unit tests: grammar coverage for Table I, II, III constructs."""

import pytest

from repro.lang import ast, parse
from repro.lang.errors import LolSyntaxError


def parse_body(body: str) -> list:
    return parse(f"HAI 1.2\n{body}\nKTHXBYE\n").body


def parse_stmt(body: str):
    stmts = parse_body(body)
    assert len(stmts) == 1, stmts
    return stmts[0]


def parse_expr(expr_src: str):
    stmt = parse_stmt(expr_src)
    assert isinstance(stmt, ast.ExprStmt)
    return stmt.expr


class TestProgram:
    def test_version(self):
        prog = parse("HAI 1.2\nKTHXBYE\n")
        assert prog.version == "1.2"

    def test_no_version(self):
        prog = parse("HAI\nKTHXBYE\n")
        assert prog.version is None

    def test_missing_hai(self):
        with pytest.raises(LolSyntaxError):
            parse("VISIBLE 1\nKTHXBYE\n")

    def test_missing_kthxbye(self):
        with pytest.raises(LolSyntaxError):
            parse("HAI 1.2\nVISIBLE 1\n")

    def test_trailing_garbage(self):
        with pytest.raises(LolSyntaxError):
            parse("HAI 1.2\nKTHXBYE\nVISIBLE 1\n")

    def test_leading_comments_ok(self):
        prog = parse("BTW header\nOBTW\nstuff\nTLDR\nHAI 1.2\nKTHXBYE\n")
        assert prog.body == []

    def test_spec_block_comment_after_a_comma(self):
        # The LOLCODE 1.2 spec's own example.
        body = parse_body(
            'I HAS A fish ITZ "boring", OBTW this is a long comment block\n'
            "      see, i have more comments here\n"
            "      and here\n"
            'TLDR, I HAS A cat ITZ "boring"'
        )
        assert [(d.name, d.init.parts) for d in body] == [
            ("fish", ["boring"]),
            ("cat", ["boring"]),
        ]


class TestDeclarations:
    def test_plain(self):
        d = parse_stmt("I HAS A x")
        assert isinstance(d, ast.VarDecl)
        assert d.scope == "I"
        assert d.name == "x"
        assert d.static_type is None

    def test_init(self):
        d = parse_stmt("I HAS A x ITZ 5")
        assert isinstance(d.init, ast.IntLit)

    def test_typed(self):
        d = parse_stmt("I HAS A x ITZ A NUMBR")
        assert d.static_type == "NUMBR"
        assert not d.srsly

    def test_static_typed(self):
        d = parse_stmt("I HAS A x ITZ SRSLY A NUMBAR")
        assert d.static_type == "NUMBAR"
        assert d.srsly

    def test_typed_with_init_clause(self):
        # Paper VI.A: I HAS A pe ITZ A NUMBR AN ITZ ME
        d = parse_stmt("I HAS A pe ITZ A NUMBR AN ITZ ME")
        assert d.static_type == "NUMBR"
        assert isinstance(d.init, ast.MeExpr)

    def test_local_array(self):
        d = parse_stmt("I HAS A v ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32")
        assert d.is_array and d.srsly
        assert d.static_type == "NUMBAR"
        assert isinstance(d.size, ast.IntLit) and d.size.value == 32

    def test_symmetric_scalar(self):
        d = parse_stmt("WE HAS A x ITZ SRSLY A NUMBR")
        assert d.scope == "WE"

    def test_symmetric_shared_array(self):
        d = parse_stmt(
            "WE HAS A p ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32 AN IM SHARIN IT"
        )
        assert d.scope == "WE" and d.is_array and d.shared_lock

    def test_sharin_without_we_rejected(self):
        with pytest.raises(LolSyntaxError):
            parse_body("I HAS A x ITZ A NUMBR AN IM SHARIN IT")

    def test_array_without_size_rejected(self):
        with pytest.raises(LolSyntaxError):
            parse_body("I HAS A x ITZ LOTZ A NUMBRS")

    def test_continuation_in_declaration(self):
        d = parse_stmt("WE HAS A a ITZ SRSLY LOTZ A NUMBRS ...\n  AN THAR IZ 32")
        assert d.is_array and d.size.value == 32


class TestExpressions:
    def test_binary_prefix(self):
        e = parse_expr("SUM OF 1 AN 2")
        assert isinstance(e, ast.BinOp) and e.op == "add"

    def test_an_optional(self):
        e = parse_expr("SUM OF 1 2")
        assert isinstance(e, ast.BinOp)

    def test_nested_binary(self):
        e = parse_expr("QUOSHUNT OF SUM OF ME AN WHATEVAR AN 1000")
        assert e.op == "div"
        assert isinstance(e.lhs, ast.BinOp) and e.lhs.op == "add"
        assert isinstance(e.rhs, ast.IntLit)

    def test_paper_comparisons(self):
        assert parse_expr("BIGGER 3 AN 2").op == "gt"
        assert parse_expr("SMALLR 3 AN 2").op == "lt"

    def test_max_min(self):
        assert parse_expr("BIGGR OF 3 AN 2").op == "max"
        assert parse_expr("SMALLR OF 3 AN 2").op == "min"

    def test_boolean_ops(self):
        assert parse_expr("BOTH OF WIN AN FAIL").op == "and"
        assert parse_expr("EITHER OF WIN AN FAIL").op == "or"
        assert parse_expr("WON OF WIN AN FAIL").op == "xor"

    def test_not(self):
        e = parse_expr("NOT WIN")
        assert isinstance(e, ast.UnaryOp) and e.op == "not"

    def test_all_of_mkay(self):
        e = parse_expr("ALL OF WIN AN WIN AN FAIL MKAY")
        assert isinstance(e, ast.NaryOp) and e.op == "all"
        assert len(e.operands) == 3

    def test_smoosh(self):
        e = parse_expr('SMOOSH "a" AN "b" MKAY')
        assert e.op == "smoosh"

    def test_maek(self):
        e = parse_expr("MAEK 3.7 A NUMBR")
        assert isinstance(e, ast.Cast) and e.to_type == "NUMBR"

    def test_maek_without_a(self):
        e = parse_expr("MAEK 3.7 NUMBR")
        assert isinstance(e, ast.Cast)

    def test_srs(self):
        e = parse_expr('SRS "x"')
        assert isinstance(e, ast.SrsRef)

    def test_table3_unaries(self):
        assert parse_expr("SQUAR OF 3").op == "square"
        assert parse_expr("UNSQUAR OF 3").op == "sqrt"
        assert parse_expr("FLIP OF 3").op == "recip"

    def test_randoms(self):
        assert parse_expr("WHATEVR").kind == "int"
        assert parse_expr("WHATEVAR").kind == "float"

    def test_me_and_frenz(self):
        assert isinstance(parse_expr("ME"), ast.MeExpr)
        assert isinstance(parse_expr("MAH FRENZ"), ast.FrenzExpr)

    def test_index(self):
        e = parse_expr("arr'Z 3")
        assert isinstance(e, ast.Index)
        assert e.base.name == "arr"

    def test_index_with_expr(self):
        e = parse_expr("arr'Z SUM OF i AN 1")
        assert isinstance(e.index, ast.BinOp)

    def test_ur_qualified(self):
        e = parse_expr("UR x")
        assert isinstance(e, ast.VarRef) and e.qualifier == "UR"

    def test_ur_indexed(self):
        e = parse_expr("UR pos_x'Z j")
        assert isinstance(e, ast.Index)
        assert e.base.qualifier == "UR"

    def test_funcall(self):
        e = parse_expr("I IZ addtwo YR 1 AN YR 2 MKAY")
        assert isinstance(e, ast.FuncCall)
        assert e.name == "addtwo" and len(e.args) == 2

    def test_funcall_no_args(self):
        e = parse_expr("I IZ gimme MKAY")
        assert e.args == []


class TestStatements:
    def test_assignment(self):
        s = parse_stmt("x R 5")
        assert isinstance(s, ast.Assign)

    def test_indexed_assignment(self):
        s = parse_stmt("arr'Z i R 5")
        assert isinstance(s.target, ast.Index)

    def test_ur_assignment(self):
        s = parse_stmt("UR b R MAH a")
        assert s.target.qualifier == "UR"
        assert s.value.qualifier == "MAH"

    def test_assign_to_literal_rejected(self):
        with pytest.raises(LolSyntaxError):
            parse_body("5 R 6")

    def test_is_now_a(self):
        s = parse_stmt("x IS NOW A YARN")
        assert isinstance(s, ast.CastStmt) and s.to_type == "YARN"

    def test_visible_multiple_args(self):
        s = parse_stmt('VISIBLE "HAI ITZ " ME " OK"')
        assert isinstance(s, ast.Visible) and len(s.args) == 3

    def test_visible_bang(self):
        s = parse_stmt('VISIBLE "no newline"!')
        assert s.newline is False

    def test_gimmeh(self):
        s = parse_stmt("GIMMEH x")
        assert isinstance(s, ast.Gimmeh)

    def test_can_has(self):
        s = parse_stmt("CAN HAS STDIO?")
        assert isinstance(s, ast.CanHas) and s.library == "STDIO"

    def test_expr_stmt(self):
        s = parse_stmt("SUM OF 1 AN 2")
        assert isinstance(s, ast.ExprStmt)


class TestControlFlow:
    def test_if_structure(self):
        stmts = parse_body(
            "BOTH SAEM x AN 1, O RLY?\n"
            "YA RLY,\n  VISIBLE 1\n"
            "MEBBE BOTH SAEM x AN 2\n  VISIBLE 2\n"
            "NO WAI\n  VISIBLE 3\nOIC"
        )
        assert isinstance(stmts[0], ast.ExprStmt)
        iff = stmts[1]
        assert isinstance(iff, ast.If)
        assert len(iff.ya_rly) == 1
        assert len(iff.mebbe) == 1
        assert len(iff.no_wai) == 1

    def test_if_empty_branches(self):
        stmts = parse_body("WIN, O RLY?\nOIC")
        iff = stmts[1]
        assert iff.ya_rly == [] and iff.no_wai == []

    def test_switch(self):
        s = parse_stmt(
            "WTF?\nOMG 1\n  VISIBLE 1\n  GTFO\nOMG 2\n  VISIBLE 2\n"
            "OMGWTF\n  VISIBLE 3\nOIC"
        )
        assert isinstance(s, ast.Switch)
        assert len(s.cases) == 2
        assert len(s.default) == 1

    def test_switch_non_literal_case_rejected(self):
        with pytest.raises(LolSyntaxError):
            parse_body("WTF?\nOMG x\n  VISIBLE 1\nOIC")

    def test_loop_uppin_til(self):
        s = parse_stmt(
            "IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 10\n"
            "  VISIBLE i\nIM OUTTA YR loop"
        )
        assert isinstance(s, ast.Loop)
        assert s.op == "UPPIN" and s.var == "i" and s.cond_kind == "TIL"

    def test_loop_nerfin_wile(self):
        s = parse_stmt(
            "IM IN YR l NERFIN YR i WILE BIGGER i AN 0\nIM OUTTA YR l"
        )
        assert s.op == "NERFIN" and s.cond_kind == "WILE"

    def test_infinite_loop(self):
        s = parse_stmt("IM IN YR forever\n  GTFO\nIM OUTTA YR forever")
        assert s.op is None and s.cond is None

    def test_loop_label_mismatch(self):
        with pytest.raises(LolSyntaxError):
            parse_body("IM IN YR a\nIM OUTTA YR b")

    def test_nested_loops_same_label(self):
        # The paper's n-body labels every loop "loop".
        s = parse_stmt(
            "IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 2\n"
            "  IM IN YR loop UPPIN YR j TIL BOTH SAEM j AN 2\n"
            "    VISIBLE i\n"
            "  IM OUTTA YR loop\n"
            "IM OUTTA YR loop"
        )
        assert isinstance(s.body[0], ast.Loop)

    def test_funcdef(self):
        s = parse_stmt(
            "HOW IZ I add YR a AN YR b\n  FOUND YR SUM OF a AN b\nIF U SAY SO"
        )
        assert isinstance(s, ast.FuncDef)
        assert s.params == ["a", "b"]
        assert isinstance(s.body[0], ast.Return)


class TestParallelStatements:
    def test_hugz(self):
        assert isinstance(parse_stmt("HUGZ"), ast.Hugz)

    def test_lock_kinds(self):
        assert parse_stmt("IM SRSLY MESIN WIF x").kind == "lock"
        assert parse_stmt("IM MESIN WIF x").kind == "trylock"
        assert parse_stmt("DUN MESIN WIF x").kind == "unlock"

    def test_lock_with_ur(self):
        s = parse_stmt("IM MESIN WIF UR x")
        assert s.target.qualifier == "UR"

    def test_lock_on_element_rejected(self):
        with pytest.raises(LolSyntaxError):
            parse_body("IM SRSLY MESIN WIF x'Z 1")

    def test_txt_single_statement(self):
        s = parse_stmt("TXT MAH BFF k, MAH x R UR x")
        assert isinstance(s, ast.TxtStmt) and not s.block
        assert len(s.body) == 1
        assert isinstance(s.body[0], ast.Assign)

    def test_txt_block(self):
        s = parse_stmt(
            "TXT MAH BFF k AN STUFF\n  UR x R 1\n  UR y R 2\nTTYL"
        )
        assert s.block and len(s.body) == 2

    def test_txt_block_trailing_comma(self):
        # The n-body listing writes 'TXT MAH BFF k AN STUFF,'
        s = parse_stmt("TXT MAH BFF k AN STUFF,\n  UR x R 1\nTTYL")
        assert s.block

    def test_txt_complex_expression_target(self):
        s = parse_stmt("TXT MAH BFF MOD OF SUM OF ME AN 1 AN MAH FRENZ, MAH x R UR x")
        assert isinstance(s.pe, ast.BinOp)

    def test_paper_sum_of_remotes(self):
        # TXT MAH BFF k, MAH x R SUM OF UR y AN UR z
        s = parse_stmt("TXT MAH BFF k, MAH x R SUM OF UR y AN UR z")
        assign = s.body[0]
        assert assign.value.lhs.qualifier == "UR"
        assert assign.value.rhs.qualifier == "UR"


class TestErrorPositions:
    def test_error_carries_position(self):
        try:
            parse("HAI 1.2\nI HAS A\nKTHXBYE\n")
        except LolSyntaxError as exc:
            assert exc.pos.line == 2
        else:  # pragma: no cover
            pytest.fail("expected LolSyntaxError")
