"""Lexer unit tests: phrase matching, continuations, comments, strings."""

import pytest

from repro.lang.errors import LolSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokType


def kinds(source):
    return [(t.type, t.value) for t in tokenize(source) if t.type is not TokType.EOF]


def kw_values(source):
    return [t.value for t in tokenize(source) if t.type is TokType.KW]


class TestPhraseMatching:
    def test_single_word_keyword(self):
        assert kw_values("HAI") == ["HAI"]

    def test_multiword_keyword(self):
        assert kw_values("SUM OF") == ["SUM OF"]

    def test_longest_match_wins_mah_frenz(self):
        # MAH FRENZ is one keyword; MAH x is qualifier + ident.
        assert kw_values("MAH FRENZ") == ["MAH FRENZ"]
        toks = kinds("MAH x")
        assert toks[0] == (TokType.KW, "MAH")
        assert toks[1] == (TokType.IDENT, "x")

    def test_longest_match_wins_smallr_of(self):
        assert kw_values("SMALLR OF") == ["SMALLR OF"]
        assert kw_values("SMALLR x AN y") == ["SMALLR", "AN"]

    def test_im_srsly_mesin_wif(self):
        assert kw_values("IM SRSLY MESIN WIF x") == ["IM SRSLY MESIN WIF"]
        assert kw_values("IM MESIN WIF x") == ["IM MESIN WIF"]

    def test_txt_mah_bff_an_stuff(self):
        assert kw_values("TXT MAH BFF k AN STUFF") == ["TXT MAH BFF", "AN STUFF"]

    def test_declaration_phrases(self):
        vals = kw_values("WE HAS A x ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 10")
        assert vals == ["WE HAS A", "ITZ SRSLY LOTZ A", "NUMBRS", "AN THAR IZ"]

    def test_an_im_sharin_it(self):
        assert "AN IM SHARIN IT" in kw_values("x AN IM SHARIN IT")

    def test_keywords_case_sensitive(self):
        # lowercase words are identifiers, not keywords
        toks = [t for t in kinds("sum of") if t[0] is not TokType.NEWLINE]
        assert all(t[0] is TokType.IDENT for t in toks)

    def test_identifier_containing_keyword_prefix(self):
        toks = kinds("MEOW")
        assert toks[0] == (TokType.IDENT, "MEOW")

    def test_partial_phrase_falls_back_to_ident(self):
        # 'SUM' alone (without OF) is an identifier.
        toks = kinds("SUM x")
        assert toks[0] == (TokType.IDENT, "SUM")


class TestLiterals:
    def test_int(self):
        assert kinds("42")[0] == (TokType.INT, 42)

    def test_negative_int(self):
        assert kinds("-7")[0] == (TokType.INT, -7)

    def test_float(self):
        assert kinds("0.001")[0] == (TokType.FLOAT, 0.001)

    def test_negative_float(self):
        assert kinds("-2.5")[0] == (TokType.FLOAT, -2.5)

    def test_scientific(self):
        assert kinds("1e3")[0] == (TokType.FLOAT, 1000.0)

    def test_string_plain(self):
        t = kinds('"hello world"')[0]
        assert t[0] is TokType.STRING
        assert t[1] == ["hello world"]

    def test_win_fail_are_keywords(self):
        assert kw_values("WIN FAIL") == ["WIN", "FAIL"]

    @pytest.mark.parametrize(
        "source, col", [("1\u0663", 2), ("1e\u0663", 3), ("-1\u0663", 3)]
    )
    def test_non_ascii_digit_rejected(self, source, col):
        # Only ASCII digits make numbers, also after a leading ASCII digit.
        with pytest.raises(LolSyntaxError, match="unexpected character '\u0663'") as e:
            tokenize(source)
        assert (e.value.pos.line, e.value.pos.col) == (1, col)


class TestStringEscapes:
    def test_newline(self):
        assert kinds('"a:)b"')[0][1] == ["a\nb"]

    def test_tab(self):
        assert kinds('"a:>b"')[0][1] == ["a\tb"]

    def test_quote(self):
        assert kinds('"say :"hi:""')[0][1] == ['say "hi"']

    def test_colon(self):
        assert kinds('"a::b"')[0][1] == ["a:b"]

    def test_hex(self):
        assert kinds('":(41)"')[0][1] == ["A"]

    def test_interpolation(self):
        parts = kinds('"pe :{pe} done"')[0][1]
        assert parts == ["pe ", ("interp", "pe"), " done"]

    def test_unterminated_string(self):
        with pytest.raises(LolSyntaxError):
            tokenize('"oops')

    def test_unknown_escape(self):
        with pytest.raises(LolSyntaxError):
            tokenize('":x"')

    def test_bad_hex(self):
        with pytest.raises(LolSyntaxError):
            tokenize('":(zz)"')


class TestLinesAndComments:
    def test_newline_token(self):
        toks = kinds("HAI\nKTHXBYE")
        assert (TokType.NEWLINE, "\n") in toks

    def test_comma_is_newline(self):
        toks = kinds("x, y")
        assert toks[1][0] is TokType.NEWLINE

    def test_continuation(self):
        toks = kinds("SUM OF a ...\n  AN b")
        assert all(t[0] is not TokType.NEWLINE for t in toks[:-1])

    def test_unicode_ellipsis_continuation(self):
        toks = kinds("SUM OF a …\n  AN b")
        types = [t[0] for t in toks]
        assert types.count(TokType.NEWLINE) == 1  # only the trailing one

    def test_text_after_continuation_rejected(self):
        with pytest.raises(LolSyntaxError):
            tokenize("a ... b\n")

    def test_comment_after_continuation_ok(self):
        toks = kinds("a ... BTW comment\nb")
        assert [t for t in toks if t[0] is TokType.IDENT] == [
            (TokType.IDENT, "a"),
            (TokType.IDENT, "b"),
        ]

    def test_btw_comment(self):
        toks = kinds("x BTW this is ignored\ny")
        idents = [t[1] for t in toks if t[0] is TokType.IDENT]
        assert idents == ["x", "y"]

    def test_obtw_tldr_block_comment(self):
        src = "x\nOBTW\nanything SUM OF here\nTLDR\ny\n"
        idents = [t[1] for t in kinds(src) if t[0] is TokType.IDENT]
        assert idents == ["x", "y"]

    @pytest.mark.parametrize("word", ["fooTLDR", "_TLDR", "9TLDR"])
    def test_tldr_must_be_a_whole_word(self, word):
        src = f"OBTW notes about {word} here\nTLDR\nz"
        assert [t[1] for t in kinds(src) if t[0] is TokType.IDENT] == ["z"]

    def test_obtw_after_code_is_an_identifier(self):
        assert kinds("x OBTW y")[:3] == [
            (TokType.IDENT, "x"),
            (TokType.IDENT, "OBTW"),
            (TokType.IDENT, "y"),
        ]

    def test_code_after_tldr_is_lexed(self):
        toks = tokenize("OBTW\nnotes\nTLDR VISIBLE x\n")
        assert [(t.type, t.value) for t in toks[:2]] == [
            (TokType.KW, "VISIBLE"),
            (TokType.IDENT, "x"),
        ]
        assert (toks[0].pos.line, toks[0].pos.col) == (3, 6)

    def test_phrase_joins_across_continuation(self):
        tok = tokenize("I HAS ...\n  A x")[0]
        assert (tok.type, tok.value) == (TokType.KW, "I HAS A")
        assert (tok.pos.line, tok.pos.col) == (1, 1)

    def test_comma_then_newline_is_one_newline_at_the_comma(self):
        toks = tokenize("x,\ny")
        assert [t.type for t in toks] == [
            TokType.IDENT,
            TokType.NEWLINE,
            TokType.IDENT,
            TokType.NEWLINE,
            TokType.EOF,
        ]
        assert (toks[1].pos.line, toks[1].pos.col) == (1, 2)

    def test_newline_runs_collapse(self):
        toks = kinds("x\n\n\n\ny")
        newlines = [t for t in toks if t[0] is TokType.NEWLINE]
        assert len(newlines) == 2  # one between, one trailing

    def test_bang_token(self):
        toks = kinds('VISIBLE "hi"!')
        assert toks[-2][0] is TokType.BANG

    def test_qmark_token(self):
        toks = kinds("O RLY?")
        assert toks[0] == (TokType.KW, "O RLY")
        assert toks[1][0] is TokType.QMARK


class TestIndexToken:
    def test_apostrophe_z(self):
        toks = kinds("arr'Z 3")
        assert toks[0] == (TokType.IDENT, "arr")
        assert toks[1] == (TokType.KW, "'Z")
        assert toks[2] == (TokType.INT, 3)

    def test_bad_apostrophe(self):
        with pytest.raises(LolSyntaxError):
            tokenize("arr'x")


class TestPositions:
    def test_line_col_tracking(self):
        toks = tokenize("HAI\n  VISIBLE x\n")
        vis = next(t for t in toks if t.is_kw("VISIBLE"))
        assert vis.pos.line == 2
        assert vis.pos.col == 3

    def test_unexpected_character_after_blanks(self):
        with pytest.raises(LolSyntaxError, match="unexpected character '\\$'") as e:
            tokenize("   $")
        assert (e.value.pos.line, e.value.pos.col) == (1, 4)

    def test_eof_takes_last_token_position(self):
        toks = tokenize("HAI\nKTHXBYE\n")
        assert toks[-1].type is TokType.EOF
        assert toks[-1].pos == toks[-2].pos
        assert (toks[-1].pos.line, toks[-1].pos.col) == (2, 8)

    def test_filename_propagates(self):
        toks = tokenize("HAI", filename="prog.lol")
        assert toks[0].pos.filename == "prog.lol"
