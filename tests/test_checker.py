"""Tests for the static checker (lollint)."""

import pytest

from repro.lang.checker import check_source

from .conftest import lol


def codes(body: str) -> list[str]:
    return [d.code for d in check_source(lol(body))]


def errors(body: str) -> list[str]:
    return [d.code for d in check_source(lol(body)) if d.is_error]


class TestErrorCodes:
    def test_clean_program(self):
        assert errors("I HAS A x ITZ 1\nVISIBLE x") == []

    def test_e001_undeclared_use(self):
        assert "E001" in codes("VISIBLE nope")

    def test_e002_undeclared_assign(self):
        assert "E002" in codes("nope R 5")

    def test_e003_ur_outside_txt(self):
        body = "WE HAS A x ITZ SRSLY A NUMBR\nVISIBLE UR x"
        assert "E003" in codes(body)

    def test_e003_not_raised_inside_txt(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR\nx R 1\n"
            "TXT MAH BFF 0, VISIBLE UR x"
        )
        assert "E003" not in codes(body)

    def test_e004_lock_without_sharin(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR\nVISIBLE x\n"
            "IM SRSLY MESIN WIF x\nDUN MESIN WIF x"
        )
        assert "E004" in codes(body)

    def test_e005_untyped_symmetric(self):
        assert "E005" in codes("WE HAS A x ITZ 5\nVISIBLE x")

    def test_e006_unknown_function(self):
        assert "E006" in codes("I IZ nope MKAY")

    def test_e006_wrong_arity(self):
        body = (
            "HOW IZ I f YR a\n  FOUND YR a\nIF U SAY SO\n"
            "VISIBLE I IZ f MKAY"
        )
        assert "E006" in codes(body)

    def test_e007_indexing_scalar(self):
        assert "E007" in codes("I HAS A x ITZ 1\nVISIBLE x'Z 0")

    def test_loop_counter_is_declared(self):
        body = (
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\n"
            "  VISIBLE i\nIM OUTTA YR l"
        )
        assert errors(body) == []

    def test_function_params_declared(self):
        body = "HOW IZ I f YR a\n  FOUND YR a\nIF U SAY SO\nVISIBLE I IZ f YR 1 MKAY"
        assert errors(body) == []

    def test_positions_reported(self):
        diags = check_source("HAI 1.2\nVISIBLE nope\nKTHXBYE\n")
        assert diags[0].pos.line == 2


class TestWarningCodes:
    def test_w101_barrier_in_pe_branch(self):
        body = (
            "BOTH SAEM ME AN 0, O RLY?\n"
            "YA RLY,\n  HUGZ\nOIC"
        )
        assert "W101" in codes(body)

    def test_w101_not_for_uniform_branch(self):
        body = (
            "I HAS A x ITZ 1\n"
            "BOTH SAEM x AN 1, O RLY?\nYA RLY,\n  HUGZ\nOIC"
        )
        assert "W101" not in codes(body)

    def test_w102_figure2_race(self):
        body = (
            "WE HAS A b ITZ SRSLY A NUMBR\n"
            "TXT MAH BFF 0, UR b R 1\n"
            "VISIBLE b"
        )
        assert "W102" in codes(body)

    def test_w102_suppressed_by_hugz(self):
        body = (
            "WE HAS A b ITZ SRSLY A NUMBR\n"
            "TXT MAH BFF 0, UR b R 1\n"
            "HUGZ\n"
            "VISIBLE b"
        )
        assert "W102" not in codes(body)

    def test_w103_lock_never_released(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "x R 1\nIM SRSLY MESIN WIF x\nVISIBLE x"
        )
        assert "W103" in codes(body)

    def test_w103_not_when_released(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "IM SRSLY MESIN WIF x\nx R 1\nDUN MESIN WIF x\nVISIBLE x"
        )
        assert "W103" not in codes(body)

    def test_w104_unused_variable(self):
        assert "W104" in codes("I HAS A never ITZ 1\nVISIBLE 2")

    def test_w104_not_for_used(self):
        assert "W104" not in codes("I HAS A x ITZ 1\nVISIBLE x")

    def test_w104_not_for_string_interpolation(self):
        assert "W104" not in codes(
            'I HAS A x ITZ 1\nVISIBLE "x is :{x}"'
        )


class TestEveryDefinitionIsLive:
    """``HOW IZ I`` binds when it runs, so each definition may be called."""

    @staticmethod
    def outputs(body: str) -> dict[str, list[str]]:
        from repro import run_lolcode

        return {
            engine: run_lolcode(lol(body), n_pes=1, engine=engine).outputs
            for engine in ("ast", "vm")
        }

    def test_redefinition_with_another_arity(self):
        body = (
            "HOW IZ I f YR a\n  FOUND YR a\nIF U SAY SO\n"
            "VISIBLE I IZ f YR 1 MKAY\n"
            "HOW IZ I f YR a AN YR b\n  FOUND YR SUM OF a AN b\nIF U SAY SO\n"
            "VISIBLE I IZ f YR 1 AN YR 2 MKAY"
        )
        assert "E006" not in codes(body)
        assert self.outputs(body) == {"ast": ["1\n3\n"], "vm": ["1\n3\n"]}

    def test_arity_no_definition_has_is_e006(self):
        body = (
            "HOW IZ I f YR a\n  FOUND YR a\nIF U SAY SO\n"
            "HOW IZ I f YR a AN YR b\n  FOUND YR b\nIF U SAY SO\n"
            "VISIBLE I IZ f MKAY"
        )
        [diag] = [d for d in check_source(lol(body)) if d.code == "E006"]
        assert diag.message == "function 'f' wants 1 or 2 arguments, got 0"

    def test_definition_inside_a_branch(self):
        body = (
            "BOTH SAEM 1 AN 1\nO RLY?\n  YA RLY\n"
            "    HOW IZ I g\n      FOUND YR 7\n    IF U SAY SO\nOIC\n"
            "VISIBLE I IZ g MKAY"
        )
        assert "E006" not in codes(body)
        assert self.outputs(body) == {"ast": ["7\n"], "vm": ["7\n"]}


class TestOnPaperExamples:
    def test_barrier_example_clean(self, example_path):
        diags = check_source(example_path("barrier.lol").read_text())
        assert [d for d in diags if d.is_error] == []
        assert "W102" not in [d.code for d in diags]

    def test_nbody_paper_listing_flagged(self, example_path):
        """The static checker also catches the missing-barrier bug in the
        paper's listing (dynamically confirmed in test_paper_examples)."""
        diags = check_source(example_path("nbody2d.lol").read_text())
        assert [d for d in diags if d.is_error] == []

    def test_locks_example_clean(self, example_path):
        diags = check_source(example_path("locks.lol").read_text())
        assert [d for d in diags if d.is_error] == []


class TestLollintCli:
    def test_clean_exit_zero(self, tmp_path, capsys):
        from repro.cli import lollint_main

        p = tmp_path / "ok.lol"
        p.write_text("HAI 1.2\nVISIBLE 1\nKTHXBYE\n")
        assert lollint_main([str(p)]) == 0

    def test_error_exit_two(self, tmp_path, capsys):
        from repro.cli import lollint_main

        p = tmp_path / "bad.lol"
        p.write_text("HAI 1.2\nVISIBLE nope\nKTHXBYE\n")
        assert lollint_main([str(p)]) == 2
        assert "E001" in capsys.readouterr().out

    def test_errors_only_filter(self, tmp_path, capsys):
        from repro.cli import lollint_main

        p = tmp_path / "warn.lol"
        p.write_text("HAI 1.2\nI HAS A unused ITZ 1\nVISIBLE 2\nKTHXBYE\n")
        assert lollint_main(["--errors-only", str(p)]) == 0
        assert "W104" not in capsys.readouterr().out

    def test_lolfmt_roundtrip(self, tmp_path, capsys):
        from repro.cli import lolfmt_main

        p = tmp_path / "x.lol"
        p.write_text("HAI 1.2\nI HAS A x ITZ 1, VISIBLE x\nKTHXBYE\n")
        assert lolfmt_main([str(p)]) == 0
        out = capsys.readouterr().out
        assert "I HAS A x ITZ 1\nVISIBLE x" in out

    def test_lolfmt_in_place(self, tmp_path):
        from repro.cli import lolfmt_main

        p = tmp_path / "x.lol"
        p.write_text("HAI 1.2\nVISIBLE    1\nKTHXBYE\n")
        assert lolfmt_main(["-i", str(p)]) == 0
        assert p.read_text() == "HAI 1.2\nVISIBLE 1\nKTHXBYE\n"
