"""Unit tests for the type system (repro.lang.types) and operator kernels
(repro.interp.values) used by all three interpreter engines alike."""

import math

import pytest

from repro.interp.values import FLOP_COST, arith, binop, equals, naryop, unop
from repro.lang.errors import LolRuntimeError, LolTypeError
from repro.lang.types import (
    LolType,
    cast,
    coerce_static,
    default_value,
    format_yarn,
    numeric_result_type,
    parse_type,
    to_numbar,
    to_numbr,
    to_troof,
    type_of,
)


class TestTypeOf:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, LolType.NOOB),
            (True, LolType.TROOF),
            (False, LolType.TROOF),
            (0, LolType.NUMBR),
            (-5, LolType.NUMBR),
            (0.0, LolType.NUMBAR),
            ("", LolType.YARN),
            ("cat", LolType.YARN),
        ],
    )
    def test_dynamic_types(self, value, expected):
        assert type_of(value) is expected

    def test_bool_is_troof_not_numbr(self):
        # Python bool is a subclass of int; LOLCODE must see TROOF.
        assert type_of(True) is LolType.TROOF

    def test_unknown_host_type_rejected(self):
        with pytest.raises(LolTypeError):
            type_of(object())


class TestDefaults:
    @pytest.mark.parametrize(
        "t,expected",
        [
            (LolType.NUMBR, 0),
            (LolType.NUMBAR, 0.0),
            (LolType.YARN, ""),
            (LolType.TROOF, False),
            (LolType.NOOB, None),
        ],
    )
    def test_default_values(self, t, expected):
        assert default_value(t) == expected
        assert type_of(default_value(t)) is t or t is LolType.NOOB


class TestYarnFormatting:
    def test_numbar_two_decimals(self):
        assert format_yarn(3.14159) == "3.14"
        assert format_yarn(2.0) == "2.00"
        assert format_yarn(-0.5) == "-0.50"

    def test_troof_spelling(self):
        assert format_yarn(True) == "WIN"
        assert format_yarn(False) == "FAIL"

    def test_noob_is_empty(self):
        assert format_yarn(None) == ""


class TestCasting:
    def test_yarn_to_numbr_whitespace(self):
        assert to_numbr("  42 ") == 42

    def test_yarn_to_numbar(self):
        assert to_numbar("2.5") == 2.5

    def test_bad_yarn_numeric(self):
        with pytest.raises(LolTypeError):
            to_numbr("one")
        with pytest.raises(LolTypeError):
            to_numbar("half")

    def test_numbar_truncates_toward_zero(self):
        assert to_numbr(3.9) == 3
        assert to_numbr(-3.9) == -3

    def test_troof_to_numeric(self):
        assert to_numbr(True) == 1
        assert to_numbar(False) == 0.0

    def test_noob_explicit_casts(self):
        assert cast(None, LolType.NUMBR) == 0
        assert cast(None, LolType.NUMBAR) == 0.0
        assert cast(None, LolType.YARN) == ""
        assert cast(None, LolType.TROOF) is False

    def test_cast_to_noob(self):
        assert cast(5, LolType.NOOB) is None

    def test_troof_casting_table(self):
        assert to_troof("") is False
        assert to_troof("0") is True  # non-empty YARN is WIN (1.2 rule)
        assert to_troof(0) is False
        assert to_troof(0.0) is False
        assert to_troof(-1) is True

    def test_parse_type(self):
        assert parse_type("NUMBR") is LolType.NUMBR
        with pytest.raises(LolTypeError):
            parse_type("INTEGER")


class TestStaticCoercion:
    def test_numeric_widening(self):
        assert coerce_static(2, LolType.NUMBAR, "x") == 2.0
        assert coerce_static(2.9, LolType.NUMBR, "x") == 2

    def test_troof_to_numeric(self):
        assert coerce_static(True, LolType.NUMBR, "x") == 1

    def test_numeric_to_troof(self):
        assert coerce_static(5, LolType.TROOF, "x") is True

    def test_yarn_rejected_into_numeric(self):
        with pytest.raises(LolTypeError):
            coerce_static("5", LolType.NUMBR, "x")

    def test_numeric_rejected_into_yarn(self):
        with pytest.raises(LolTypeError):
            coerce_static(5, LolType.YARN, "x")

    def test_same_type_passthrough(self):
        assert coerce_static("cat", LolType.YARN, "x") == "cat"

    def test_numeric_result_type(self):
        assert numeric_result_type(LolType.NUMBR, LolType.NUMBR) is LolType.NUMBR
        assert numeric_result_type(LolType.NUMBR, LolType.NUMBAR) is LolType.NUMBAR


class TestArithKernels:
    def test_int_ops_stay_int(self):
        for op in ("add", "sub", "mul", "div", "mod", "max", "min"):
            assert isinstance(arith(op, 7, 2), int)

    def test_float_contaminates(self):
        assert isinstance(arith("add", 7, 2.0), float)

    def test_yarn_operands_parse(self):
        assert arith("add", "3", "4") == 7
        assert arith("add", "3.5", 1) == 4.5

    def test_trunc_division_table(self):
        assert arith("div", 7, 2) == 3
        assert arith("div", -7, 2) == -3
        assert arith("div", 7, -2) == -3
        assert arith("div", -7, -2) == 3

    def test_c_modulo_table(self):
        assert arith("mod", 7, 3) == 1
        assert arith("mod", -7, 3) == -1
        assert arith("mod", 7, -3) == 1
        assert arith("mod", -7, -3) == -1

    def test_float_mod_is_fmod(self):
        assert arith("mod", 7.5, 2.0) == math.fmod(7.5, 2.0)

    def test_division_by_zero(self):
        with pytest.raises(LolRuntimeError):
            arith("div", 1, 0)
        with pytest.raises(LolRuntimeError):
            arith("mod", 1, 0)

    def test_unknown_op(self):
        with pytest.raises(LolRuntimeError):
            arith("pow", 1, 2)
        with pytest.raises(LolRuntimeError):
            binop("nand", True, False)
        with pytest.raises(LolRuntimeError):
            unop("neg", 1)
        with pytest.raises(LolRuntimeError):
            naryop("median", [1])


class TestEqualsKernel:
    def test_cross_numeric(self):
        assert equals(2, 2.0)
        assert not equals(2, 2.5)

    def test_yarn_vs_number_false(self):
        assert not equals("2", 2)

    def test_troof_vs_number(self):
        # TROOF and NUMBR are different types: not SAEM (1.2 rule).
        assert not equals(True, 1)

    def test_noob_equals_noob(self):
        assert equals(None, None)


class TestUnopKernels:
    def test_square_preserves_int(self):
        assert unop("square", 5) == 25
        assert isinstance(unop("square", 5), int)

    def test_square_of_yarn(self):
        assert unop("square", "3") == 9

    def test_sqrt_negative(self):
        with pytest.raises(LolRuntimeError):
            unop("sqrt", -4)

    def test_recip_zero(self):
        with pytest.raises(LolRuntimeError):
            unop("recip", 0)

    def test_not_truthiness(self):
        assert unop("not", "") is True
        assert unop("not", "x") is False


class TestNaryKernels:
    def test_smoosh_formats(self):
        assert naryop("smoosh", [1, " ", 2.5, " ", True]) == "1 2.50 WIN"

    def test_all_any_empty_behaviour(self):
        assert naryop("all", []) is True
        assert naryop("any", []) is False


class TestFlopCosts:
    def test_sqrt_more_expensive(self):
        assert FLOP_COST["sqrt"] > FLOP_COST["add"]

    def test_all_arith_ops_costed(self):
        for op in ("add", "sub", "mul", "div", "mod", "square", "sqrt", "recip"):
            assert FLOP_COST[op] >= 1
