"""Tests for the C + OpenSHMEM backend (the paper's ``lcc`` target).

Structure tests assert the shape of the emitted C; when gcc is available
the suite also *compiles and executes* serial programs against the
embedded ``-DLOL_SHMEM_SIM`` single-PE OpenSHMEM simulation and diffs
their stdout against the interpreter.
"""

import subprocess

import pytest

from repro.compiler import CompileError, compile_c
from repro.compiler.native import find_cc
from repro.interp import run_serial

from .conftest import lol

GCC = find_cc()


def build_and_run(tmp_path, source: str, stdin: str = "") -> str:
    c_code = compile_c(source)
    c_file = tmp_path / "prog.c"
    exe = tmp_path / "prog"
    c_file.write_text(c_code)
    proc = subprocess.run(
        [
            GCC,
            "-DLOL_SHMEM_SIM",
            "-std=c99",
            "-Wall",
            "-Wextra",
            "-Werror",
            "-O1",
            str(c_file),
            "-o",
            str(exe),
            "-lm",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"C build failed:\n{proc.stderr}\n{c_code}"
    run = subprocess.run(
        [str(exe)], input=stdin, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


class TestEmittedStructure:
    def test_shmem_init_and_finalize(self):
        c = compile_c(lol("VISIBLE 1"))
        assert "shmem_init();" in c
        assert "shmem_finalize();" in c
        assert "#include <shmem.h>" in c

    def test_me_and_frenz_map_to_shmem(self):
        c = compile_c(lol("VISIBLE ME\nVISIBLE MAH FRENZ"))
        assert "shmem_my_pe()" in c
        assert "shmem_n_pes()" in c

    def test_hugz_is_barrier_all(self):
        c = compile_c(lol("HUGZ"))
        assert "shmem_barrier_all();" in c

    def test_symmetric_scalar_is_file_scope_static(self):
        c = compile_c(lol("WE HAS A x ITZ SRSLY A NUMBR"))
        assert "static long long x LOL_SYMMETRIC; /* symmetric */" in c

    def test_symmetric_array(self):
        c = compile_c(
            lol("WE HAS A p ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32")
        )
        assert "static double p[32] LOL_SYMMETRIC; /* symmetric */" in c

    def test_top_level_private_data_is_not_symmetric(self):
        # I HAS A at top level is file-scope (reachable from functions)
        # but per-PE private: it must NOT be placed in the shim section.
        c = compile_c(lol("I HAS A g ITZ 5\nVISIBLE g"))
        assert "static lol_value_t g;" in c
        assert "static lol_value_t g LOL_SYMMETRIC" not in c

    def test_sharin_it_emits_lock_object(self):
        c = compile_c(
            lol(
                "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
                "IM SRSLY MESIN WIF x\nDUN MESIN WIF x"
            )
        )
        assert "static long __lock_x LOL_SYMMETRIC = 0L;" in c
        assert "shmem_set_lock(&__lock_x);" in c
        assert "shmem_clear_lock(&__lock_x);" in c

    def test_trylock_uses_test_lock(self):
        c = compile_c(
            lol(
                "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
                "IM MESIN WIF x\nDUN MESIN WIF x"
            )
        )
        assert "shmem_test_lock(&__lock_x)" in c

    def test_remote_get_put(self):
        c = compile_c(
            lol(
                "WE HAS A x ITZ SRSLY A NUMBAR\n"
                "I HAS A y ITZ A NUMBAR\n"
                "TXT MAH BFF 0 AN STUFF\n"
                "  y R UR x\n"
                "  UR x R 1.5\n"
                "TTYL"
            )
        )
        assert "shmem_double_g(&x, __tgt)" in c
        assert "shmem_double_p(&x," in c

    def test_whole_array_get(self):
        c = compile_c(
            lol(
                "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8\n"
                "I HAS A b ITZ LOTZ A NUMBRS AN THAR IZ 8\n"
                "TXT MAH BFF 0, MAH b R UR a"
            )
        )
        assert "shmem_longlong_get(b, a," in c

    def test_paper_compile_command_shape(self):
        # Section VI.E: lcc code.lol -o executable — one self-contained TU.
        c = compile_c(lol("VISIBLE 1"))
        assert c.count("int main(void)") == 1
        assert "LOL_SHMEM_SIM" in c  # test harness escape hatch documented

    def test_yarn_symmetric_rejected(self):
        with pytest.raises(CompileError):
            compile_c(
                lol(
                    "WE HAS A s ITZ SRSLY A YARN\n"
                    "TXT MAH BFF 0, VISIBLE UR s"
                )
            )

    def test_non_literal_symmetric_size_rejected(self):
        with pytest.raises(CompileError):
            compile_c(
                lol(
                    "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ MAH FRENZ"
                )
            )

    def test_frenz_size_folds_for_known_launch_width(self):
        # The same declaration compiles once the launch width is fixed —
        # this is what lets registry kernels sized THAR IZ MAH FRENZ run
        # under engine="c".
        c = compile_c(
            lol("WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ MAH FRENZ"),
            n_pes=8,
        )
        assert "static long long a[8] LOL_SYMMETRIC; /* symmetric */" in c

    def test_frenz_arithmetic_folds(self):
        c = compile_c(
            lol(
                "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ "
                "PRODUKT OF MAH FRENZ AN 2"
            ),
            n_pes=3,
        )
        assert "static long long a[6] LOL_SYMMETRIC; /* symmetric */" in c

    def test_me_dependent_size_rejected_even_with_width(self):
        with pytest.raises(CompileError, match="ME"):
            compile_c(
                lol("WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ ME"),
                n_pes=4,
            )

    def test_ur_outside_txt_rejected(self):
        with pytest.raises(CompileError):
            compile_c(lol("WE HAS A x ITZ SRSLY A NUMBR\nVISIBLE UR x"))

    def test_function_accessing_main_locals_ok_at_top_level(self):
        # Top-level vars are file-scope in C, so functions can use them.
        c = compile_c(
            lol(
                "I HAS A g ITZ 5\n"
                "HOW IZ I f\n  FOUND YR g\nIF U SAY SO\n"
                "VISIBLE I IZ f MKAY"
            )
        )
        assert "static lol_value_t lol_fn_f(void)" in c


class TestCompileTimeRejections:
    """Program errors the C backend reports before any C is emitted."""

    def test_unknown_function_rejected_at_compile_time(self):
        with pytest.raises(CompileError, match="nope"):
            compile_c(lol("I IZ nope MKAY"))

    def test_bad_arity_rejected_at_compile_time(self):
        with pytest.raises(CompileError, match="wants 1 arguments"):
            compile_c(
                lol("HOW IZ I f YR a\n  FOUND YR a\nIF U SAY SO\nI IZ f MKAY")
            )

    def test_gtfo_outside_any_construct_rejected(self):
        with pytest.raises(CompileError, match="GTFO"):
            compile_c(lol("GTFO"))

    def test_infinite_loop_without_gtfo_rejected(self):
        with pytest.raises(CompileError, match="no GTFO"):
            compile_c(lol("IM IN YR x\n  VISIBLE 1\nIM OUTTA YR x"))


@pytest.mark.requires_cc
class TestCompileAndRunSerial:
    """End-to-end: emit C, build with gcc -Werror, run, diff vs interpreter."""

    CASES = [
        'VISIBLE "HAI WORLD"',
        "VISIBLE 42\nVISIBLE 3.14159\nVISIBLE WIN\nVISIBLE FAIL",
        "I HAS A x ITZ 5\nx R SUM OF x AN 2\nVISIBLE x",
        "I HAS A x ITZ SRSLY A NUMBAR AN ITZ 0.001\nVISIBLE x",
        "VISIBLE QUOSHUNT OF -7 AN 2\nVISIBLE MOD OF -7 AN 3",
        "VISIBLE SUM OF 1 AN 0.5\nVISIBLE PRODUKT OF 3 AN 4",
        "VISIBLE BIGGR OF 3 AN 9\nVISIBLE SMALLR OF 3.5 AN 1.5",
        "VISIBLE SQUAR OF 7\nVISIBLE UNSQUAR OF 81\nVISIBLE FLIP OF 8",
        'VISIBLE SMOOSH "a" AN 1 AN 2.5 MKAY',
        "VISIBLE BOTH SAEM 2 AN 2.0\nVISIBLE DIFFRINT 2 AN 3",
        "VISIBLE BIGGER 4 AN 2\nVISIBLE SMALLR 4 AN 2",
        "VISIBLE BOTH OF WIN AN FAIL\nVISIBLE EITHER OF FAIL AN WIN\nVISIBLE WON OF WIN AN WIN",
        "VISIBLE ALL OF WIN AN 1 MKAY\nVISIBLE ANY OF FAIL AN 0 MKAY\nVISIBLE NOT 0",
        "VISIBLE MAEK 3.99 A NUMBR\nVISIBLE MAEK 2 A NUMBAR\nVISIBLE MAEK 5 A TROOF",
        "I HAS A x ITZ 2\nBOTH SAEM x AN 2, O RLY?\nYA RLY,\n  VISIBLE 1\nNO WAI\n  VISIBLE 0\nOIC",
        "I HAS A x ITZ 3\nBOTH SAEM x AN 1, O RLY?\nYA RLY,\n  VISIBLE 1\nMEBBE BOTH SAEM x AN 3\n  VISIBLE 3\nNO WAI\n  VISIBLE 0\nOIC",
        "2\nWTF?\nOMG 1\n  VISIBLE 1\nOMG 2\n  VISIBLE 2\nOMG 3\n  VISIBLE 3\n  GTFO\nOMGWTF\n  VISIBLE 9\nOIC",
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 5\n  VISIBLE i\nIM OUTTA YR l",
        "IM IN YR l NERFIN YR i WILE BIGGER i AN -4\n  VISIBLE i\nIM OUTTA YR l",
        "I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 5\na'Z 2 R 42\nVISIBLE a'Z 2 \" \" a'Z 0",
        "I HAS A a ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 3\na'Z 0 R 1.5\nVISIBLE a'Z 0",
        "HOW IZ I fact YR n\n  BOTH SAEM n AN 0, O RLY?\n  YA RLY,\n    FOUND YR 1\n  OIC\n  FOUND YR PRODUKT OF n AN I IZ fact YR DIFF OF n AN 1 MKAY\nIF U SAY SO\nVISIBLE I IZ fact YR 6 MKAY",
        "I HAS A x ITZ 3.5\nx IS NOW A NUMBR\nVISIBLE x",
        "SUM OF 1 AN 2\nVISIBLE IT",
        'VISIBLE SUM OF "3" AN "4"',
        'VISIBLE "a:)b:>c"',
        "WE HAS A x ITZ SRSLY A NUMBR\nx R 7\nVISIBLE x\nVISIBLE ME\nVISIBLE MAH FRENZ\nHUGZ\nVISIBLE x",
        "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\nIM MESIN WIF x\nVISIBLE IT\nDUN MESIN WIF x",
        # serial self-predication exercises the shmem g/p code paths
        "WE HAS A x ITZ SRSLY A NUMBAR\nTXT MAH BFF 0 AN STUFF\n  UR x R 2.5\n  VISIBLE UR x\nTTYL",
    ]

    @pytest.mark.parametrize("body", CASES, ids=range(len(CASES)))
    def test_case(self, tmp_path, body):
        src = lol(body)
        expected = run_serial(src)
        got = build_and_run(tmp_path, src)
        assert got == expected

    def test_gimmeh(self, tmp_path):
        src = lol('I HAS A x\nGIMMEH x\nVISIBLE "got " x')
        got = build_and_run(tmp_path, src, stdin="hello\n")
        assert got == "got hello\n"

    def test_ring_example_serial(self, tmp_path, example_path):
        # The Section VI.A listing degenerates gracefully to 1 PE.
        src = example_path("ring.lol").read_text()
        expected = run_serial(src)
        got = build_and_run(tmp_path, src)
        assert got == expected

    @pytest.mark.slow
    def test_nbody_serial_matches_shape(self, tmp_path, example_path):
        # Random streams differ (rand() vs Python rng), so compare shape:
        # same line count, same header lines.
        src = example_path("nbody2d_fixed.lol").read_text()
        got = build_and_run(tmp_path, src)
        lines = got.splitlines()
        assert lines[0] == "HAI ITZ 0 I HAS PARTICLZ 2 MUV"
        assert lines[1] == "O HAI ITZ 0, MAH PARTICLZ IZ:"
        assert len(lines) == 2 + 32
        for line in lines[2:]:
            x, y = line.split()
            float(x), float(y)  # parseable coordinates
