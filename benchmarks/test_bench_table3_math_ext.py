"""[T3] Paper Table III — additional LOLCODE extensions (math/random).

Regenerates the table by checking every keyword against its C-library
reference semantics (rand / randf / v*v / sqrt / 1/v) and times the math
kernel the n-body inner loop is built from.
"""

import math

import pytest

from repro.interp import run_serial
from repro.interp.values import unop

from .conftest import lol, print_table


def test_table3_conformance_matrix():
    rows = []

    # WHATEVR: rand() — integer in [0, 2^31-1)
    out = run_serial(lol("I HAS A r ITZ WHATEVR\nVISIBLE BOTH OF NOT "
                         "SMALLR r AN 0 AN SMALLR r AN 2147483647"))
    assert out == "WIN\n"
    rows.append(["WHATEVR", "rand()", "VERIFIED"])

    # WHATEVAR: randf() — float in [0, 1)
    out = run_serial(lol("I HAS A r ITZ WHATEVAR\nVISIBLE BOTH OF NOT "
                         "SMALLR r AN 0.0 AN SMALLR r AN 1.0"))
    assert out == "WIN\n"
    rows.append(["WHATEVAR", "randf()", "VERIFIED"])

    # SQUAR OF: var * var
    for v in (0, 3, -7, 2.5):
        assert unop("square", v) == v * v
    rows.append(["SQUAR OF [var]", "var * var", "VERIFIED"])

    # UNSQUAR OF: sqrt(var)
    for v in (0, 4, 81, 2.25):
        assert math.isclose(unop("sqrt", v), math.sqrt(v))
    rows.append(["UNSQUAR OF [var]", "sqrt(var)", "VERIFIED"])

    # FLIP OF: 1/var
    for v in (1, 4, 0.5, -2):
        assert math.isclose(unop("recip", v), 1.0 / v)
    rows.append(["FLIP OF [var]", "1/var", "VERIFIED"])

    print_table(
        "Table III: additional LOLCODE extensions (reproduced)",
        ["keyword", "reference semantics", "status"],
        rows,
    )


NBODY_KERNEL = lol(
    "I HAS A acc ITZ SRSLY A NUMBAR\n"
    "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 2000\n"
    "  I HAS A dx ITZ SUM OF 1.5 AN MAEK i A NUMBAR\n"
    "  I HAS A dy ITZ 2.5\n"
    "  I HAS A inv_d ITZ FLIP OF UNSQUAR OF SUM OF SQUAR OF dx "
    "AN SQUAR OF dy\n"
    "  acc R SUM OF acc AN PRODUKT OF inv_d AN SQUAR OF inv_d\n"
    "IM OUTTA YR l\n"
    "VISIBLE acc"
)


@pytest.mark.benchmark(group="table3")
def test_math_kernel_interpreter(benchmark):
    """The 1/d^3 kernel from Section VI.D, interpreted."""
    out = benchmark(run_serial, NBODY_KERNEL)
    assert out.strip() != ""


@pytest.mark.benchmark(group="table3")
def test_math_kernel_vm(benchmark):
    """Same kernel through the bytecode VM (ablation of the paper's
    interpreter-vs-compiler claim at expression level)."""
    from repro import run_lolcode

    def run():
        return run_lolcode(NBODY_KERNEL, 1, engine="vm").output

    out = benchmark(run)
    assert out == run_serial(NBODY_KERNEL)
