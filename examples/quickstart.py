#!/usr/bin/env python3
"""Quickstart: I CAN HAS SUPERCOMPUTER? in five minutes.

Runs a parallel "hello world" and the paper's Figure 2 barrier example
through the public API, shows the compiled-to-C output a student would
inspect, and demonstrates the race detector on the unsynchronized variant.

Usage::

    python examples/quickstart.py
"""

from repro import run_lolcode
from repro.compiler import compile_c

HELLO = """\
HAI 1.2
BTW every PE runs this same program (SPMD)
VISIBLE "O HAI! I IZ PE " ME " OF " MAH FRENZ
KTHXBYE
"""

FIGURE2 = """\
HAI 1.2
WE HAS A a ITZ SRSLY A NUMBR
WE HAS A b ITZ SRSLY A NUMBR
a R SUM OF ME AN 1
HUGZ
I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ
TXT MAH BFF k, UR b R MAH a
{barrier}
I HAS A c ITZ SUM OF a AN b
VISIBLE "PE " ME " HAZ c=" c
KTHXBYE
"""


def main() -> None:
    print("=== 1. SPMD hello world on 8 PEs " + "=" * 30)
    result = run_lolcode(HELLO, n_pes=8)
    print(result.output, end="")

    print("\n=== 2. Figure 2: symmetric data movement with HUGZ " + "=" * 12)
    result = run_lolcode(FIGURE2.format(barrier="HUGZ"), n_pes=4, seed=1)
    print(result.output, end="")

    print("\n=== 3. The same program WITHOUT the barrier (race!) " + "=" * 11)
    racy = run_lolcode(
        FIGURE2.format(barrier="BTW (HUGZ removed)"),
        n_pes=4,
        seed=1,
        race_detection=True,
    )
    print(racy.output, end="")
    for report in racy.races[:3]:
        print("  [race detector]", report.describe())

    print("\n=== 4. What lcc would emit for the Cray (C + OpenSHMEM) " + "=" * 7)
    c_code = compile_c(FIGURE2.format(barrier="HUGZ"))
    interesting = [
        line
        for line in c_code.splitlines()
        if "shmem_" in line and "inline" not in line and "#" not in line
    ]
    for line in interesting:
        print("   ", line.strip())


if __name__ == "__main__":
    main()
