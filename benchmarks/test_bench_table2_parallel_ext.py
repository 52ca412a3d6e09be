"""[T2] Paper Table II — parallel and distributed computing extensions.

Regenerates the table as a conformance matrix over SPMD probe programs on
4 PEs, then times the primitive costs on the runtime substrate: barrier
latency vs PE count, one-sided put/get, and lock acquire/release.
"""

import pytest

from repro import run_lolcode
from repro.lang.types import LolType
from repro.shmem import World, ShmemContext, SymmetricPlan, run_spmd

from .conftest import lol, print_table

TABLE2_PROBES = [
    (
        "MAH FRENZ (PE count)",
        "VISIBLE MAH FRENZ",
        ["4\n"] * 4,
    ),
    (
        "ME (PE identity)",
        "VISIBLE ME",
        ["0\n", "1\n", "2\n", "3\n"],
    ),
    (
        "IM SRSLY MESIN WIF / DUN MESIN WIF",
        "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\nHUGZ\n"
        "IM SRSLY MESIN WIF x\nTXT MAH BFF 0, UR x R SUM OF UR x AN 1\n"
        "DUN MESIN WIF x\nHUGZ\n"
        "BOTH SAEM ME AN 0, O RLY?\nYA RLY,\n  VISIBLE x\nOIC",
        None,  # checked below: PE0 prints 4
    ),
    (
        "IM MESIN WIF ..., O RLY? (trylock)",
        "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
        "BOTH SAEM ME AN 0, O RLY?\nYA RLY,\n"
        "  IM MESIN WIF x, O RLY?\n  YA RLY,\n    VISIBLE \"WIN\"\n"
        "    DUN MESIN WIF x\n  OIC\nOIC",
        None,
    ),
    (
        "HUGZ (collective barrier)",
        "HUGZ\nHUGZ\nVISIBLE \"ok\"",
        ["ok\n"] * 4,
    ),
    (
        "TXT MAH BFF [expr], [stmt]",
        "WE HAS A a ITZ SRSLY A NUMBR\na R ME\nHUGZ\n"
        "I HAS A y ITZ A NUMBR\nTXT MAH BFF 0, y R UR a\nVISIBLE y",
        ["0\n"] * 4,
    ),
    (
        "TXT MAH BFF ... AN STUFF / TTYL",
        "WE HAS A a ITZ SRSLY A NUMBR\nWE HAS A b ITZ SRSLY A NUMBR\n"
        "a R 1\nb R 2\nHUGZ\nI HAS A s ITZ A NUMBR\n"
        "TXT MAH BFF 0 AN STUFF\n  s R SUM OF UR a AN UR b\nTTYL\nVISIBLE s",
        ["3\n"] * 4,
    ),
    (
        "ITZ SRSLY A (static typing)",
        "I HAS A x ITZ SRSLY A NUMBR\nx R 3.9\nVISIBLE x",
        ["3\n"] * 4,
    ),
    (
        "WE HAS A ... IM SHARIN IT",
        "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\nVISIBLE \"ok\"",
        ["ok\n"] * 4,
    ),
    (
        "WE HAS A ... LOTZ A ... THAR IZ",
        "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8\n"
        "a'Z 3 R ME\nHUGZ\nVISIBLE a'Z 3",
        ["0\n", "1\n", "2\n", "3\n"],
    ),
    (
        "UR / MAH qualifiers",
        "WE HAS A x ITZ SRSLY A NUMBR\nx R ME\nHUGZ\n"
        "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
        "I HAS A y ITZ A NUMBR\nTXT MAH BFF k, y R SUM OF UR x AN MAH x\n"
        "VISIBLE y",
        ["1\n", "3\n", "5\n", "3\n"],
    ),
    (
        "[var]'Z [expr] indexing",
        "I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 4\n"
        "a'Z SUM OF 1 AN 1 R 9\nVISIBLE a'Z 2",
        ["9\n"] * 4,
    ),
]


def test_table2_conformance_matrix():
    rows = []
    for construct, body, expected in TABLE2_PROBES:
        result = run_lolcode(lol(body), 4, seed=1)
        if expected is not None:
            assert result.outputs == expected, (construct, result.outputs)
        elif "VISIBLE x" in body:
            assert result.outputs[0] == "4\n", (construct, result.outputs)
        else:
            assert result.outputs[0] == "WIN\n", (construct, result.outputs)
        rows.append([construct, "VERIFIED"])
    print_table(
        "Table II: parallel & distributed extensions (reproduced, 4 PEs)",
        ["construct", "status"],
        rows,
    )


@pytest.mark.benchmark(group="table2-barrier")
@pytest.mark.parametrize("n_pes", [2, 4, 8])
def test_barrier_latency(benchmark, n_pes):
    """HUGZ cost vs PE count on the thread executor (100 barriers)."""

    def worker(ctx: ShmemContext):
        for _ in range(100):
            ctx.barrier_all()

    def run():
        run_spmd(worker, n_pes)

    benchmark(run)


@pytest.mark.benchmark(group="table2-rma")
def test_put_get_cost(benchmark):
    """One-sided put+get round on 2 PEs (1000 rounds)."""

    def worker(ctx: ShmemContext):
        ctx.barrier_all()
        other = (ctx.my_pe + 1) % ctx.n_pes
        for i in range(1000):
            ctx.put("x", i, other)
            ctx.get("x", other)
        ctx.barrier_all()

    plan = SymmetricPlan()
    plan.add("x", LolType.NUMBR, False, 1, False)
    benchmark(lambda: run_spmd(worker, 2, plan=plan))


@pytest.mark.benchmark(group="table2-locks")
def test_lock_throughput(benchmark):
    """Contended lock acquire/release (4 PEs x 200 criticals)."""

    def worker(ctx: ShmemContext):
        ctx.barrier_all()
        for _ in range(200):
            ctx.set_lock("c")
            ctx.put("c", int(ctx.get("c", 0)) + 1, 0)
            ctx.clear_lock("c")
        ctx.barrier_all()
        return ctx.local_read("c") if ctx.my_pe == 0 else None

    plan = SymmetricPlan()
    plan.add("c", LolType.NUMBR, False, 1, True)

    def run():
        r = run_spmd(worker, 4, plan=plan)
        assert r.returns[0] == 800

    benchmark(run)
