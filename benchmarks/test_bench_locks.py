"""[E-B] Section VI.B — parallel synchronization with locks.

The contended-counter workload: every PE increments a shared counter on
PE 0 under the implied IM SHARIN IT lock.  Verifies exactness (the whole
point of the lock), compares against an *unlocked* racy baseline and an
atomic-fetch-add alternative, and times lock throughput vs PE count.
"""

import pytest

from repro import run_lolcode
from repro.lang.types import LolType
from repro.shmem import ShmemContext, SymmetricPlan, run_spmd

from .conftest import lol, print_table

INCREMENTS = 50


def locked_source() -> str:
    return lol(
        "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\nHUGZ\n"
        f"IM IN YR l UPPIN YR i TIL BOTH SAEM i AN {INCREMENTS}\n"
        "  IM SRSLY MESIN WIF x\n"
        "  TXT MAH BFF 0, UR x R SUM OF UR x AN 1\n"
        "  DUN MESIN WIF x\n"
        "IM OUTTA YR l\nHUGZ\n"
        "BOTH SAEM ME AN 0, O RLY?\nYA RLY,\n  VISIBLE x\nOIC"
    )


def test_locked_counter_exact():
    rows = []
    for n_pes in (2, 4, 8):
        r = run_lolcode(locked_source(), n_pes, seed=1)
        expected = n_pes * INCREMENTS
        assert r.outputs[0] == f"{expected}\n"
        rows.append([n_pes, expected, "EXACT"])
    print_table(
        "Section VI.B locked counter (paper's lock example, verified)",
        ["PEs", "final count", "status"],
        rows,
    )


def test_unlocked_baseline_is_racy():
    """Ablation: drop the lock and the race detector fires (the counter
    may still be correct by luck — the *detector* is the reliable
    signal, which is exactly the pedagogical point)."""
    src = lol(
        "WE HAS A x ITZ SRSLY A NUMBR\nHUGZ\n"
        f"IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 5\n"
        "  TXT MAH BFF 0, UR x R SUM OF UR x AN 1\n"
        "IM OUTTA YR l\n"
    )
    r = run_lolcode(src, 4, seed=1, race_detection=True)
    assert any(rep.symbol == "x" for rep in r.races)


def _x_plan() -> SymmetricPlan:
    plan = SymmetricPlan()
    plan.add("x", LolType.NUMBR, False, 1, False)
    return plan


def test_atomic_alternative_exact():
    """The OpenSHMEM backend the paper mentions ('other routines are used
    implicitly') offers atomics; fetch-add gives the lock example's
    semantics without a critical section."""

    def worker(ctx: ShmemContext):
        ctx.barrier_all()
        for _ in range(INCREMENTS):
            ctx.atomic_fetch_add("x", 1, 0)
        ctx.barrier_all()
        return ctx.local_read("x") if ctx.my_pe == 0 else None

    r = run_spmd(worker, 4, plan=_x_plan())
    assert r.returns[0] == 4 * INCREMENTS


@pytest.mark.benchmark(group="locks")
@pytest.mark.parametrize("n_pes", [2, 4])
def test_locked_counter_wallclock(benchmark, n_pes):
    src = locked_source()
    benchmark(lambda: run_lolcode(src, n_pes, seed=1))


@pytest.mark.benchmark(group="locks")
def test_atomic_counter_wallclock(benchmark):
    def worker(ctx: ShmemContext):
        ctx.barrier_all()
        for _ in range(INCREMENTS):
            ctx.atomic_fetch_add("x", 1, 0)
        ctx.barrier_all()

    plan = _x_plan()
    benchmark(lambda: run_spmd(worker, 4, plan=plan))
