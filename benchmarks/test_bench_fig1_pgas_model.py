"""[F1] Paper Figure 1 — the PGAS memory model.

The figure shows N PEs, each owning a partition of the global address
space containing the same symmetric symbols (shared arrays + statically
declared variables), remotely reachable from any PE.

This bench (i) verifies the partitioning invariants the figure depicts,
(ii) prints the reproduced partition map, and (iii) quantifies the
figure's implicit asymmetry — local access is cheap, remote access goes
through the network — both measured on the runtime and modeled on the
paper's machines.
"""

import pytest

from repro import run_lolcode
from repro.lang.types import LolType
from repro.noc import cray_xc40, epiphany_iii, local_vs_remote_ratio
from repro.shmem import ShmemContext, SymmetricPlan, run_spmd

from .conftest import lol, print_table

FIG1_PROGRAM = lol(
    "WE HAS A shared_array ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 16\n"
    "WE HAS A static_var ITZ SRSLY A NUMBR\n"
    "static_var R ME\n"
    "shared_array'Z 0 R PRODUKT OF ME AN 1.5\n"
    "HUGZ\n"
    "BTW every PE can reach every partition\n"
    "I HAS A sum ITZ A NUMBR\n"
    "IM IN YR l UPPIN YR k TIL BOTH SAEM k AN MAH FRENZ\n"
    "  TXT MAH BFF k, sum R SUM OF sum AN UR static_var\n"
    "IM OUTTA YR l\n"
    "VISIBLE sum"
)


def test_fig1_partitioned_global_address_space():
    n = 4
    result = run_lolcode(FIG1_PROGRAM, n, seed=1)
    # Each PE summed 0+1+2+3 across all partitions: global reachability.
    assert result.outputs == ["6\n"] * n

    rows = [
        [f"PE {pe}", "shared_array[16] + static_var", f"static_var={pe}"]
        for pe in range(n)
    ]
    print_table(
        "Figure 1: PGAS partitions (one symmetric set per PE)",
        ["partition", "symmetric symbols", "private value"],
        rows,
    )


def test_fig1_partition_accounting():
    """Every PE's partition holds exactly the same symbols and bytes."""

    def worker(ctx: ShmemContext):
        ctx.barrier_all()
        return ctx.world.heap.partition_nbytes(ctx.my_pe)

    plan = SymmetricPlan()
    plan.add("shared_array", LolType.NUMBAR, True, 16, False)
    plan.add("static_var", LolType.NUMBR, False, 1, False)
    r = run_spmd(worker, 4, plan=plan)
    assert len(set(r.returns)) == 1  # symmetric: identical everywhere
    assert r.returns[0] == 16 * 8 + 8


def test_fig1_modeled_asymmetry():
    """The figure's point: remote access costs orders of magnitude more
    than local access on real PGAS hardware."""
    rows = []
    for machine in (epiphany_iii(), cray_xc40()):
        ratio = local_vs_remote_ratio(machine)
        rows.append([machine.name, f"{ratio:,.0f}x"])
        assert ratio > 10
    print_table(
        "Figure 1 (implied): remote/local access cost ratio, modeled",
        ["machine", "remote get vs local load"],
        rows,
    )


def _array_plan() -> SymmetricPlan:
    plan = SymmetricPlan()
    plan.add("a", LolType.NUMBAR, True, 64, False)
    return plan


@pytest.mark.benchmark(group="fig1")
def test_local_read_cost(benchmark):
    def worker(ctx: ShmemContext):
        for _ in range(2000):
            ctx.local_read("a", index=7)

    plan = _array_plan()
    benchmark(lambda: run_spmd(worker, 1, plan=plan))


@pytest.mark.benchmark(group="fig1")
def test_remote_get_cost(benchmark):
    def worker(ctx: ShmemContext):
        ctx.barrier_all()
        other = (ctx.my_pe + 1) % ctx.n_pes
        for _ in range(2000):
            ctx.get("a", other, index=7)
        ctx.barrier_all()

    plan = _array_plan()
    benchmark(lambda: run_spmd(worker, 2, plan=plan))
