"""Tests for process worlds (true parallelism over shared memory).

Raw Python SPMD workers run through :meth:`WorkerPool.run` and LOLCODE
programs through ``executor="pool"``: each PE is a worker process over
the shared-memory world of :mod:`repro.shmem.runtime_procs`.  The
workers are spawned once per module; the workloads are kept tiny.
"""

import pytest

from repro import run_lolcode
from repro.lang import parse
from repro.lang.errors import LolParallelError
from repro.lang.types import LolType
from repro.launcher import const_eval, plan_from_program
from repro.service.pool import WorkerPool
from repro.shmem import SymmetricPlan

from .conftest import lol

pytestmark = pytest.mark.procs


# -- module-level workers (must be picklable for spawn) -----------------------


def _worker_ring(ctx):
    ctx.local_write("x", ctx.my_pe * 10)
    ctx.barrier_all()
    nxt = (ctx.my_pe + 1) % ctx.n_pes
    return int(ctx.get("x", nxt))


def _worker_locked_increment(ctx):
    ctx.barrier_all()
    for _ in range(20):
        ctx.set_lock("c")
        ctx.put("c", int(ctx.get("c", 0)) + 1, 0)
        ctx.clear_lock("c")
    ctx.barrier_all()
    return int(ctx.local_read("c")) if ctx.my_pe == 0 else None


def _worker_array(ctx):
    ctx.barrier_all()
    ctx.put("a", float(ctx.my_pe + 1), 0, index=ctx.my_pe)
    ctx.barrier_all()
    if ctx.my_pe == 0:
        return [float(v) for v in ctx.local_read("a")]
    return None


def _worker_collectives(ctx):
    total = ctx.allreduce(float(ctx.my_pe + 1), "sum")
    return float(total)


def _worker_crash(ctx):
    if ctx.my_pe == 1:
        raise ValueError("boom")
    ctx.barrier_all()


def _worker_straggles_on_pe1(ctx):
    import time

    if ctx.my_pe == 1:
        time.sleep(30.0)  # far beyond the caller's drain deadline
    return ctx.my_pe


def _plan(**entries) -> SymmetricPlan:
    plan = SymmetricPlan()
    for name, (t, is_array, size, lock) in entries.items():
        plan.add(name, t, is_array, size, lock)
    return plan


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(4) as p:
        yield p


class TestProcExecutorPython:
    """Raw Python workers on :meth:`WorkerPool.run`."""

    def test_scalar_ring(self, pool):
        plan = _plan(x=(LolType.NUMBR, False, 1, False))
        r = pool.run(_worker_ring, 3, plan, barrier_timeout=60)
        assert r.returns == [10, 20, 0]

    def test_locks_across_processes(self, pool):
        plan = _plan(c=(LolType.NUMBR, False, 1, True))
        r = pool.run(_worker_locked_increment, 3, plan, barrier_timeout=60)
        assert r.returns[0] == 60

    def test_shared_array(self, pool):
        plan = _plan(a=(LolType.NUMBAR, True, 4, False))
        r = pool.run(_worker_array, 4, plan, barrier_timeout=60)
        assert r.returns[0] == [1.0, 2.0, 3.0, 4.0]

    def test_collectives(self, pool):
        plan = SymmetricPlan()
        r = pool.run(_worker_collectives, 3, plan, barrier_timeout=60)
        assert r.returns == [6.0, 6.0, 6.0]

    def test_crash_is_reported(self, pool):
        plan = SymmetricPlan()
        with pytest.raises(LolParallelError, match="boom"):
            pool.run(_worker_crash, 2, plan, barrier_timeout=15)

    @pytest.mark.slow
    def test_straggler_ranks_are_named(self, pool):
        """The drain waits out a silence window, not a fixed total: the
        PEs that finished are collected, and the error names exactly the
        ranks that never reported (here PE 1, and only PE 1)."""
        plan = SymmetricPlan()
        with pytest.raises(LolParallelError, match=r"PE\(s\) \[1\]") as info:
            pool.run(_worker_straggles_on_pe1, 3, plan, barrier_timeout=2)
        message = str(info.value)
        assert "completed: [0, 2]" in message

    def test_yarn_symmetric_rejected(self, pool):
        plan = _plan(s=(LolType.YARN, False, 1, False))
        with pytest.raises(LolParallelError, match="numeric"):
            pool.run(_worker_ring, 2, plan)


class TestProcExecutorLolcode:
    def test_lol_program_on_processes(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "x R PRODUKT OF ME AN 10\nHUGZ\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "I HAS A y ITZ A NUMBR\n"
            "TXT MAH BFF k, y R UR x\n"
            "VISIBLE y"
        )
        r = run_lolcode(lol(body), 3, executor="pool", barrier_timeout=60)
        assert r.outputs == ["10\n", "20\n", "0\n"]

    def test_lol_locks_on_processes(self):
        body = (
            "WE HAS A c ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "HUGZ\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\n"
            "  IM SRSLY MESIN WIF c\n"
            "  TXT MAH BFF 0, UR c R SUM OF UR c AN 1\n"
            "  DUN MESIN WIF c\n"
            "IM OUTTA YR l\n"
            "HUGZ\nVISIBLE c"
        )
        r = run_lolcode(lol(body), 3, executor="pool", barrier_timeout=60)
        assert r.outputs[0] == "30\n"

    def test_race_detection_unsupported(self):
        with pytest.raises(LolParallelError):
            run_lolcode(
                lol("VISIBLE 1"), 2, executor="pool", race_detection=True
            )


class TestSymmetricPlanning:
    def test_plan_collects_declarations(self):
        prog = parse(
            lol(
                "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
                "WE HAS A a ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 8\n"
                "I HAS A local ITZ 3"
            )
        )
        plan = plan_from_program(prog, 4)
        assert plan.entries["x"] == (LolType.NUMBR, False, 1, True)
        assert plan.entries["a"] == (LolType.NUMBAR, True, 8, False)
        assert "local" not in plan.entries

    def test_plan_finds_nested_declarations(self):
        prog = parse(
            lol(
                "BOTH SAEM ME AN 0, O RLY?\n"
                "YA RLY,\n  WE HAS A q ITZ SRSLY A NUMBR\nOIC"
            )
        )
        plan = plan_from_program(prog, 2)
        assert "q" in plan.entries

    def test_const_eval_frenz(self):
        prog = parse(
            lol("WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ PRODUKT OF MAH FRENZ AN 4")
        )
        plan = plan_from_program(prog, 3)
        assert plan.entries["a"][2] == 12

    def test_const_eval_me_rejected(self):
        prog = parse(
            lol("WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ SUM OF ME AN 1")
        )
        with pytest.raises(LolParallelError):
            plan_from_program(prog, 2)

    def test_const_eval_variable_rejected(self):
        prog = parse(
            lol("I HAS A n ITZ 4\nWE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ n")
        )
        with pytest.raises(LolParallelError):
            plan_from_program(prog, 2)

    def test_const_eval_arith(self):
        from repro.lang import ast

        expr = ast.BinOp("mul", ast.IntLit(4), ast.IntLit(8))
        assert const_eval(expr, 1) == 32
