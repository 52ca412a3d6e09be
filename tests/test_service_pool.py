"""Tests for the warm worker pool (``repro.service.pool``).

These spawn real OS processes; the pool is reused across a module's
tests where possible to keep the suite fast — warmness is the point.
"""

import os
import signal
import time

import pytest

from repro import run_lolcode
from repro.lang.errors import LolParallelError
from repro.lang.types import LolType
from repro.service.pool import (
    DEFAULT_MAX_LOCKS,
    SegmentPool,
    WorkerPool,
    _size_class,
    get_default_pool,
    shutdown_default_pool,
)
from repro.shmem import SymmetricPlan

from .conftest import lol

pytestmark = [pytest.mark.procs, pytest.mark.service]


# -- module-level workers (must be picklable for spawn) -----------------------


def _worker_ring(ctx):
    ctx.local_write("x", ctx.my_pe * 10)
    ctx.barrier_all()
    nxt = (ctx.my_pe + 1) % ctx.n_pes
    return int(ctx.get("x", nxt))


def _worker_locked_increment(ctx):
    ctx.barrier_all()
    for _ in range(10):
        ctx.set_lock("c")
        ctx.put("c", int(ctx.get("c", 0)) + 1, 0)
        ctx.clear_lock("c")
    ctx.barrier_all()
    return int(ctx.local_read("c")) if ctx.my_pe == 0 else None


def _worker_pid(ctx):
    return os.getpid()


def _worker_raise(ctx):
    if ctx.my_pe == 1:
        raise ValueError("boom on PE 1")
    ctx.barrier_all()
    return None


def _worker_hard_crash(ctx):
    if ctx.my_pe == 1:
        os._exit(3)
    ctx.barrier_all()
    return None


def _worker_raise_while_locked(ctx):
    ctx.barrier_all()
    ctx.set_lock("c")
    raise ValueError("died holding the lock")


def _worker_sleep_then_report(ctx):
    if ctx.my_pe == 1:
        time.sleep(30.0)
    return ctx.my_pe


def _ring_plan():
    plan = SymmetricPlan()
    plan.add("x", LolType.NUMBR, False, 1, False)
    return plan


def _lock_plan():
    plan = SymmetricPlan()
    plan.add("c", LolType.NUMBR, False, 1, True)
    return plan


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(4) as p:
        yield p


class TestWorkerPool:
    def test_ring(self, pool):
        result = pool.run(_worker_ring, 4, _ring_plan())
        assert result.returns == [10, 20, 30, 0]

    def test_workers_persist_across_jobs(self, pool):
        pids_a = pool.run(_worker_pid, 4, SymmetricPlan()).returns
        pids_b = pool.run(_worker_pid, 4, SymmetricPlan()).returns
        assert pids_a == pids_b  # same warm processes served both jobs
        assert len(set(pids_a)) == 4
        assert pids_a == pool.worker_pids()

    def test_locks_across_jobs(self, pool):
        for _ in range(2):
            result = pool.run(_worker_locked_increment, 4, _lock_plan())
            assert result.returns[0] == 40

    def test_segments_recycled_by_size_class(self, pool):
        before = pool.segments.created
        pool.run(_worker_ring, 4, _ring_plan())
        pool.run(_worker_ring, 4, _ring_plan())
        assert pool.segments.created == before  # same class: only reuse
        assert pool.segments.reused >= 2

    def test_fewer_pes_than_pool_size(self, pool):
        result = pool.run(_worker_ring, 2, _ring_plan())
        assert result.returns == [10, 0]

    def test_job_larger_than_pool_rejected(self, pool):
        with pytest.raises(LolParallelError, match="pool has 4 workers"):
            pool.run(_worker_ring, 5, _ring_plan())

    def test_error_propagates_and_pool_survives(self, pool):
        with pytest.raises(LolParallelError, match="PE 1.*boom on PE 1"):
            pool.run(_worker_raise, 4, SymmetricPlan(), barrier_timeout=10.0)
        # The barrier was aborted by the failing PE; the next job must
        # still run cleanly on the same (reset) primitives.
        result = pool.run(_worker_ring, 4, _ring_plan())
        assert result.returns == [10, 20, 30, 0]

    def test_crashed_worker_replaced_transparently(self, pool):
        pids = pool.run(_worker_pid, 4, SymmetricPlan()).returns
        replaced_before = pool.workers_replaced
        os.kill(pids[2], signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while pool._workers[2].process.is_alive():
            assert time.monotonic() < deadline, "worker did not die"
            time.sleep(0.05)
        result = pool.run(_worker_pid, 4, SymmetricPlan())
        assert pool.workers_replaced == replaced_before + 1
        assert result.returns[2] != pids[2]
        assert result.returns[:2] == pids[:2]  # siblings kept their slots

    def test_error_while_holding_lock_does_not_poison_the_bank(self, pool):
        """The lock bank is persistent: a job erroring inside a locked
        region must release its locks on the way out, or every later
        job mapping that slot would block until timeout."""
        with pytest.raises(LolParallelError, match="died holding the lock"):
            pool.run(
                _worker_raise_while_locked,
                2,
                _lock_plan(),
                barrier_timeout=10.0,
            )
        result = pool.run(
            _worker_locked_increment, 4, _lock_plan(), barrier_timeout=10.0
        )
        assert result.returns[0] == 40

    def test_mid_job_hard_crash_names_the_pe(self, pool):
        rebuilds_before = pool.rebuilds
        with pytest.raises(
            LolParallelError, match=r"(?s)PE 1.*worker process died"
        ):
            pool.run(
                _worker_hard_crash, 4, SymmetricPlan(), barrier_timeout=10.0
            )
        # A mid-job death may have poisoned the shared primitives
        # (locks, atomics mutex), so the whole bank is rebuilt — and
        # the next job must run cleanly on the fresh one.
        assert pool.rebuilds == rebuilds_before + 1
        result = pool.run(_worker_ring, 4, _ring_plan())
        assert result.returns == [10, 20, 30, 0]

    @pytest.mark.slow
    def test_straggler_named_and_replaced(self, pool):
        with pytest.raises(LolParallelError, match=r"PE\(s\) \[1\]"):
            pool.run(
                _worker_sleep_then_report,
                2,
                SymmetricPlan(),
                barrier_timeout=1.0,
            )
        result = pool.run(_worker_ring, 2, _ring_plan())
        assert result.returns == [10, 0]

    def test_closed_pool_rejects_jobs(self):
        p = WorkerPool(1)
        p.close()
        with pytest.raises(LolParallelError, match="closed"):
            p.run(_worker_ring, 1, _ring_plan())


class TestSegmentPool:
    def test_size_classes_are_powers_of_two(self):
        assert _size_class(1) == 4096
        assert _size_class(4096) == 4096
        assert _size_class(4097) == 8192
        assert _size_class(100_000) == 131072

    def test_acquire_release_reuses(self):
        segments = SegmentPool()
        try:
            a = segments.acquire(100)
            segments.release(a)
            b = segments.acquire(200)  # same class -> same segment back
            assert b.name == a.name
            assert segments.created == 1
            assert segments.reused == 1
            c = segments.acquire(10_000)  # different class -> new segment
            assert c.name != a.name
            assert segments.created == 2
        finally:
            segments.close()


class TestPoolExecutor:
    """``executor="pool"`` through the launcher (the public surface)."""

    def test_lol_program_matches_thread(self):
        src = lol(
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "x R PRODUKT OF ME AN 7\n"
            "HUGZ\n"
            "I HAS A nxt ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF nxt AN STUFF\n"
            "  VISIBLE UR x\n"
            "TTYL\n"
        )
        pooled = run_lolcode(src, 4, executor="pool", seed=3)
        threaded = run_lolcode(src, 4, executor="thread", seed=3)
        assert pooled.outputs == threaded.outputs

    def test_trace_parity_with_thread_executor(self):
        src = lol(
            "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
            "HUGZ\n"
            "a'Z ME R PRODUKT OF ME AN 2\n"
            "HUGZ\n"
            "VISIBLE a'Z 0\n"
        )
        pooled = run_lolcode(src, 4, executor="pool", seed=1, trace=True)
        threaded = run_lolcode(src, 4, executor="thread", seed=1, trace=True)
        assert pooled.trace.summary() == threaded.trace.summary()

    def test_race_detection_rejected(self):
        with pytest.raises(LolParallelError, match="thread executor"):
            run_lolcode(
                lol("VISIBLE ME"), 2, executor="pool", race_detection=True
            )

    def test_yarn_symmetric_rejected(self):
        src = lol('WE HAS A s ITZ SRSLY A YARN\ns R "hi"')
        with pytest.raises(LolParallelError, match="numeric"):
            run_lolcode(src, 2, executor="pool")

    def test_default_pool_grows_for_larger_jobs(self):
        shutdown_default_pool()
        try:
            run_lolcode(lol("VISIBLE ME"), 1, executor="pool")
            assert get_default_pool().size == 1
            run_lolcode(lol("VISIBLE ME"), 3, executor="pool")
            assert get_default_pool().size == 3
            # Smaller jobs keep the grown pool.
            run_lolcode(lol("VISIBLE ME"), 2, executor="pool")
            assert get_default_pool().size == 3
        finally:
            shutdown_default_pool()

    def test_default_pool_grows_its_lock_bank(self):
        # One more IM SHARIN IT symbol than the default bank holds: the
        # default pool grows its lock bank the way it grows its size.
        n = DEFAULT_MAX_LOCKS + 1
        last = f"c{n - 1}"
        src = lol(
            "".join(
                f"WE HAS A c{i} ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
                for i in range(n)
            )
            + f"HUGZ\nIM SRSLY MESIN WIF {last}\n"
            f"TXT MAH BFF 0, UR {last} R SUM OF UR {last} AN 1\n"
            f"DUN MESIN WIF {last}\nHUGZ\nVISIBLE {last}"
        )
        shutdown_default_pool()
        try:
            pooled = run_lolcode(src, 2, executor="pool")
            assert get_default_pool().max_locks == n
        finally:
            shutdown_default_pool()
        threaded = run_lolcode(src, 2, executor="thread")
        assert pooled.outputs == threaded.outputs == ["2\n", "0\n"]

    def test_explicit_pool_rejects_more_locks_than_its_bank(self):
        plan = SymmetricPlan()
        plan.add("a", LolType.NUMBR, False, 1, True)
        plan.add("b", LolType.NUMBR, False, 1, True)
        with WorkerPool(1, max_locks=1) as pool:
            with pytest.raises(LolParallelError, match="lock bank holds 1"):
                pool.run(_worker_ring, 1, plan)

    def test_stdin_and_seed_plumbing(self):
        src = lol(
            "I HAS A rank ITZ ME\n"
            "I HAS A line ITZ A YARN\n"
            "GIMMEH line\n"
            'VISIBLE "PE :{rank} GOT :{line}"\n'
        )
        result = run_lolcode(
            src,
            2,
            executor="pool",
            stdin_lines=[["alpha"], ["beta"]],
        )
        assert result.outputs == ["PE 0 GOT alpha\n", "PE 1 GOT beta\n"]
