"""Unit tests for the OpenSHMEM-like runtime substrate (repro.shmem),
exercised directly through the Python API (LOLCODE only where the warm
thread team's output is compared against the ``ast`` engine)."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import run_lolcode
from repro.lang.errors import LolParallelError, LolRuntimeError
from repro.lang.types import LolType
from repro.shmem import (
    OpKind,
    ShmemContext,
    SymmetricHeap,
    SymmetricPlan,
    World,
    run_spmd,
    serial_context,
)
from repro.shmem.api import HandoffBarrier
from repro.shmem.locks import LockTable

from .conftest import lol


def _plan(**entries) -> SymmetricPlan:
    """A plan declaring ``name=(type, is_array, size)`` for each entry."""
    plan = SymmetricPlan()
    for name, (lol_type, is_array, size) in entries.items():
        plan.add(name, lol_type, is_array, size, False)
    return plan


X = (LolType.NUMBR, False, 1)


class TestSymmetricHeap:
    def test_alloc_scalar_all_pes(self):
        heap = SymmetricHeap(_plan(x=X), 4)
        obj = heap.lookup("x")
        assert len(obj.per_pe) == 4
        assert all(cell.read() == 0 for cell in obj.per_pe)

    def test_alloc_is_idempotent(self):
        plan = _plan(x=X)
        plan.add("x", LolType.NUMBR, False, 1, False)
        heap = SymmetricHeap(plan, 2)
        a = heap.lookup("x")
        b = heap.lookup("x")
        assert a is b

    def test_alloc_shape_conflict_rejected(self):
        plan = _plan(x=X)
        with pytest.raises(LolParallelError):
            plan.add("x", LolType.NUMBAR, False, 1, False)
        with pytest.raises(LolParallelError):
            plan.add("x", LolType.NUMBR, True, 4, False)

    def test_array_backed_by_numpy(self):
        heap = SymmetricHeap(_plan(a=(LolType.NUMBAR, True, 8)), 2)
        obj = heap.lookup("a")
        assert isinstance(obj.cell(0).data, np.ndarray)
        assert obj.cell(0).data.dtype == np.float64

    def test_numbr_array_dtype(self):
        heap = SymmetricHeap(_plan(a=(LolType.NUMBR, True, 4)), 1)
        obj = heap.lookup("a")
        assert obj.cell(0).data.dtype == np.int64

    def test_yarn_array_is_list(self):
        heap = SymmetricHeap(_plan(a=(LolType.YARN, True, 3)), 1)
        obj = heap.lookup("a")
        assert obj.cell(0).read(0) == ""

    def test_zero_size_rejected(self):
        plan = SymmetricPlan()
        with pytest.raises(LolParallelError):
            plan.add("a", LolType.NUMBR, True, 0, False)

    def test_lookup_unknown(self):
        heap = SymmetricHeap(SymmetricPlan(), 1)
        with pytest.raises(LolParallelError):
            heap.lookup("nope")

    def test_partition_nbytes(self):
        heap = SymmetricHeap(_plan(a=(LolType.NUMBAR, True, 10), x=X), 2)
        assert heap.partition_nbytes(0) == 10 * 8 + 8


class TestPutGet:
    def test_scalar_put_get(self):
        def main(ctx: ShmemContext):
            ctx.local_write("x", ctx.my_pe * 10)
            ctx.barrier_all()
            nxt = (ctx.my_pe + 1) % ctx.n_pes
            return ctx.get("x", nxt)

        r = run_spmd(main, 4, plan=_plan(x=X))
        assert r.returns == [10, 20, 30, 0]

    def test_array_element_put(self):
        def main(ctx: ShmemContext):
            ctx.barrier_all()
            # everyone writes its pe into slot pe of PE 0
            ctx.put("a", ctx.my_pe + 1, 0, index=ctx.my_pe)
            ctx.barrier_all()
            return ctx.local_read("a") if ctx.my_pe == 0 else None

        r = run_spmd(main, 4, plan=_plan(a=(LolType.NUMBR, True, 4)))
        assert list(r.returns[0]) == [1, 2, 3, 4]

    def test_whole_array_get_is_copy(self):
        def main(ctx: ShmemContext):
            ctx.local_write("a", 7, index=0)
            got = ctx.get("a", ctx.my_pe)
            got[0] = 999  # mutating the copy must not touch the heap
            return ctx.local_read("a", index=0)

        r = run_spmd(main, 1, plan=_plan(a=(LolType.NUMBR, True, 2)))
        assert r.returns == [7]

    def test_get_out_of_range_pe(self):
        ctx = serial_context(_plan(x=X))
        with pytest.raises(LolParallelError):
            ctx.get("x", 5)

    def test_index_on_scalar_rejected(self):
        ctx = serial_context(_plan(x=X))
        with pytest.raises(LolRuntimeError):
            ctx.get("x", 0, index=1)

    def test_slice_put_get(self):
        def main(ctx: ShmemContext):
            nxt = (ctx.my_pe + 1) % ctx.n_pes
            ctx.put_slice("a", np.arange(3.0) + 10 * ctx.my_pe, nxt, slice(1, 7, 2))
            ctx.barrier_all()
            got = ctx.get_slice("a", nxt, slice(0, 6, 1))
            got[:] = -1.0  # a copy: the heap keeps its values
            return ctx.get_slice("a", ctx.my_pe, slice(0, 6, 1)).tolist()

        r = run_spmd(main, 2, plan=_plan(a=(LolType.NUMBAR, True, 6)))
        assert r.returns == [
            [0.0, 10.0, 0.0, 11.0, 0.0, 12.0],
            [0.0, 0.0, 0.0, 1.0, 0.0, 2.0],
        ]

    def test_slice_checks_target_and_bounds_like_elements(self):
        ctx = serial_context(_plan(a=(LolType.NUMBR, True, 4)))
        with pytest.raises(LolParallelError, match="out of range"):
            ctx.get_slice("a", 1, slice(0, 2, 1))
        with pytest.raises(
            LolRuntimeError, match=r"^a: array index 4 out of range \[0, 4\)$"
        ):
            ctx.put_slice("a", 0, 0, slice(2, 5, 1))
        assert ctx.get_slice("a", 0, slice(0, 4, 1)).tolist() == [0, 0, 0, 0]

    def test_slice_counts_one_op_per_element(self):
        from repro import obs

        def main(ctx: ShmemContext):
            ctx.barrier_all()
            nxt = (ctx.my_pe + 1) % ctx.n_pes
            ctx.put_slice("a", 1.5, nxt, slice(0, 5, 1))
            ctx.get_slice("a", nxt, slice(1, 4, 2))
            ctx.barrier_all()

        obs.arm("metrics")
        try:
            registry = obs.get_registry()
            before = registry.snapshot(collect=False)
            r = run_spmd(
                main, 2, plan=_plan(a=(LolType.NUMBAR, True, 6)), trace=True
            )
            delta = obs.diff_snapshots(before, registry.snapshot(collect=False))
        finally:
            obs.disarm()
        assert delta["lol_comm_ops_total"]["series"] == {
            '[["op", "get"]]': 4, '[["op", "put"]]': 10,
        }
        assert r.trace.total(OpKind.PUT) == 10
        assert r.trace.total(OpKind.GET) == 4
        assert r.trace.total_remote_bytes() == 14 * 8


class TestCollectives:
    def test_broadcast(self):
        def main(ctx):
            return ctx.broadcast(ctx.my_pe * 100 + 7, root=2)

        r = run_spmd(main, 4)
        assert r.returns == [207] * 4

    def test_allgather(self):
        def main(ctx):
            return ctx.allgather(ctx.my_pe**2)

        r = run_spmd(main, 4)
        assert all(ret == [0, 1, 4, 9] for ret in r.returns)

    def test_allreduce_ops(self):
        def main(ctx):
            return (
                ctx.allreduce(ctx.my_pe + 1, "sum"),
                ctx.allreduce(ctx.my_pe + 1, "min"),
                ctx.allreduce(ctx.my_pe + 1, "max"),
                ctx.allreduce(ctx.my_pe + 1, "prod"),
            )

        r = run_spmd(main, 4)
        assert r.returns[0] == (10, 1, 4, 24)

    def test_unknown_reduction(self):
        ctx = serial_context()
        with pytest.raises(LolRuntimeError):
            ctx.allreduce(1, "median")


class TestAtomics:
    def test_fetch_add_is_atomic(self):
        def main(ctx):
            ctx.barrier_all()
            for _ in range(200):
                ctx.atomic_fetch_add("c", 1, 0)
            ctx.barrier_all()
            return ctx.local_read("c") if ctx.my_pe == 0 else None

        r = run_spmd(main, 4, plan=_plan(c=X))
        assert r.returns[0] == 800

    def test_fetch_add_returns_old(self):
        ctx = serial_context(_plan(c=X))
        assert ctx.atomic_fetch_add("c", 5, 0) == 0
        assert ctx.atomic_fetch_add("c", 5, 0) == 5

    def test_swap(self):
        ctx = serial_context(_plan(c=X))
        assert ctx.atomic_swap("c", 9, 0) == 0
        assert ctx.local_read("c") == 9

    def test_compare_swap(self):
        ctx = serial_context(_plan(c=X))
        assert ctx.atomic_compare_swap("c", 0, 7, 0) == 0
        assert ctx.local_read("c") == 7
        assert ctx.atomic_compare_swap("c", 0, 3, 0) == 7
        assert ctx.local_read("c") == 7  # expected mismatched: unchanged


class TestWaitUntil:
    def test_producer_consumer(self):
        def main(ctx):
            ctx.barrier_all()
            if ctx.my_pe == 0:
                ctx.put("data", 42, 1)
                ctx.put("flag", 1, 1)
                return None
            if ctx.my_pe == 1:
                ctx.wait_until("flag", lambda v: v == 1)
                return ctx.local_read("data")
            return None

        r = run_spmd(main, 2, plan=_plan(flag=X, data=X))
        assert r.returns[1] == 42

    def test_timeout(self):
        ctx = serial_context(_plan(flag=X))
        with pytest.raises(LolParallelError):
            ctx.wait_until("flag", lambda v: v == 1, timeout=0.05)

    def test_zero_timeout_checks_once(self):
        # timeout=0 means "do not wait", not "use the world's timeout".
        world = World.for_threads(1, _plan(flag=X), barrier_timeout=5.0)
        ctx = ShmemContext(world, 0)
        t0 = time.monotonic()
        with pytest.raises(LolParallelError, match="timed out"):
            ctx.wait_until("flag", lambda v: v == 1, timeout=0)
        assert time.monotonic() - t0 < 1.0


class TestLockTable:
    def test_zero_timeout_fails_at_once_when_held(self):
        table = LockTable()
        table.register("x")
        table.acquire("x", pe=0)
        outcome = []

        def contender():
            try:
                table.acquire("x", pe=1, timeout=0)
                outcome.append("acquired")
            except LolParallelError as exc:
                outcome.append(str(exc))

        t = threading.Thread(target=contender, daemon=True)
        t.start()
        t.join(timeout=5)
        try:
            assert not t.is_alive(), "acquire(timeout=0) blocked"
            assert len(outcome) == 1 and "timed out" in outcome[0]
            assert table.owner("x") == 0
        finally:
            table.release("x", pe=0)


class TestTrace:
    def test_remote_bytes_accounting(self):
        def main(ctx):
            ctx.barrier_all()
            nxt = (ctx.my_pe + 1) % ctx.n_pes
            ctx.put("a", list(range(16)), nxt)  # 16*8 bytes
            ctx.get("a", nxt, index=0)  # 8 bytes
            ctx.barrier_all()

        r = run_spmd(main, 2, plan=_plan(a=(LolType.NUMBAR, True, 16)), trace=True)
        assert r.trace.total(OpKind.PUT) == 2
        assert r.trace.total(OpKind.GET) == 2
        assert r.trace.total_remote_bytes() == 2 * (16 * 8 + 8)

    def test_local_ops_not_remote_bytes(self):
        def main(ctx):
            ctx.put("x", 1, ctx.my_pe)  # self-put: not remote traffic

        r = run_spmd(main, 2, plan=_plan(x=X), trace=True)
        assert r.trace.total_remote_bytes() == 0

    def test_summary_keys(self):
        def main(ctx):
            ctx.barrier_all()

        r = run_spmd(main, 2, trace=True)
        s = r.trace.summary()
        assert s["n_pes"] == 2 and s["barriers"] == 2

    def test_epoch_advances_with_barriers(self):
        def main(ctx):
            e0 = ctx.world.epoch
            ctx.barrier_all()
            e1 = ctx.world.epoch
            return e1 - e0

        r = run_spmd(main, 3)
        assert all(d == 1 for d in r.returns)


class TestWorldBasics:
    def test_bad_pe_id(self):
        world = World.for_threads(2, SymmetricPlan())
        with pytest.raises(LolParallelError):
            ShmemContext(world, 5)

    def test_run_spmd_zero_pes(self):
        with pytest.raises(LolParallelError):
            run_spmd(lambda ctx: None, 0)

    def test_outputs_in_pe_order(self):
        def main(ctx):
            ctx.emit(f"pe{ctx.my_pe};")

        r = run_spmd(main, 4)
        assert r.output == "pe0;pe1;pe2;pe3;"

    def test_hung_launch_reports_within_one_deadline(self):
        # The join shares one 2x barrier_timeout deadline across threads:
        # a PE that finishes late must not restart the clock for the next.
        blocked = threading.Event()

        def main(ctx):
            if ctx.my_pe == 0:
                time.sleep(0.35)
            else:
                blocked.wait(timeout=10)

        t0 = time.monotonic()
        try:
            with pytest.raises(LolParallelError, match="PE-1 failed to terminate"):
                run_spmd(main, 2, barrier_timeout=0.2)
        finally:
            blocked.set()
        assert time.monotonic() - t0 < 2 * 0.2 + 0.15


def _thread_ident(ctx):
    assert threading.current_thread().name == f"PE-{ctx.my_pe}"
    return threading.get_ident()


#: Seeded RNG, a barrier and a remote get on every PE.
SPMD_PROGRAM = lol(
    "WE HAS A x ITZ SRSLY A NUMBR\n"
    "x R SUM OF PRODUKT OF ME AN 7 AN WHATEVR\n"
    "HUGZ\n"
    "I HAS A nxt ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
    "TXT MAH BFF nxt AN STUFF\n"
    "  VISIBLE ME \" \" UR x \" \" WHATEVR\n"
    "TTYL\n"
)


class TestWarmTeam:
    """Multi-PE launches reuse parked PE threads (one idle team per n_pes)."""

    def test_back_to_back_runs_reuse_threads(self):
        first = run_spmd(_thread_ident, 4).returns
        second = run_spmd(_thread_ident, 4).returns
        assert len(set(first)) == 4
        assert threading.get_ident() not in first
        assert second == first

    def test_concurrent_callers_match_ast(self):
        seeds = range(50)
        expected = {
            s: run_lolcode(SPMD_PROGRAM, 4, seed=s, engine="ast").output
            for s in seeds
        }
        bad = []

        def caller():
            for s in seeds:
                out = run_lolcode(SPMD_PROGRAM, 4, seed=s, barrier_timeout=30).output
                if out != expected[s]:
                    bad.append((s, out))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in callers)
        assert bad == []

    def test_pe_error_keeps_team_and_next_run_is_correct(self):
        before = run_spmd(_thread_ident, 4).returns

        def crash_on_pe2(ctx):
            ctx.barrier_all()
            if ctx.my_pe == 2:
                raise RuntimeError("boom on PE 2")
            ctx.barrier_all()

        with pytest.raises(RuntimeError, match="boom on PE 2"):
            run_spmd(crash_on_pe2, 4, plan=_plan(x=X))
        r = run_lolcode(SPMD_PROGRAM, 4, seed=3)
        assert r.output == run_lolcode(SPMD_PROGRAM, 4, seed=3, engine="ast").output
        assert run_spmd(_thread_ident, 4).returns == before

    def test_pe_count_sweep_keeps_thread_count_bounded(self):
        def sweep():
            for n in range(2, 9):
                assert run_spmd(lambda ctx: ctx.my_pe, n).returns == list(range(n))
            return threading.active_count()

        before = threading.active_count()
        after_first = sweep()
        after_second = sweep()
        assert after_first <= before + sum(range(2, 9))
        assert after_second <= after_first

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
    def test_forked_child_runs_on_its_own_team(self):
        expected = run_lolcode(SPMD_PROGRAM, 4, seed=5).output  # parks a team
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            code = 1
            try:
                r = run_lolcode(SPMD_PROGRAM, 4, seed=5, barrier_timeout=5)
                code = 0 if r.output == expected else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


def _park(barrier, timeout=10.0):
    """Start a thread that waits on ``barrier``; returns (thread, outcome)."""
    outcome = []

    def body():
        try:
            barrier.wait(timeout=timeout)
            outcome.append("released")
        except threading.BrokenBarrierError:
            outcome.append("broken")

    t = threading.Thread(target=body, daemon=True)
    t.start()
    return t, outcome


def _until_parked(barrier, n):
    deadline = time.monotonic() + 5.0
    while len(barrier._phase.gates) < n:
        assert time.monotonic() < deadline, "waiters never parked"
        time.sleep(0.001)


class TestHandoffBarrier:
    def test_many_phases_count_epochs(self):
        phases = 10_000
        barrier = HandoffBarrier(4)
        bad = []

        def body():
            for k in range(1, phases + 1):
                barrier.wait(timeout=30)
                # Phase k+1 cannot complete before this PE arrives again,
                # and the epoch is bumped before any waiter resumes.
                if barrier.read() != k:
                    bad.append((k, barrier.read()))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            team = [threading.Thread(target=body, daemon=True) for _ in range(4)]
            for t in team:
                t.start()
            for t in team:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in team)
        assert bad == []
        assert barrier.read() == phases

    def test_timeout_breaks_for_current_and_later_waiters(self):
        barrier = HandoffBarrier(3)
        t, outcome = _park(barrier)
        _until_parked(barrier, 1)
        with pytest.raises(threading.BrokenBarrierError):
            barrier.wait(timeout=0.05)
        t.join(timeout=5)
        assert not t.is_alive() and outcome == ["broken"]
        with pytest.raises(threading.BrokenBarrierError):
            barrier.wait(timeout=5)
        assert barrier.read() == 0

    def test_abort_wakes_every_parked_waiter(self):
        barrier = HandoffBarrier(4)
        parked = [_park(barrier) for _ in range(3)]
        _until_parked(barrier, 3)
        barrier.abort()
        for t, outcome in parked:
            t.join(timeout=5)
            assert not t.is_alive() and outcome == ["broken"]
        assert barrier.read() == 0

    def test_abort_after_completed_phase_spares_released_waiter(self):
        # The main thread completes the phase and aborts before the
        # released waiter runs again (a long switch interval keeps the
        # interpreter on this thread); the waiter's phase completed, so
        # it must return normally.
        old = sys.getswitchinterval()
        try:
            for _ in range(20):
                barrier = HandoffBarrier(2)
                t, outcome = _park(barrier)
                _until_parked(barrier, 1)
                sys.setswitchinterval(1.0)
                barrier.wait(timeout=5)
                barrier.abort()
                sys.setswitchinterval(old)
                t.join(timeout=5)
                assert not t.is_alive() and outcome == ["released"]
                assert barrier.read() == 1
        finally:
            sys.setswitchinterval(old)

    def test_single_party_returns_at_once(self):
        world = World.for_threads(1, SymmetricPlan())
        assert isinstance(world.barrier, HandoffBarrier)
        world.barrier.wait(timeout=0)
        world.barrier.wait()
        assert world.epoch == 2
