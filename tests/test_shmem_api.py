"""Unit tests for the OpenSHMEM-like runtime substrate (repro.shmem),
exercised directly through the Python API (no LOLCODE involved)."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.lang.errors import LolParallelError, LolRuntimeError
from repro.lang.types import LolType
from repro.shmem import (
    OpKind,
    ShmemContext,
    SymmetricHeap,
    World,
    run_spmd,
    serial_context,
)
from repro.shmem.api import HandoffBarrier


class TestSymmetricHeap:
    def test_alloc_scalar_all_pes(self):
        heap = SymmetricHeap(4)
        obj = heap.alloc("x", LolType.NUMBR)
        assert len(obj.per_pe) == 4
        assert all(cell.read() == 0 for cell in obj.per_pe)

    def test_alloc_is_idempotent(self):
        heap = SymmetricHeap(2)
        a = heap.alloc("x", LolType.NUMBR)
        b = heap.alloc("x", LolType.NUMBR)
        assert a is b

    def test_alloc_shape_conflict_rejected(self):
        heap = SymmetricHeap(2)
        heap.alloc("x", LolType.NUMBR)
        with pytest.raises(LolParallelError):
            heap.alloc("x", LolType.NUMBAR)
        with pytest.raises(LolParallelError):
            heap.alloc("x", LolType.NUMBR, is_array=True, size=4)

    def test_array_backed_by_numpy(self):
        heap = SymmetricHeap(2)
        obj = heap.alloc("a", LolType.NUMBAR, is_array=True, size=8)
        assert isinstance(obj.cell(0).data, np.ndarray)
        assert obj.cell(0).data.dtype == np.float64

    def test_numbr_array_dtype(self):
        heap = SymmetricHeap(1)
        obj = heap.alloc("a", LolType.NUMBR, is_array=True, size=4)
        assert obj.cell(0).data.dtype == np.int64

    def test_yarn_array_is_list(self):
        heap = SymmetricHeap(1)
        obj = heap.alloc("a", LolType.YARN, is_array=True, size=3)
        assert obj.cell(0).read(0) == ""

    def test_zero_size_rejected(self):
        heap = SymmetricHeap(1)
        with pytest.raises(LolParallelError):
            heap.alloc("a", LolType.NUMBR, is_array=True, size=0)

    def test_lookup_unknown(self):
        heap = SymmetricHeap(1)
        with pytest.raises(LolParallelError):
            heap.lookup("nope")

    def test_partition_nbytes(self):
        heap = SymmetricHeap(2)
        heap.alloc("a", LolType.NUMBAR, is_array=True, size=10)
        heap.alloc("x", LolType.NUMBR)
        assert heap.partition_nbytes(0) == 10 * 8 + 8


class TestPutGet:
    def test_scalar_put_get(self):
        def main(ctx: ShmemContext):
            ctx.alloc_scalar("x", LolType.NUMBR)
            ctx.local_write("x", ctx.my_pe * 10)
            ctx.barrier_all()
            nxt = (ctx.my_pe + 1) % ctx.n_pes
            return ctx.get("x", nxt)

        r = run_spmd(main, 4)
        assert r.returns == [10, 20, 30, 0]

    def test_array_element_put(self):
        def main(ctx: ShmemContext):
            ctx.alloc_array("a", LolType.NUMBR, 4)
            ctx.barrier_all()
            # everyone writes its pe into slot pe of PE 0
            ctx.put("a", ctx.my_pe + 1, 0, index=ctx.my_pe)
            ctx.barrier_all()
            return ctx.local_read("a") if ctx.my_pe == 0 else None

        r = run_spmd(main, 4)
        assert list(r.returns[0]) == [1, 2, 3, 4]

    def test_whole_array_get_is_copy(self):
        def main(ctx: ShmemContext):
            ctx.alloc_array("a", LolType.NUMBR, 2)
            ctx.local_write("a", 7, index=0)
            got = ctx.get("a", ctx.my_pe)
            got[0] = 999  # mutating the copy must not touch the heap
            return ctx.local_read("a", index=0)

        r = run_spmd(main, 1)
        assert r.returns == [7]

    def test_get_out_of_range_pe(self):
        ctx = serial_context()
        ctx.alloc_scalar("x", LolType.NUMBR)
        with pytest.raises(LolParallelError):
            ctx.get("x", 5)

    def test_index_on_scalar_rejected(self):
        ctx = serial_context()
        ctx.alloc_scalar("x", LolType.NUMBR)
        with pytest.raises(LolRuntimeError):
            ctx.get("x", 0, index=1)


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
            ctx.alloc_scalar("c", LolType.NUMBR)
            ctx.barrier_all()
            for _ in range(200):
                ctx.atomic_fetch_add("c", 1, 0)
            ctx.barrier_all()
            return ctx.local_read("c") if ctx.my_pe == 0 else None

        r = run_spmd(main, 4)
        assert r.returns[0] == 800

    def test_fetch_add_returns_old(self):
        ctx = serial_context()
        ctx.alloc_scalar("c", LolType.NUMBR)
        assert ctx.atomic_fetch_add("c", 5, 0) == 0
        assert ctx.atomic_fetch_add("c", 5, 0) == 5

    def test_swap(self):
        ctx = serial_context()
        ctx.alloc_scalar("c", LolType.NUMBR)
        assert ctx.atomic_swap("c", 9, 0) == 0
        assert ctx.local_read("c") == 9

    def test_compare_swap(self):
        ctx = serial_context()
        ctx.alloc_scalar("c", LolType.NUMBR)
        assert ctx.atomic_compare_swap("c", 0, 7, 0) == 0
        assert ctx.local_read("c") == 7
        assert ctx.atomic_compare_swap("c", 0, 3, 0) == 7
        assert ctx.local_read("c") == 7  # expected mismatched: unchanged


class TestWaitUntil:
    def test_producer_consumer(self):
        def main(ctx):
            ctx.alloc_scalar("flag", LolType.NUMBR)
            ctx.alloc_scalar("data", LolType.NUMBR)
            ctx.barrier_all()
            if ctx.my_pe == 0:
                ctx.put("data", 42, 1)
                ctx.put("flag", 1, 1)
                return None
            if ctx.my_pe == 1:
                ctx.wait_until("flag", lambda v: v == 1)
                return ctx.local_read("data")
            return None

        r = run_spmd(main, 2)
        assert r.returns[1] == 42

    def test_timeout(self):
        ctx = serial_context()
        ctx.alloc_scalar("flag", LolType.NUMBR)
        with pytest.raises(LolParallelError):
            ctx.wait_until("flag", lambda v: v == 1, timeout=0.05)


class TestTrace:
    def test_remote_bytes_accounting(self):
        def main(ctx):
            ctx.alloc_array("a", LolType.NUMBAR, 16)
            ctx.barrier_all()
            nxt = (ctx.my_pe + 1) % ctx.n_pes
            ctx.put("a", list(range(16)), nxt)  # 16*8 bytes
            ctx.get("a", nxt, index=0)  # 8 bytes
            ctx.barrier_all()

        r = run_spmd(main, 2, trace=True)
        assert r.trace.total(OpKind.PUT) == 2
        assert r.trace.total(OpKind.GET) == 2
        assert r.trace.total_remote_bytes() == 2 * (16 * 8 + 8)

    def test_local_ops_not_remote_bytes(self):
        def main(ctx):
            ctx.alloc_scalar("x", LolType.NUMBR)
            ctx.put("x", 1, ctx.my_pe)  # self-put: not remote traffic

        r = run_spmd(main, 2, trace=True)
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
        world = World.for_threads(2)
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
        world = World.for_threads(1)
        assert isinstance(world.barrier, HandoffBarrier)
        world.barrier.wait(timeout=0)
        world.barrier.wait()
        assert world.epoch == 2
