"""Seeded chaos tests: deterministic fault schedules against the real
stack.

Each scenario arms a :class:`~repro.faults.FaultPlan` — in this process
(parent-side sites) or via ``LOL_FAULTS`` in the environment (worker-side
sites, picked up by pool workers at spawn) — then drives real jobs
through the real pool/scheduler/server/native machinery and asserts the
**robustness contract**: every run ends in either a checker-verified
result or a *typed* error naming the fault.  Nothing hangs (a SIGALRM
watchdog guards every test) and nothing fails silently.

The plans are seeded and the selectors deterministic, so a failing
scenario replays identically under ``pytest -k`` — see
``TestReplayDeterminism``.
"""

import os
import signal
import threading
import time

import pytest

from repro import run_lolcode
from repro.faults import (
    ENV_VAR,
    InjectedFaultError,
    activate,
    fault_stats,
    plan_from_rules,
    reset_faults,
)
from repro.lang.errors import LolParallelError
from repro.lang.types import LolType
from repro.service.client import ServiceClient, ServerUnavailableError
from repro.service.pool import (
    WorkerCrashError,
    WorkerPool,
    shutdown_default_pool,
)
from repro.service.scheduler import QueueFullError, Scheduler
from repro.service.server import BackgroundServer
from repro.shmem import SymmetricPlan, run_spmd
from repro.workloads import get_workload

from .conftest import lol

pytestmark = [pytest.mark.procs, pytest.mark.service, pytest.mark.chaos]

#: Per-test hang ceiling.  Generous — a chaos scenario includes worker
#: respawns and scheduler backoffs — but finite: the contract is that
#: no injected fault may wedge the stack.
WATCHDOG_S = 180


@pytest.fixture(autouse=True)
def _watchdog_and_disarm():
    def _hung(signum, frame):  # pragma: no cover - only fires on a bug
        raise RuntimeError(
            f"chaos test exceeded the {WATCHDOG_S}s watchdog (stack wedged?)"
        )

    reset_faults()
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(WATCHDOG_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        reset_faults()


# -- module-level workers (picklable for spawn) -------------------------------


def _worker_rank10(ctx):
    return ctx.my_pe * 10


def _worker_ring(ctx):
    ctx.local_write("x", ctx.my_pe * 10)
    ctx.barrier_all()
    nxt = (ctx.my_pe + 1) % ctx.n_pes
    return int(ctx.get("x", nxt))


def _ring_plan():
    plan = SymmetricPlan()
    plan.add("x", LolType.NUMBR, False, 1, False)
    return plan


def _env_armed_pool(monkeypatch, plan, size):
    """Spawn a pool whose *workers* arm ``plan`` from the environment.

    The parent process stays disarmed (its faults module was imported
    long ago), which is exactly the production topology: the plan rides
    ``LOL_FAULTS`` into every subprocess.
    """
    monkeypatch.setenv(ENV_VAR, plan.to_json())
    return WorkerPool(size)


# -- worker-side faults: the pool.reply site ---------------------------------


class TestPoolReplyFaults:
    def test_kill_is_typed_and_pool_recovers(self, monkeypatch):
        plan = plan_from_rules(
            1, [{"site": "pool.reply", "kind": "kill", "rank": 0, "jobs": [1]}]
        )
        with _env_armed_pool(monkeypatch, plan, 2) as pool:
            with pytest.raises(WorkerCrashError, match="PE 0.*WorkerCrash"):
                pool.run(_worker_rank10, 2, SymmetricPlan(), barrier_timeout=10.0)
            assert pool.rebuilds == 1
            # Job 2 does not match the rule: the rebuilt pool must be clean.
            result = pool.run(_worker_rank10, 2, SymmetricPlan())
            assert result.returns == [0, 10]

    def test_garbage_reply_is_classified_not_crashing_the_drain(
        self, monkeypatch
    ):
        plan = plan_from_rules(
            1,
            [{"site": "pool.reply", "kind": "garbage", "rank": 1, "jobs": [1]}],
        )
        with _env_armed_pool(monkeypatch, plan, 2) as pool:
            with pytest.raises(WorkerCrashError, match="MalformedReply"):
                pool.run(_worker_rank10, 2, SymmetricPlan(), barrier_timeout=10.0)
            result = pool.run(_worker_rank10, 2, SymmetricPlan())
            assert result.returns == [0, 10]

    def test_delay_is_absorbed_by_the_drain_window(self, monkeypatch):
        plan = plan_from_rules(
            1,
            [
                {
                    "site": "pool.reply",
                    "kind": "delay",
                    "rank": 0,
                    "jobs": [1],
                    "delay_s": 0.3,
                }
            ],
        )
        with _env_armed_pool(monkeypatch, plan, 2) as pool:
            result = pool.run(
                _worker_rank10, 2, SymmetricPlan(), barrier_timeout=10.0
            )
            assert result.returns == [0, 10]  # slower, never wrong

    def test_repeated_same_rank_death_respawns_every_time(self, monkeypatch):
        """Satellite scenario: rank 0 dies on three consecutive jobs.

        Each death must be detected, typed, and healed by a fresh
        respawn — a pool that survives one crash but not a crash *loop*
        would pass the single-kill test and still be broken.
        """
        plan = plan_from_rules(
            1,
            [
                {
                    "site": "pool.reply",
                    "kind": "kill",
                    "rank": 0,
                    "jobs": [1, 2, 3],
                }
            ],
        )
        with _env_armed_pool(monkeypatch, plan, 2) as pool:
            for _ in range(3):
                with pytest.raises(WorkerCrashError, match="PE 0"):
                    pool.run(
                        _worker_rank10, 2, SymmetricPlan(), barrier_timeout=10.0
                    )
            assert pool.rebuilds == 3
            assert pool.workers_replaced >= 3
            result = pool.run(_worker_ring, 2, _ring_plan())
            assert result.returns == [10, 0]


# -- parent-side faults: dispatch and spawn ----------------------------------


class TestPoolDispatchFaults:
    def test_job_send_kill_resends_to_a_fresh_worker(self):
        """A worker dying between liveness check and send is survivable:
        the send's BrokenPipe triggers replace-and-resend, and the job
        still completes correctly."""
        activate(
            plan_from_rules(
                1,
                [{"site": "pool.job_send", "kind": "kill", "rank": 1, "jobs": [1]}],
            )
        )
        with WorkerPool(2) as pool:
            result = pool.run(_worker_rank10, 2, SymmetricPlan())
            assert result.returns == [0, 10]
            assert pool.workers_replaced == 1
            assert pool.rebuilds == 0
        stats = fault_stats()
        assert stats["fires"] == {"pool.job_send:kill": 1}

    def test_job_send_drop_is_typed_and_rebuilds(self):
        activate(
            plan_from_rules(
                1,
                [{"site": "pool.job_send", "kind": "drop", "rank": 1, "jobs": [1]}],
            )
        )
        with WorkerPool(2) as pool:
            with pytest.raises(
                InjectedFaultError, match="pool.job_send.*drop"
            ) as excinfo:
                pool.run(_worker_rank10, 2, SymmetricPlan(), barrier_timeout=10.0)
            assert excinfo.value.retryable
            assert pool.rebuilds == 1  # partial dispatch forces a rebuild
            result = pool.run(_worker_rank10, 2, SymmetricPlan())
            assert result.returns == [0, 10]

    def test_worker_spawn_failure_is_typed(self):
        activate(
            plan_from_rules(
                1,
                [
                    {
                        "site": "pool.worker_spawn",
                        "kind": "fail",
                        "rank": 0,
                        "times": 1,
                    }
                ],
            )
        )
        with pytest.raises(InjectedFaultError, match="pool.worker_spawn"):
            WorkerPool(1)
        # The rule's budget is spent: the next spawn attempt succeeds.
        with WorkerPool(1) as pool:
            assert pool.run(_worker_rank10, 1, SymmetricPlan()).returns == [0]


# -- scheduler: retries, admission control -----------------------------------


class TestSchedulerRetry:
    def test_worker_crash_is_retried_and_recorded(self, monkeypatch):
        """The flagship recovery path: a worker killed mid-job fails the
        first attempt with a retryable typed error; the scheduler's
        retry runs on the rebuilt pool and the checker verifies the
        second attempt's answer."""
        shutdown_default_pool()
        plan = plan_from_rules(
            42, [{"site": "pool.reply", "kind": "kill", "rank": 0, "jobs": [1]}]
        )
        monkeypatch.setenv(ENV_VAR, plan.to_json())  # arms the pool workers
        activate(plan)  # arms this (server) process for stats visibility
        try:
            with BackgroundServer(max_concurrency=2) as bg:
                client = ServiceClient(bg.socket_path, timeout=120.0)
                job_id = client.submit(
                    workload="ring", smoke=True, n_pes=2, executor="pool"
                )
                row = client.result(job_id)
                assert row["checker"] == "pass"
                assert row["attempt_count"] == 2
                [attempt] = row["retries"]
                assert attempt["retryable"] is True
                assert "WorkerCrashError" in attempt["error"]
                assert attempt["backoff_s"] > 0
                stats = client.stats()
                assert stats["retries"] >= 1
                assert stats["faults"]["armed"] is True
        finally:
            shutdown_default_pool()

    def test_forced_queue_full_is_typed_on_the_wire(self):
        activate(
            plan_from_rules(
                1,
                [{"site": "scheduler.enqueue", "kind": "queue_full", "times": 1}],
            )
        )
        with BackgroundServer(max_concurrency=2) as bg:
            client = ServiceClient(bg.socket_path, timeout=60.0)
            src = lol('VISIBLE "SHED ME"')
            with pytest.raises(QueueFullError) as excinfo:
                client.submit(src, executor="thread")
            assert excinfo.value.retry_after > 0
            assert excinfo.value.retryable
            # The rule's budget is spent: resubmitting (the client-side
            # reaction QueueFullError asks for) succeeds.
            job_id = client.submit(src, executor="thread")
            assert client.result(job_id)["output"] == "SHED ME\n"
            assert client.stats()["shed"] == 1

    def test_real_bounded_queue_sheds_past_depth(self):
        from repro.service.scheduler import JobSpec

        sched = Scheduler(max_queue_depth=2)  # never started: nothing drains
        spec = JobSpec(source=lol("VISIBLE ME"), executor="thread")
        sched.submit(spec)
        sched.submit(spec)
        with pytest.raises(QueueFullError, match="queue full \\(2/2"):
            sched.submit(spec)
        assert sched.shed_total == 1
        assert sched.stats()["max_queue_depth"] == 2


# -- server: connection drops -------------------------------------------------


class TestServerConnFaults:
    def test_idempotent_op_retries_through_a_dropped_connection(self):
        activate(
            plan_from_rules(
                1, [{"site": "server.conn", "kind": "drop", "times": 1}]
            )
        )
        with BackgroundServer() as bg:
            client = ServiceClient(bg.socket_path, timeout=30.0)
            assert client.ping() == os.getpid()  # retried transparently
        stats = fault_stats()
        assert stats["fires"] == {"server.conn:drop": 1}

    def test_submit_does_not_blind_retry_mid_request(self):
        """A submit whose connection dies after the request was sent is
        *not* replayed (the job may already be enqueued); the caller
        gets the typed availability error and decides."""
        activate(
            plan_from_rules(
                1, [{"site": "server.conn", "kind": "drop", "times": 1}]
            )
        )
        with BackgroundServer() as bg:
            client = ServiceClient(bg.socket_path, timeout=30.0)
            with pytest.raises(ServerUnavailableError) as excinfo:
                client.submit(lol("VISIBLE ME"), executor="thread")
            assert excinfo.value.mid_request is True
            assert excinfo.value.retryable

    def test_absent_server_is_a_typed_connect_failure(self, tmp_path):
        client = ServiceClient(str(tmp_path / "no.sock"), retry=None)
        with pytest.raises(ServerUnavailableError) as excinfo:
            client.ping()
        assert excinfo.value.mid_request is False


# -- native engine: build transients, cache integrity, degradation ------------


def _unique_visible(tag: str) -> tuple[str, str]:
    """A source no previous run has built (the on-disk native cache
    persists across pytest invocations, and a warm hit would skip the
    build path these tests are aiming at)."""
    token = f"{tag} {os.urandom(6).hex()}"
    return lol(f'VISIBLE "{token}"'), f"{token}\n"


class TestNativeFaults:
    def test_fallback_engine_degrades_gracefully_without_a_toolchain(
        self, monkeypatch
    ):
        monkeypatch.setenv("LOL_CC", "lol-cc-that-does-not-exist")
        result = run_lolcode(
            lol('VISIBLE "STILL HERE"'),
            1,
            executor="pool",
            engine="c",
            fallback_engine="vm",
        )
        assert result.output == "STILL HERE\n"
        assert result.degraded is True
        assert "NativeToolchainError" in result.degraded_reason

    def test_service_marks_degraded_rows_and_counts_them(self, monkeypatch):
        monkeypatch.setenv("LOL_CC", "lol-cc-that-does-not-exist")
        with BackgroundServer() as bg:
            client = ServiceClient(bg.socket_path, timeout=60.0)
            job_id = client.submit(
                lol('VISIBLE "DEGRADED OK"'),
                engine="c",
                executor="pool",
                fallback_engine="vm",
            )
            row = client.result(job_id)
            assert row["output"] == "DEGRADED OK\n"
            assert row["degraded"] is True
            assert "fallback engine 'vm'" in row["degraded_reason"]
            assert client.stats()["degraded"] == 1

    def test_no_fallback_without_opt_in(self, monkeypatch):
        from repro.compiler import NativeToolchainError

        monkeypatch.setenv("LOL_CC", "lol-cc-that-does-not-exist")
        with pytest.raises(NativeToolchainError):
            run_lolcode(lol("VISIBLE ME"), 1, engine="c")

    @pytest.mark.requires_cc
    def test_transient_build_failure_is_retried_in_module(self):
        from repro.compiler.native import native_stats

        activate(
            plan_from_rules(
                1, [{"site": "native.build", "kind": "fail", "times": 1}]
            )
        )
        src, expected = _unique_visible("BUILT AFTER RETRY")
        before = native_stats()
        result = run_lolcode(src, 1, engine="c")
        assert result.output == expected
        after = native_stats()
        assert after["transient_retries"] == before["transient_retries"] + 1
        assert after["builds"] == before["builds"] + 1

    @pytest.mark.requires_cc
    def test_exhausted_build_budget_is_a_retryable_typed_error(self):
        from repro.compiler.native import NativeBuildTransientError

        activate(
            plan_from_rules(1, [{"site": "native.build", "kind": "fail"}])
        )
        src, _ = _unique_visible("NEVER BUILDS")
        with pytest.raises(
            NativeBuildTransientError, match="native.build"
        ) as excinfo:
            run_lolcode(src, 1, engine="c")
        assert excinfo.value.retryable

    @pytest.mark.requires_cc
    def test_corrupt_cached_binary_is_rebuilt_never_executed(self):
        """Satellite scenario: a corrupted cache entry costs one silent
        rebuild; the bad bytes are never exec'd and the answer stays
        checker-correct."""
        from repro.compiler.native import native_stats

        src, expected = _unique_visible("CACHE INTEGRITY")
        first = run_lolcode(src, 1, engine="c")
        activate(
            plan_from_rules(
                1, [{"site": "native.cache", "kind": "corrupt", "times": 1}]
            )
        )
        before = native_stats()
        second = run_lolcode(src, 1, engine="c")
        after = native_stats()
        assert second.output == first.output == expected
        assert after["corrupt_rebuilds"] == before["corrupt_rebuilds"] + 1
        assert after["builds"] == before["builds"] + 1  # silent rebuild

    @pytest.mark.requires_cc
    def test_truncated_cached_binary_is_rebuilt(self):
        from repro.compiler.native import native_stats

        src, expected = _unique_visible("TRUNCATION")
        run_lolcode(src, 1, engine="c")
        activate(
            plan_from_rules(
                1, [{"site": "native.cache", "kind": "truncate", "times": 1}]
            )
        )
        before = native_stats()
        result = run_lolcode(src, 1, engine="c")
        assert result.output == expected
        assert (
            native_stats()["corrupt_rebuilds"]
            == before["corrupt_rebuilds"] + 1
        )

    @pytest.mark.requires_cc
    def test_parked_fork_server_killed_before_dispatch_respawns(self):
        """``native.worker`` kill: one parked server of a warm set dies.
        The liveness check replaces the set before any header is
        written, and the job runs once with the correct result."""
        from repro.compiler.native import native_stats

        src = lol(f'VISIBLE ME " {os.urandom(6).hex()}"')
        first = run_lolcode(src, 2, engine="c")
        activate(
            plan_from_rules(
                1, [{"site": "native.worker", "kind": "kill", "rank": 1}]
            )
        )
        before = native_stats()
        second = run_lolcode(src, 2, engine="c")
        after = native_stats()
        assert second.outputs == first.outputs
        assert after["respawns"] == before["respawns"] + 1
        assert after["spawns"] == before["spawns"] + 1
        assert after["warm_hits"] == before["warm_hits"]
        assert fault_stats()["fires"] == {"native.worker:kill": 1}

    @pytest.mark.requires_cc
    def test_fork_server_dying_mid_job_is_a_typed_error(self):
        """A server killed while its PE is running: the job fails with a
        typed error naming that PE, the set is discarded, and the next
        job runs on a new set."""
        from repro.compiler import native

        src = lol(
            f'I HAS A uniq ITZ "{os.urandom(6).hex()}"\n'
            "I HAS A extra\nGIMMEH extra\n"
            'BOTH SAEM extra AN "1"\n'
            "O RLY?\n  YA RLY, HUGZ\nOIC\n"
            "VISIBLE ME"
        )
        binary = native.build_native(src, n_pes=2)
        native.run_native(binary, 2, stdin_lines=[["0"], ["0"]])

        def kill_pe0_server():
            # PE 0 waits at its extra HUGZ (barrier deadline 30 s).
            deadline = time.monotonic() + 10
            while not native._WARM._busy and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.3)
            for servers in list(native._WARM._busy):
                os.kill(servers.procs[0].pid, signal.SIGKILL)

        killer = threading.Thread(target=kill_pe0_server)
        killer.start()
        before = native.native_stats()
        t0 = time.monotonic()
        with pytest.raises(
            LolParallelError, match="native PE 0's fork server died mid-job"
        ):
            native.run_native(
                binary, 2, stdin_lines=[["1"], ["0"]], barrier_timeout=30
            )
        killer.join(timeout=10)
        assert time.monotonic() - t0 < 20  # not the barrier deadline
        result = native.run_native(binary, 2, stdin_lines=[["0"], ["0"]])
        assert result.outputs == ["0\n", "1\n"]
        after = native.native_stats()
        assert after["spawns"] == before["spawns"] + 1


# -- the chaos sweep: seeded schedule over registry kernels -------------------


class TestThreadTeamHang:
    def test_hung_pe_retires_its_team_and_next_run_verifies(self):
        """A PE stuck past the launch deadline is a typed error; its warm
        thread team is retired, and the next launch runs on a new team."""
        stuck = threading.Event()
        hung = []

        def hang_on_pe3(ctx):
            if ctx.my_pe == 3:
                hung.append(threading.current_thread())
                stuck.wait(timeout=60)
            return threading.get_ident()

        try:
            with pytest.raises(LolParallelError, match="PE-3 failed to terminate"):
                run_spmd(hang_on_pe3, 4, barrier_timeout=0.2)
            w = get_workload("ring")
            params = w.bind_params({})
            result = run_lolcode(w.source(params), 4, seed=1)
            assert w.check(result, 4, params) == []
            fresh = run_spmd(lambda ctx: threading.get_ident(), 4).returns
            # The hung thread is still alive, so its ident cannot be reused.
            assert hung[0].is_alive()
            assert hung[0].ident not in fresh
        finally:
            stuck.set()
        hung[0].join(timeout=10)
        assert not hung[0].is_alive(), "a retired PE thread parked again"


class TestChaosSweep:
    def test_every_job_verifies_or_fails_typed(self, monkeypatch):
        """Registry kernels under a seeded probabilistic kill schedule.

        The robustness contract, end to end: with scheduler retries on,
        every submission must end as a checker-verified result or a
        typed error naming the fault — no silent corruption, no wedged
        queue, no unverified "success"."""
        shutdown_default_pool()
        plan = plan_from_rules(
            42, [{"site": "pool.reply", "kind": "kill", "rank": 0, "p": 0.3}]
        )
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        try:
            with BackgroundServer(max_concurrency=2) as bg:
                client = ServiceClient(bg.socket_path, timeout=150.0)
                jobs = [
                    client.submit(
                        workload=name, smoke=True, n_pes=2, executor="pool"
                    )
                    for name in ("ring", "tree_reduce", "scan")
                    for _ in range(2)
                ]
                verified = 0
                for job_id in jobs:
                    job = client.wait(job_id, timeout=150.0)
                    if job["state"] == "done":
                        assert job["result"]["checker"] == "pass", job
                        verified += 1
                    else:
                        # A loss must be a *named* infrastructure
                        # failure, never a wrong answer or a mystery.
                        assert job["state"] == "error"
                        assert any(
                            marker in job["error"]
                            for marker in (
                                "WorkerCrash",
                                "injected fault",
                                "timed out",
                            )
                        ), job["error"]
                assert verified > 0  # the sweep must not be all losses
        finally:
            shutdown_default_pool()


class TestReplayDeterminism:
    def test_same_plan_same_outcome(self, monkeypatch):
        """Replaying one seeded plan against a fresh stack reproduces
        the same failure and the same recovery — the property that makes
        a chaos-found bug debuggable."""
        plan = plan_from_rules(
            7, [{"site": "pool.reply", "kind": "kill", "rank": 1, "jobs": [1]}]
        )

        def one_round():
            with _env_armed_pool(monkeypatch, plan, 2) as pool:
                try:
                    pool.run(
                        _worker_rank10, 2, SymmetricPlan(), barrier_timeout=10.0
                    )
                    outcome = ("ok",)
                except LolParallelError as exc:
                    outcome = (type(exc).__name__, "PE 1" in str(exc))
                recovered = pool.run(_worker_rank10, 2, SymmetricPlan())
                return outcome, recovered.returns

        assert one_round() == one_round() == (("WorkerCrashError", True), [0, 10])
