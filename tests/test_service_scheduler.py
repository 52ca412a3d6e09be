"""Tests for the asyncio job scheduler (``repro.service.scheduler``)."""

import asyncio

import pytest

from repro.service.scheduler import (
    JobSpec,
    JobState,
    Scheduler,
    ServiceError,
    execute_job,
)

from .conftest import lol

pytestmark = pytest.mark.service

HELLO = lol('VISIBLE "OH HAI"')
#: A loop no engine can shortcut: every trip calls a function, which
#: keeps the VM's loop vectorizer out.
SLOW = lol(
    "HOW IZ I step YR a AN YR b\n"
    "  FOUND YR SUM OF a AN b\n"
    "IF U SAY SO\n"
    "I HAS A acc ITZ 0\n"
    "IM IN YR spin UPPIN YR i TIL BOTH SAEM i AN 50000\n"
    "  acc R I IZ step YR acc AN YR i MKAY\n"
    "IM OUTTA YR spin\n"
    "VISIBLE acc"
)


def run_async(coro):
    return asyncio.run(coro)


async def _started_scheduler(**kwargs) -> Scheduler:
    scheduler = Scheduler(**kwargs)
    await scheduler.start()
    return scheduler


class TestJobSpec:
    def test_source_xor_workload_required(self):
        with pytest.raises(ServiceError, match="exactly one"):
            JobSpec.from_request({})
        with pytest.raises(ServiceError, match="exactly one"):
            JobSpec.from_request({"source": HELLO, "workload": "ring"})

    def test_workload_resolves_source_and_params(self):
        spec = JobSpec.from_request(
            {"workload": "ring", "smoke": True, "n_pes": 4}
        )
        assert "HAI" in spec.source
        assert spec.workload == "ring"
        assert spec.params  # bound defaults materialized
        assert spec.filename == "<workload:ring>"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ServiceError, match="nope"):
            JobSpec.from_request({"workload": "nope"})

    def test_bad_engine_executor_npes_timeout(self):
        with pytest.raises(ServiceError, match="unknown engine"):
            JobSpec.from_request({"source": HELLO, "engine": "warp"})
        with pytest.raises(ServiceError, match="unknown executor"):
            JobSpec.from_request({"source": HELLO, "executor": "warp"})
        with pytest.raises(ServiceError, match="n_pes"):
            JobSpec.from_request({"source": HELLO, "n_pes": 0})
        with pytest.raises(ServiceError, match="timeout"):
            JobSpec.from_request({"source": HELLO, "timeout": -1})

    def test_unread_fields_rejected_by_name(self):
        for field in ("fallback_engine", "max_attempts", "n_pe"):
            with pytest.raises(ServiceError, match=repr(field)):
                JobSpec.from_request({"source": HELLO, field: 1})
        JobSpec.from_request({"op": "submit", "source": HELLO})


class TestExecuteJob:
    def test_row_mirrors_lolbench_schema(self):
        row = execute_job(
            JobSpec(source=HELLO, n_pes=2, executor="thread", seed=1)
        )
        assert row["workload"] == "<source>"
        assert row["engine"] == "vm"
        assert row["executor"] == "thread"
        assert row["n_pes"] == 2
        assert row["outputs"] == ["OH HAI\n", "OH HAI\n"]
        assert row["seconds"] >= 0

    def test_workload_job_runs_checker(self):
        spec = JobSpec.from_request(
            {
                "workload": "ring",
                "smoke": True,
                "n_pes": 2,
                "executor": "thread",
                "seed": 42,
            }
        )
        row = execute_job(spec)
        assert row["checker"] == "pass"


class TestScheduler:
    def test_submit_run_wait(self):
        async def main():
            scheduler = await _started_scheduler()
            job = scheduler.submit(
                JobSpec(source=HELLO, executor="thread")
            )
            assert job.state in (JobState.QUEUED, JobState.RUNNING)
            done = await scheduler.wait(job.job_id, timeout=30)
            assert done.state is JobState.DONE
            assert done.result["output"] == "OH HAI\n"
            await scheduler.stop()

        run_async(main())

    def test_fifo_order_single_worker(self):
        async def main():
            scheduler = await _started_scheduler(max_concurrency=1)
            jobs = [
                scheduler.submit(JobSpec(source=HELLO, executor="thread"))
                for _ in range(5)
            ]
            for job in jobs:
                await scheduler.wait(job.job_id, timeout=30)
            starts = [scheduler.get(j.job_id).started_at for j in jobs]
            assert starts == sorted(starts)  # FIFO: started in submit order
            await scheduler.stop()

        run_async(main())

    def test_bounded_concurrency(self):
        async def main():
            scheduler = await _started_scheduler(max_concurrency=2)
            jobs = [
                scheduler.submit(JobSpec(source=SLOW, executor="thread"))
                for _ in range(6)
            ]
            for job in jobs:
                await scheduler.wait(job.job_id, timeout=60)
            assert all(
                scheduler.get(j.job_id).state is JobState.DONE for j in jobs
            )
            assert scheduler.peak_running <= 2
            await scheduler.stop()

        run_async(main())

    def test_job_timeout_fails_job_not_queue(self):
        async def main():
            scheduler = await _started_scheduler(max_concurrency=1)
            slow = scheduler.submit(
                JobSpec(source=SLOW, executor="thread", timeout=0.001)
            )
            after = scheduler.submit(JobSpec(source=HELLO, executor="thread"))
            done_slow = await scheduler.wait(slow.job_id, timeout=60)
            done_after = await scheduler.wait(after.job_id, timeout=60)
            assert done_slow.state is JobState.ERROR
            assert "timed out" in done_slow.error
            assert done_after.state is JobState.DONE
            await scheduler.stop()

        run_async(main())

    def test_program_error_recorded(self):
        async def main():
            scheduler = await _started_scheduler()
            job = scheduler.submit(
                JobSpec(
                    source=lol("I HAS A x ITZ QUOSHUNT OF 1 AN 0"),
                    executor="thread",
                )
            )
            done = await scheduler.wait(job.job_id, timeout=30)
            assert done.state is JobState.ERROR
            assert "QUOSHUNT" in done.error
            await scheduler.stop()

        run_async(main())

    def test_cancel_queued_job(self):
        async def main():
            scheduler = await _started_scheduler(max_concurrency=1)
            blocker = scheduler.submit(JobSpec(source=SLOW, executor="thread"))
            queued = scheduler.submit(JobSpec(source=HELLO, executor="thread"))
            assert scheduler.cancel(queued.job_id) is True
            done = await scheduler.wait(queued.job_id, timeout=30)
            assert done.state is JobState.CANCELLED
            finished = await scheduler.wait(blocker.job_id, timeout=60)
            assert finished.state is JobState.DONE  # queue kept moving
            assert scheduler.cancel(blocker.job_id) is False
            await scheduler.stop()

        run_async(main())

    def test_unknown_job_id(self):
        async def main():
            scheduler = await _started_scheduler()
            with pytest.raises(ServiceError, match="unknown job"):
                scheduler.get("job-999")
            await scheduler.stop()

        run_async(main())

    def test_terminal_jobs_evicted_beyond_retention_cap(self):
        """A persistent service must not keep every finished job (and
        its full outputs) forever: oldest terminal records are evicted
        past ``max_retained_jobs``; recent ones stay queryable."""

        async def main():
            scheduler = await _started_scheduler(
                max_concurrency=1, max_retained_jobs=3
            )
            jobs = [
                scheduler.submit(JobSpec(source=HELLO, executor="thread"))
                for _ in range(6)
            ]
            for job in jobs:
                await scheduler.wait(job.job_id, timeout=30)
            for old in jobs[:3]:
                with pytest.raises(ServiceError, match="unknown job"):
                    scheduler.get(old.job_id)
            for recent in jobs[3:]:
                assert scheduler.get(recent.job_id).state is JobState.DONE
            await scheduler.stop()

        run_async(main())

    def test_stats_shape(self):
        async def main():
            scheduler = await _started_scheduler(max_concurrency=3)
            job = scheduler.submit(JobSpec(source=HELLO, executor="thread"))
            await scheduler.wait(job.job_id, timeout=30)
            stats = scheduler.stats()
            assert stats["jobs"] == 1
            assert stats["states"]["done"] == 1
            assert stats["max_concurrency"] == 3
            await scheduler.stop()

        run_async(main())
