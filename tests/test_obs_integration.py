"""End-to-end observability tests: traced runs across executors, the
cross-process metrics merge, the server's Prometheus op, and the golden
Chrome trace for a 4-PE ring run.

The golden trace is *structurally* normalized — timestamps, durations,
span IDs and pids are stripped; names, categories, thread labels and
symbolic args are kept — so it is stable across machines while still
locking the span taxonomy.  Regenerate with ``UPDATE_GOLDEN=1``.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import time

import pytest

from repro import obs, run_lolcode
from repro.lang.types import LolType
from repro.obs.promcheck import validate_exposition
from repro.service.pool import WorkerPool, shutdown_default_pool
from repro.shmem import SymmetricPlan
from repro.workloads import get_workload

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_ring_np4.json"

pytestmark = pytest.mark.service


@pytest.fixture(autouse=True)
def _obs_isolated():
    obs.disarm()
    obs.reset_registry()
    yield
    obs.disarm()
    obs.reset_registry()


def _ring_source() -> str:
    workload = get_workload("ring")
    params = workload.bind_params(None, smoke=True)
    return workload.source(params)


def _normalize(doc: dict) -> list:
    """Structural skeleton of a Chrome trace: machine-independent."""
    keep_args = ("engine", "pe", "n_pes", "symbol", "to", "nbytes", "filename")
    events = []
    for event in doc["traceEvents"]:
        if event["ph"] == "M":
            continue
        tid = str(event["tid"])
        if not re.fullmatch(r"PE-\d+", tid):
            tid = "host"  # executor thread names carry run-local numbers
        args = {
            k: event["args"][k] for k in keep_args if k in event["args"]
        }
        events.append(
            {
                "name": event["name"],
                "cat": event["cat"],
                "ph": event["ph"],
                "tid": tid,
                "args": args,
            }
        )
    events.sort(
        key=lambda e: (
            e["cat"],
            e["name"],
            e["tid"],
            json.dumps(e["args"], sort_keys=True),
        )
    )
    return events


class TestGoldenTrace:
    def test_ring_np4_thread_trace_matches_golden(self):
        obs.arm("trace")
        run_lolcode(
            _ring_source(),
            4,
            executor="thread",
            engine="vm",
            seed=42,
            filename="<workload:ring>",
        )
        doc = obs.ACTIVE.tracer.export_chrome()
        got = _normalize(doc)
        if os.environ.get("UPDATE_GOLDEN"):
            GOLDEN.write_text(json.dumps(got, indent=1) + "\n")
        want = json.loads(GOLDEN.read_text())
        assert got == want

    def test_trace_is_loadable_chrome_json(self):
        obs.arm("trace")
        run_lolcode(_ring_source(), 4, executor="thread", seed=42)
        doc = json.loads(obs.ACTIVE.tracer.export_chrome_json())
        assert doc["displayTimeUnit"] == "ms"
        for event in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0


class TestPoolTracing:
    def test_pool_run_nests_all_pes_under_one_root(self):
        shutdown_default_pool()
        obs.arm("trace,metrics")
        try:
            run_lolcode(
                _ring_source(), 4, executor="pool", engine="vm", seed=42
            )
            tracer = obs.ACTIVE.tracer
            spans = tracer.spans()
            launches = [s for s in spans if s["cat"] == "launch"]
            assert len(launches) == 1
            root = launches[0]
            runs = {
                s["name"]: s for s in spans if s["cat"] == "run"
            }
            assert set(runs) == {"pe0", "pe1", "pe2", "pe3"}
            t0, t1 = root["ts"], root["ts"] + root["dur"]
            for span in runs.values():
                assert t0 <= span["ts"] and span["ts"] + span["dur"] <= t1
            # worker spans kept their origin pid: >= 2 processes present
            assert len({s["pid"] for s in spans}) >= 2
            doc = tracer.export_chrome()
            json.dumps(doc)
            # per-PE barrier histograms merged from the workers
            hist = obs.get_registry().get("lol_barrier_wait_seconds")
            pes = {dict(k)["pe"] for k in hist._series}
            assert pes == {"0", "1", "2", "3"}
        finally:
            shutdown_default_pool()


def _worker_pid(ctx):
    return os.getpid()


class TestPoolWorkerDeathMetrics:
    def test_respawn_and_liveness_counters(self):
        obs.arm("metrics")
        reg = obs.get_registry()
        replaced = reg.counter("lol_pool_workers_replaced_total")
        with WorkerPool(2) as pool:
            pids = pool.run(_worker_pid, 2, SymmetricPlan()).returns
            before = replaced.total()
            os.kill(pids[1], signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while pool._workers[1].process.is_alive():
                assert time.monotonic() < deadline, "worker did not die"
                time.sleep(0.05)
            result = pool.run(_worker_pid, 2, SymmetricPlan())
            assert result.returns[1] != pids[1]
            assert replaced.total() == before + 1 == pool.workers_replaced
            assert pool.workers_alive() == 2


class TestPoolMetricsMerge:
    def test_worker_metrics_ride_the_reply_pipe(self):
        obs.arm("metrics")
        run_lolcode(_ring_source(), 2, executor="pool", seed=42)
        reg = obs.get_registry()
        hist = reg.get("lol_barrier_wait_seconds")
        assert hist is not None
        merged = hist.merged_summary()
        assert merged and merged["count"] >= 2  # one barrier per PE minimum
        comm = reg.get("lol_comm_ops_total")
        assert comm is not None and comm.total() >= 2


class TestServerMetricsOp:
    def test_prometheus_exposition_covers_sched_and_latency(self):
        from repro.service.client import ServiceClient
        from repro.service.server import BackgroundServer

        with BackgroundServer(max_concurrency=2) as bg:
            client = ServiceClient(bg.socket_path)
            job = client.submit(
                workload="ring", smoke=True, n_pes=2,
                engine="vm", executor="thread",
            )
            client.result(job)
            text = client.metrics()
            assert validate_exposition(text) == []
            for series in (
                "lol_sched_queue_depth",
                "lol_sched_running",
                'lol_sched_jobs_submitted_total{engine="vm"} 1',
                "lol_job_latency_seconds_bucket",
            ):
                assert series in text, f"missing {series}"
            stats = client.stats()
            assert stats["latency"]["vm"]["count"] == 1
            assert "p99_s" in stats["latency"]["vm"]


class TestDisarmedIsStructurallyFree:
    def test_vm_machine_has_no_obs_references(self):
        """The VM dispatch loop must stay instrumentation-free: the
        profiler wraps the code object from the outside, and counters
        flush in ``VMProgram.run`` *after* the run."""
        import repro.vm.machine as machine_mod

        source = pathlib.Path(machine_mod.__file__).read_text()
        assert re.search(r"\b_?obs\b", source) is None
        assert "ACTIVE" not in source

    def test_disarmed_sites_take_none_branch(self):
        assert obs.ACTIVE is None
        result = run_lolcode(_ring_source(), 2, executor="thread", seed=42)
        assert obs.ACTIVE is None
        comm = obs.get_registry().get("lol_comm_ops_total")
        assert comm is None or comm.total() == 0  # nothing recorded
        assert result.output
