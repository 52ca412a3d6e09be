"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import schedule  # noqa: E402
from perfbench.layers import (  # noqa: E402
    Recorder,
    Span,
    attribute,
    patched,
    self_times,
    union_length,
)
from perfbench.stats import median, normalized, percentile, whole_loop  # noqa: E402

SPEC = schedule.load_spec()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def first(name: str, seed: int, n: int) -> list:
    return list(itertools.islice(schedule.jobs(name, seed), n))


# -- job lists ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPEC["workloads"]))
def test_same_seed_same_job_list(name):
    assert first(name, 7, 200) == first(name, 7, 200)


@pytest.mark.parametrize("name", sorted(SPEC["workloads"]))
def test_other_seed_permutes_the_same_multiset(name):
    spec = SPEC["workloads"][name]
    cycle = schedule.cycle_length(spec)
    a, b = first(name, 1, cycle), first(name, 2, cycle)

    def work(jobs):
        return [(j.kernel, j.engine) for j in jobs]

    assert Counter(work(a)) == Counter(work(b))
    orders = {tuple(work(first(name, seed, cycle))) for seed in range(8)}
    assert len(orders) > 1


def test_serve_mix_alternates_engines():
    engines = [j.engine for j in first("serve_mix", 3, 64)]
    assert engines == ["vm", "c"] * 32


def test_each_cycle_holds_the_whole_multiset():
    spec = SPEC["workloads"]["spmd_compute"]
    cycle = schedule.cycle_length(spec)
    jobs = first("spmd_compute", 5, 4 * cycle)
    want = Counter(k["name"] for k in spec["kernels"])
    for i in range(0, len(jobs), cycle):
        assert Counter(j.kernel for j in jobs[i : i + cycle]) == want


def test_edit_rerun_never_repeats_a_source_text():
    from repro.workloads import get_workload

    spec = SPEC["workloads"]["edit_rerun"]
    sources = []
    for job in first("edit_rerun", 11, 1500):
        w = get_workload(job.kernel)
        sources.append(w.source(w.bind_params(dict(job.params), smoke=spec["smoke"])))
    assert len(set(sources)) == len(sources)


def test_bindings_stop_when_the_windows_run_out():
    spec = {
        "engine": "vm",
        "executor": "thread",
        "n_pes": 1,
        "kernels": [{"name": "ring", "vary": {"scale": [1, 3]}}],
    }
    jobs = schedule.jobs("tiny", 0, spec)
    assert sorted(dict(next(jobs).params)["scale"] for _ in range(3)) == [1, 2, 3]
    with pytest.raises(schedule.ScheduleExhausted):
        next(jobs)


# -- span arithmetic ----------------------------------------------------------


def synthetic_tree() -> list:
    # root [0, 10] on the caller compiles [0, 1], then starts PE a [1, 6]
    # and PE b [2, 6] like two threads.  a waits in a barrier [1.5, 2.5]
    # while b is still being started; later b waits [4, 5] and a [4.5, 5].
    # A check [11, 12] is a second root.
    return [
        Span(1, None, 1, "launcher", 0.0, 10.0),
        Span(2, 1, 1, "vm.compile", 0.0, 1.0),
        Span(3, 1, 1, "vm.run", 1.0, 6.0),
        Span(4, 1, 1, "vm.run", 2.0, 6.0),
        Span(5, 3, 1, "shmem.barrier", 1.5, 2.5),
        Span(6, 4, 1, "shmem.barrier", 4.0, 5.0),
        Span(7, 3, 1, "shmem.barrier", 4.5, 5.0),
        Span(8, None, 8, "workloads.check", 11.0, 12.0),
    ]


def test_union_length():
    assert union_length([]) == 0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3), (1.5, 2.5)]) == 3
    assert union_length([(0, 5), (1, 2)]) == 5


def test_self_times_subtract_the_union_of_children():
    selfs = self_times(synthetic_tree())
    assert selfs[1] == pytest.approx(10 - 6)  # minus [0, 1] and [1, 6]
    assert selfs[3] == pytest.approx(5 - 1.5)  # minus its waits
    assert selfs[4] == pytest.approx(4 - 1)
    assert [selfs[i] for i in (2, 5, 6, 7, 8)] == pytest.approx([1, 1, 1, 0.5, 1])


def test_attribute_partitions_the_root_interval():
    spans = synthetic_tree()
    shares = attribute([s for s in spans if s.root == 1], spans[0])
    assert sum(shares.values()) == pytest.approx(10)
    # [1.5, 2] a waits and b has not started: the root is starting it.
    # [2, 2.5] and [4, 4.5] one PE waits, so the other gets the instant.
    # [4.5, 5] both wait after every PE started: the barrier keeps it.
    assert shares["vm.compile"] == pytest.approx(1)
    assert shares["vm.run"] == pytest.approx(0.5 + 0.5 + 1.5 + 0.5 + 1)
    assert shares["shmem.barrier"] == pytest.approx(0.5)
    assert shares["launcher"] == pytest.approx(0.5 + 4)


def test_a_wait_beside_working_spans_gives_them_the_instant():
    spans = [
        Span(1, None, 1, "launcher", 0.0, 4.0),
        Span(2, 1, 1, "vm.run", 0.0, 4.0),
        Span(3, 1, 1, "vm.run", 0.0, 4.0),
        Span(4, 2, 1, "shmem.barrier", 1.0, 3.0),
    ]
    shares = attribute(spans, spans[0])
    assert shares == {"vm.run": pytest.approx(4)}


def test_coverage_leaves_out_the_root_residual():
    from perfbench.layers import summarize

    spans = synthetic_tree()
    metrics, shares = summarize(
        spans,
        runs=1,
        root_layer="launcher",
        walls=[10.0],
        setup_spans=[],
        code_lens=[],
        obs_delta={},
        parse_cache=(0, 0),
        compile_cache=(0, 0),
        native_delta={},
        service=None,
        groups={"launch": ["launcher"], "vm_body": ["vm.run"], "sync": ["shmem.barrier"]},
    )
    assert metrics["trace.coverage_ratio"] == pytest.approx(0.55)
    assert shares == pytest.approx({"launch": 0.45, "vm_body": 0.4, "sync": 0.05})


def test_recorder_nests_across_threads():
    import threading

    rec = Recorder()
    inner = rec.wrap("vm.run", lambda: None)
    outer = rec.wrap(
        "launcher",
        lambda: [t.start() or t.join() for t in [threading.Thread(target=inner)]],
    )
    outer()
    by_layer = {s.layer: s for s in rec.take()}
    assert by_layer["launcher"].parent is None
    assert by_layer["vm.run"].parent == by_layer["launcher"].sid
    assert by_layer["vm.run"].root == by_layer["launcher"].root == by_layer["launcher"].sid
    assert rec.spans == []


def test_patched_run_records_every_launch_layer_and_restores():
    from repro import launcher
    from repro.shmem.api import ShmemContext, World
    from repro.workloads import get_workload

    before = (launcher.run_lolcode, vars(World)["for_threads"], ShmemContext.__init__)
    rec = Recorder()
    with patched(rec):
        launcher.run_lolcode(get_workload("ring").source(), 4, engine="vm")
    after = (launcher.run_lolcode, vars(World)["for_threads"], ShmemContext.__init__)
    assert after == before
    layers = Counter(s.layer for s in rec.spans)
    assert layers["launcher"] == 1
    assert layers["shmem.world"] == 1
    assert layers["shmem.ctx"] == 4
    assert layers["vm.run"] == 4
    assert layers["shmem.barrier"] >= 4
    assert len({s.root for s in rec.spans}) == 1


# -- order statistics -----------------------------------------------------------


def test_percentile_on_known_samples():
    ten = list(range(1, 11))
    assert median(ten) == 5.5
    assert percentile(ten, 90) == pytest.approx(9.1)
    assert percentile(ten, 0) == 1
    assert percentile(ten, 100) == 10
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([4.0], 90) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_whole_loop_figures():
    fast = [(0.001, 0.001)] * 100
    slow = [(0.002, 0.002)] * 100
    stats = whole_loop(fast * 3 + slow)
    assert stats["run_p50_ms"] == pytest.approx(1.0)
    assert stats["run_p90_ms"] == pytest.approx(2.0)
    assert stats["runs_per_s"] == pytest.approx(400 / 0.5)
    # a failed run counts against throughput, not latency
    half = whole_loop([(0.001, 0.001), (None, 0.001)] * 50)
    assert half["runs_per_s"] == pytest.approx(500)
    assert half["run_p50_ms"] == pytest.approx(1.0)
    assert whole_loop([(None, 0.001)] * 10)["run_p50_ms"] == 0.0


def test_normalized_scales_each_run_by_the_probes_around_it():
    # block 0 ran between slowness 1 and 3 (mean 2: half speed), block 1
    # between 3 and 1, block 2 at reference speed
    records = [(0.008, 0.010, 0), (None, 0.004, 1), (0.003, 0.003, 2)]
    out = normalized(records, [1.0, 3.0, 1.0, 1.0])
    assert out[0] == pytest.approx((0.004, 0.005))
    assert out[1][0] is None and out[1][1] == pytest.approx(0.002)
    assert out[2] == pytest.approx((0.003, 0.003))


# -- the benchmark contract -------------------------------------------------------


def test_spec_and_benchmark_agree():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPEC["workloads"])
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(SPEC["per_layer"])
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    grouped = [layer for layers in SPEC["layer_groups"].values() for layer in layers]
    for w in SPEC["workloads"].values():
        assert w["dominant"] in SPEC["layer_groups"]
    assert len(grouped) == len(set(grouped))


def bench(*args, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(SPEC["workloads"]))
def test_smoke_run_prints_every_metric_with_its_unit(name, trace):
    proc = bench("--workload", name, "--seed", "1", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 100
    kind = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    for name_, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name_
    if trace == "0":
        assert all(v["value"] > 0 for v in out["metrics"].values())
    else:
        assert "predicted dominant layer group" in proc.stdout
    assert not (ROOT / ".perfbench-tmp").exists()


def test_refuses_an_armed_plane():
    env = dict(os.environ, LOL_OBS="metrics")
    proc = bench("--workload", "spmd_small", "--seed", "1", "--seconds", "1", "--trace", "0", env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
