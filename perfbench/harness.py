"""The measured process of the benchmark; ``run.py`` starts it.

    python3 perfbench/harness.py --workload NAME --seed N --t0 T \\
        --mode setup|loop|traced [--seconds S] [--runs R]

``--t0`` is the starter's ``time.monotonic()`` just before it spawned
this process, so set-up time covers interpreter start and every import.
Modes:

* ``setup``: set the workload up and report ``setup_s`` only;
* ``loop``: set up, run the untraced closed loop for ``--seconds``
  (whole cycles, at least 100 runs), verify every run with the
  workload's checker, then replay a seeded sample on the ``ast``
  reference engine and compare VISIBLE output bit for bit;
* ``traced``: arm the ``repro.obs`` metrics plane, install the layer
  wrappers, set up, and run the same job list for exactly ``--runs``
  runs; report the per-layer metrics.

Timings are scaled to a reference host speed (``calibrate.py``): the
calibration probe runs between cycles at least every ``PROBE_EVERY_S``,
and each run is divided by the mean slowness of the probes on either
side of it.  Set-up time is divided by the median slowness of probes
taken just before and just after it.  No probe runs inside a timed
interval.

Prints one JSON object on stdout.  Nothing from ``repro`` is imported
before the CPU is pinned.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import schedule  # noqa: E402
from perfbench.calibrate import slowness  # noqa: E402
from perfbench.layers import Recorder, patched, summarize  # noqa: E402
from perfbench.stats import median, normalized, whole_loop  # noqa: E402

MIN_RUNS = 100
REFERENCE_CAP = 12
#: Least interval between two probes in a loop.
PROBE_EVERY_S = 0.05
#: Probes taken before and after set-up.
SETUP_PROBES = 5


class InProcess:
    """``run_lolcode`` in this process: the spmd_* and edit_rerun loops."""

    root_layer = "launcher"

    def __init__(self, name: str, spec: dict) -> None:
        from repro import launcher
        from repro.workloads import get_workload

        self.launcher = launcher
        self.get_workload = get_workload
        self.spec = spec
        self.smoke = spec["smoke"]
        self.filename = f"<{name}>"
        # Workloads with binding windows get a new source every run.
        self.fresh = any("vary" in k for k in spec["kernels"])
        self.sources: dict = {}
        self.kept: list = []

    def _prepare(self, kernel: str, params: tuple, n_pes: int):
        w = self.get_workload(kernel)
        bound = w.bind_params(dict(params), smoke=self.smoke)
        source = self.sources.get((kernel, params))
        if source is None:
            source = w.source(bound)
            if not self.fresh:
                self.sources[(kernel, params)] = source
        return w, bound, source, max(n_pes, w.min_pes)

    def setup(self) -> None:
        """Warm imports and compile caches with one run per kernel.  The
        edit_rerun warm-up uses its own filename, so timed runs still
        miss every compile cache."""
        filename = "<setup>" if self.fresh else self.filename
        for k in self.spec["kernels"]:
            params = tuple(sorted(k.get("params", {}).items()))
            _, _, source, n = self._prepare(k["name"], params, self.spec["n_pes"])
            self.launcher.run_lolcode(
                source,
                n,
                executor=self.spec["executor"],
                engine=self.spec["engine"],
                check=self.spec["check"],
                filename=filename,
            )

    def run(self, job: schedule.Job):
        w, bound, source, n = self._prepare(job.kernel, job.params, job.n_pes)
        t0 = perf_counter()
        result = self.launcher.run_lolcode(
            source,
            n,
            executor=job.executor,
            engine=job.engine,
            seed=job.seed,
            check=self.spec["check"],
            filename=self.filename,
        )
        elapsed = perf_counter() - t0
        problems = w.check(result, n, bound, smoke=self.smoke)
        if job.reference and not problems and len(self.kept) < REFERENCE_CAP:
            self.kept.append((job, source, n, list(result.outputs)))
        return elapsed, problems

    def replay(self) -> tuple:
        """Compare the kept runs' VISIBLE output with the ast engine."""
        mismatches = []
        for job, source, n, outputs in self.kept:
            ref = self.launcher.run_lolcode(
                source, n, executor="thread", engine="ast", seed=job.seed
            )
            if list(ref.outputs) != outputs:
                mismatches.append(
                    f"job {job.index} ({job.kernel} {dict(job.params)}): VISIBLE "
                    f"output differs from the ast reference engine"
                )
        return len(self.kept), mismatches

    def worker_pids(self) -> list:
        return []

    def close(self) -> None:
        pass


class Service:
    """Jobs over one ServiceClient to an in-process BackgroundServer."""

    root_layer = "service"

    def __init__(self, name: str, spec: dict, tmp: str) -> None:
        from repro.compiler.native import find_cc

        if find_cc() is None:
            raise SystemExit(
                f"{name}: no C compiler (cc, gcc, clang or $LOL_CC) on PATH, "
                f"so its engine='c' jobs cannot run; refusing to drop them"
            )
        from repro.service.client import ServiceClient
        from repro.service.server import BackgroundServer

        self.spec = spec
        # A short relative path: AF_UNIX paths are length-limited.
        socket_path = os.path.relpath(os.path.join(tmp, "s.sock"))
        self.server = BackgroundServer(socket_path, max_concurrency=1)
        self.server.__enter__()
        self.client = ServiceClient(socket_path)
        self.rows: list = []
        #: Context around each timed job; the traced pass opens its root
        #: span here, since the job's layers run on the server's threads.
        self.root = nullcontext

    def _submit(self, kernel: str, params: tuple, lane: dict, seed: int) -> dict:
        job_id = self.client.submit(
            workload=kernel,
            params=dict(params) or None,
            n_pes=self.spec["n_pes"],
            engine=lane["engine"],
            executor=lane["executor"],
            seed=seed,
        )
        return self.client.wait(job_id)

    def setup(self) -> None:
        """Spawn the pool and build every native binary (fresh cache)."""
        for k in self.spec["kernels"]:
            params = tuple(sorted(k.get("params", {}).items()))
            for lane in self.spec["lanes"]:
                desc = self._submit(k["name"], params, lane, 0)
                if desc["state"] != "done":
                    raise RuntimeError(f"set-up job {k['name']} failed: {desc}")

    def run(self, job: schedule.Job):
        lane = {"engine": job.engine, "executor": job.executor}
        t0 = perf_counter()
        with self.root():
            desc = self._submit(job.kernel, job.params, lane, job.seed)
        elapsed = perf_counter() - t0
        if desc["state"] != "done":
            return elapsed, [f"job ended {desc['state']}: {desc.get('error')}"]
        row = desc["result"]
        problems = []
        if row.get("checker") != "pass":
            problems.append(f"checker: {row.get('checker')}")
        if row.get("degraded"):
            problems.append(f"degraded: {row.get('degraded_reason')}")
        self.rows.append(
            (elapsed, desc["started_at"] - desc["submitted_at"], elapsed - row["seconds"])
        )
        return elapsed, problems

    def replay(self) -> tuple:
        return 0, []

    def worker_pids(self) -> list:
        from repro.service.pool import get_default_pool

        return get_default_pool(self.spec["n_pes"]).worker_pids()

    def close(self) -> None:
        from repro.service.pool import shutdown_default_pool

        try:
            self.server.__exit__(None, None, None)
        finally:
            shutdown_default_pool()


def closed_loop(runner, job_iter, cycle: int, probe, *, deadline=None, runs=None):
    """One caller, next run after the previous returns; stops at a cycle
    boundary once ``runs`` are done or ``deadline`` passed (and at least
    MIN_RUNS ran).  ``probe()`` returns the host's slowness.  Returns
    ``(records, failures, probes)``: one ``(latency or None, iteration
    wall, block)`` record per attempted run, and the slowness probes, for
    :func:`perfbench.stats.normalized`."""
    records: list = []
    failures: list = []
    probes = [probe()]
    last_probe = perf_counter()
    try:
        for job in job_iter:
            if job.index % cycle == 0:
                if runs is not None and len(records) >= runs:
                    break
                if (
                    deadline is not None
                    and perf_counter() >= deadline
                    and len(records) >= MIN_RUNS
                ):
                    break
                if perf_counter() - last_probe >= PROBE_EVERY_S:
                    probes.append(probe())
                    last_probe = perf_counter()
            start = perf_counter()
            try:
                elapsed, problems = runner.run(job)
            except Exception as exc:  # noqa: BLE001 - a failed run is a data point
                elapsed, problems = None, [f"{type(exc).__name__}: {exc}"]
            if problems:
                failures.append(f"job {job.index} ({job.kernel}): {problems}")
                elapsed = None
            records.append((elapsed, perf_counter() - start, len(probes) - 1))
    except schedule.ScheduleExhausted as exc:
        failures.append(f"schedule ended early: {exc}")
    probes.append(probe())
    return records, failures, probes


def peak_rss_mb(pids) -> float:
    """Peak RSS of this process plus the given live processes (VmHWM)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    kb += int(line.split()[1])
    return kb / 1024


def refuse_armed() -> None:
    """An armed fault or observability plane is a different program."""
    import repro.faults
    import repro.obs

    if repro.obs.ACTIVE is not None or repro.faults.active_plan() is not None:
        raise SystemExit("refusing to time runs with LOL_OBS or LOL_FAULTS armed")


def make_runner(name: str, spec: dict, tmp: str):
    return Service(name, spec, tmp) if "lanes" in spec else InProcess(name, spec)


def _probe(spec: dict):
    return functools.partial(slowness, spec["probe_threads"])


def untraced(args, name: str, spec: dict, before: list, probe_s: float) -> dict:
    """``before`` are the slowness probes taken after start-up, before
    any import of ``repro``; their ``probe_s`` seconds are taken out of
    set-up."""
    refuse_armed()
    probe = _probe(spec)
    runner = make_runner(name, spec, os.environ.get("TMPDIR", "."))
    try:
        runner.setup()
        raw_setup_s = time.monotonic() - args.t0 - probe_s
        setup_s = raw_setup_s / median(before + [probe() for _ in range(SETUP_PROBES)])
        if args.mode == "setup":
            return {"setup_s": setup_s}
        records, failures, probes = closed_loop(
            runner,
            schedule.jobs(name, args.seed, spec),
            schedule.cycle_length(spec),
            probe,
            deadline=perf_counter() + args.seconds,
        )
        rss = peak_rss_mb(runner.worker_pids())
        checked, mismatches = runner.replay()
    finally:
        runner.close()
    failures += mismatches
    raw = whole_loop([(lat, wall) for lat, wall, _ in records])
    return {
        "setup_s": setup_s,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:5],
        **whole_loop(normalized(records, probes)),
        "peak_rss_mb": rss,
        "reference_checked": checked,
        "raw_setup_s": raw_setup_s,
        "raw_run_p50_ms": raw["run_p50_ms"],
        "slowness_p50": median(probes),
    }


def traced(args, name: str, spec: dict, groups: dict) -> dict:
    import repro.obs as obs

    obs.arm("metrics")  # before set-up, so pool workers spawn armed
    recorder = Recorder()
    with patched(recorder):
        from repro.compiler.native import native_stats
        from repro.interp import compile_vm_cached
        from repro.lang.parser import parse_cached

        runner = make_runner(name, spec, os.environ.get("TMPDIR", "."))
        try:
            runner.setup()
            setup_spans = recorder.take()
            registry = obs.get_registry()
            before = registry.snapshot(collect=False)
            parse0, compile0 = parse_cached.cache_info(), compile_vm_cached.cache_info()
            native0 = native_stats()
            if isinstance(runner, Service):
                runner.root = lambda: recorder.span(runner.root_layer)
            records, failures, probes = closed_loop(
                runner,
                schedule.jobs(name, args.seed, spec),
                schedule.cycle_length(spec),
                _probe(spec),
                runs=args.runs,
            )
            obs_delta = obs.diff_snapshots(before, registry.snapshot(collect=False))
            parse1, compile1 = parse_cached.cache_info(), compile_vm_cached.cache_info()
            native1 = native_stats()
            spans = recorder.take()
        finally:
            runner.close()
    rows = getattr(runner, "rows", [])
    service = (
        {
            key: sum(r[i] for r in rows) * 1e3 / len(rows)
            for i, key in enumerate(("rtt_ms", "queue_ms", "overhead_ms"))
        }
        if rows
        else None
    )
    metrics, shares = summarize(
        spans,
        runs=len(records),
        root_layer=runner.root_layer,
        walls=[lat for lat, _, _ in records if lat is not None],
        setup_spans=setup_spans,
        code_lens=recorder.code_lens,
        obs_delta=obs_delta,
        parse_cache=(parse1.hits - parse0.hits, parse1.misses - parse0.misses),
        compile_cache=(compile1.hits - compile0.hits, compile1.misses - compile0.misses),
        native_delta={k: native1[k] - native0[k] for k in native1},
        service=service,
        groups=groups,
    )
    return {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:5],
        "run_p50_ms": whole_loop(normalized(records, probes))["run_p50_ms"],
        "metrics": metrics,
        "shares": shares,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "loop", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--runs", type=int)
    args = parser.parse_args(argv)
    full = schedule.load_spec()
    spec = full["workloads"][args.workload]
    if spec["pin_cpu"]:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    if args.mode == "traced":
        out = traced(args, args.workload, spec, full["layer_groups"])
    else:
        t = perf_counter()
        before = [slowness(spec["probe_threads"]) for _ in range(SETUP_PROBES)]
        out = untraced(args, args.workload, spec, before, perf_counter() - t)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
