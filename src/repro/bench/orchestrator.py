"""The experiment orchestrator: sweep workloads across engine x
executor x PE-count, verify every run, and collect structured results.

For each (workload, executor, n_pes) cell the orchestrator:

1. generates the kernel source from the workload registry;
2. runs it **traced** once per engine, feeding the result to the
   workload's checker and capturing the op trace;
3. cross-checks the engines **differentially** (bit-identical VISIBLE
   output for the same ``(source, n_pes, seed)`` — skipped only for
   workloads registered ``deterministic=False``);
4. times best-of-``reps`` untraced runs per engine;
5. replays the op trace against the NoC machine models (Epiphany-III,
   Cray XC40, ...) for modeled time projections.

``run_sweep`` returns the full ``BENCH_workloads.json`` payload;
verification failures are recorded in the rows (and summarized in
``payload["failures"]``) rather than raised, so one broken cell cannot
hide the rest of the sweep.

``engine="c"`` rows are special-cased three ways: they are labelled
``executor: "native"`` (native PEs are OS processes whichever executor
the sweep names), they carry no
trace/projection data (native binaries are not instrumented), and a
host without a C compiler records an explicit per-row skip instead of
an error — the matrix stays green on interpreter-only machines.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence


from ..compiler import CompileError, NativeToolchainError
from ..launcher import run_lolcode
from ..noc import MachineModel, cray_xc40, epiphany_iii
from ..noc.report import projection_rows
from ..workloads import Workload, all_workloads, get_workload

SCHEMA_VERSION = 1


def best_of(fn, reps: int) -> float:
    """Best-of-``reps`` wall-clock seconds for ``fn()``."""
    best = float("inf")
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def default_machines() -> List[MachineModel]:
    """The paper's two demonstration platforms."""
    return [epiphany_iii(), cray_xc40()]


@dataclass(frozen=True)
class SweepConfig:
    """What to run: the experiment matrix plus measurement knobs."""

    workloads: Sequence[str] = ()  # empty = every registered workload
    engines: Sequence[str] = ("ast", "vm")
    executors: Sequence[str] = ("thread",)
    pe_counts: Sequence[int] = (1, 4)
    reps: int = 3
    seed: int = 42
    smoke: bool = False  # use each workload's small smoke sizes
    #: per-workload param overrides, e.g. {"nbody": {"particles": 16}}
    params: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    machines: Optional[Sequence[MachineModel]] = None
    #: attach an ``obs`` block (barrier-wait p50/p99, comm-op counts,
    #: VM engine events) to every row via one extra metrics-armed run —
    #: outside the timed reps, so ``seconds`` stays uninstrumented
    obs: bool = False

    def selected(self) -> List[Workload]:
        if not self.workloads:
            return all_workloads()
        return [get_workload(name) for name in self.workloads]


def _measure_cell(
    workload: Workload,
    executor: str,
    n_pes: int,
    config: SweepConfig,
    machines: Sequence[MachineModel],
) -> List[dict]:
    """All engine rows for one (workload, executor, n_pes) cell."""
    params = workload.bind_params(
        config.params.get(workload.name), smoke=config.smoke
    )
    source = workload.source(params)
    rows: List[dict] = []
    outputs: Dict[str, str] = {}
    for engine in config.engines:
        native = engine == "c"
        # The native engine's PEs are always OS processes: label the row
        # with what hosted them rather than the sweep's executor.
        row_executor = "native" if native else executor

        def once(trace: bool = False):
            return run_lolcode(
                source,
                n_pes,
                executor=executor,
                seed=config.seed,
                engine=engine,
                trace=trace,
                filename=f"<workload:{workload.name}>",
            )

        row = {
            "workload": workload.name,
            "engine": engine,
            "executor": row_executor,
            "n_pes": n_pes,
            "params": dict(params),
        }
        try:
            # Native binaries are not instrumented: their checker run is
            # untraced and their rows carry no trace/projection data.
            traced = once(trace=not native)
        except NativeToolchainError as exc:
            # No C compiler on this host: an environment skip, recorded
            # per row exactly like a compile restriction.
            row["skipped"] = f"native toolchain unavailable: {exc}"
            rows.append(row)
            continue
        except CompileError as exc:
            # A documented compile-time restriction of the C
            # backend (SRS computed identifiers, nested/symmetric
            # declarations in functions).  Record an explicit skip with
            # the reason — never silently fall back to another engine.
            row["skipped"] = f"compile-time restriction: {exc}"
            rows.append(row)
            continue
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
            continue
        try:
            problems = workload.check(traced, n_pes, params)
        except Exception as exc:  # noqa: BLE001 - a checker tripping over
            # malformed output is itself a verification failure, not a
            # reason to lose the rest of the sweep
            problems = [f"checker raised {type(exc).__name__}: {exc}"]
        row["checker"] = "pass" if not problems else problems
        outputs[engine] = traced.output
        once()  # warm the untraced compile cache before timing
        row["seconds"] = round(best_of(once, config.reps), 6)
        if config.obs and not native:
            row["obs"] = _instrumented_run(once)
        if traced.trace is not None:
            row["trace"] = traced.trace.summary()
            row["projections"] = projection_rows(traced.trace, list(machines))
        rows.append(row)

    # Differential verification: every engine must emit identical output.
    baseline_engine = next(
        (e for e in outputs if e != "c"), next(iter(outputs), None)
    )
    for row in rows:
        engine = row["engine"]
        if "error" in row or "skipped" in row or engine not in outputs:
            continue
        if not workload.deterministic:
            row["differential"] = "skipped (nondeterministic workload)"
        elif len(outputs) < 2:
            row["differential"] = "skipped (single engine)"
        elif outputs[engine] == outputs[baseline_engine]:
            row["differential"] = "pass"
        else:
            row["differential"] = (
                f"output differs from engine {baseline_engine!r}"
            )
    return rows


def _instrumented_run(once) -> dict:
    """One extra metrics-armed run for a row's ``obs`` block.

    Snapshot-diffing (rather than draining) means a concurrently armed
    caller keeps its registry intact; arming state is restored after.
    """
    from .. import obs as _obs

    prior = _obs.ACTIVE
    if prior is None or not prior.metrics_on:
        _obs.arm(prior.mode + ",metrics" if prior is not None else "metrics")
    reg = _obs.get_registry()
    before = reg.snapshot(collect=False)
    try:
        once()
    finally:
        after = reg.snapshot(collect=False)
        if prior is None:
            _obs.disarm()
        else:
            _obs.ACTIVE = prior
    delta = _obs.diff_snapshots(before, after)
    out: dict = {}
    bar = delta.get("lol_barrier_wait_seconds")
    if bar and bar.get("series"):
        samples = [
            s for state in bar["series"].values() for s in state["samples"]
        ]
        count = sum(state["count"] for state in bar["series"].values())
        if samples:
            out["barrier_wait"] = {
                "count": count,
                "p50_s": round(percentile(samples, 50), 9),
                "p99_s": round(percentile(samples, 99), 9),
            }
    for metric, label, key in (
        ("lol_comm_ops_total", "op", "comm_ops"),
        ("lol_comm_bytes_total", "op", "comm_bytes"),
        ("lol_vm_events_total", "event", "vm_events"),
    ):
        payload = delta.get(metric)
        if payload and payload.get("series"):
            out[key] = {
                dict(json.loads(raw)).get(label, "?"): value
                for raw, value in sorted(payload["series"].items())
            }
    return out


def run_sweep(config: SweepConfig) -> dict:
    """Execute the whole matrix; returns the JSON payload."""
    machines = (
        list(config.machines) if config.machines else default_machines()
    )
    results: List[dict] = []
    for workload in config.selected():
        for executor in config.executors:
            for n_pes in config.pe_counts:
                if n_pes < workload.min_pes:
                    continue
                results.extend(
                    _measure_cell(workload, executor, n_pes, config, machines)
                )
    payload = {
        "schema": SCHEMA_VERSION,
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "reps": config.reps,
            "seed": config.seed,
            "smoke": config.smoke,
            "machines": [m.name for m in machines],
            "note": "seconds = best-of-reps untraced wall clock via "
            "run_lolcode; projections = op-trace replay on machine models",
        },
        "results": results,
        "failures": collect_failures(results),
    }
    return payload


def collect_failures(results: Sequence[Mapping]) -> List[str]:
    """Human-readable list of every failed verification in a sweep."""
    failures: List[str] = []
    for row in results:
        tag = (
            f"{row['workload']}[{row['engine']}/{row['executor']}"
            f"/np{row['n_pes']}]"
        )
        if "skipped" in row:
            # An explicit, reasoned skip (C-backend restriction)
            # is a recorded outcome, not a verification failure.
            continue
        if "error" in row:
            failures.append(f"{tag}: error: {row['error']}")
            continue
        if row.get("checker") != "pass":
            problems = row.get("checker") or ["no checker result"]
            failures.append(f"{tag}: checker: {problems[0]}")
        diff = row.get("differential", "pass")
        if diff != "pass" and not diff.startswith("skipped"):
            failures.append(f"{tag}: differential: {diff}")
    return failures


def render_results(results: Sequence[Mapping]) -> str:
    """Fixed-width summary table for the terminal."""
    if not results:
        return "(no results)"
    width = max(len(r["workload"]) for r in results)
    lines = [
        f"{'workload':<{width}} {'engine':>8} {'exec':>7} {'PEs':>4} "
        f"{'seconds':>10} {'check':>6} {'diff':>5} "
        f"{'epiphany':>11} {'xc40':>11}"
    ]
    for r in results:
        if "skipped" in r:
            lines.append(
                f"{r['workload']:<{width}} {r['engine']:>8} "
                f"{r['executor']:>7} {r['n_pes']:>4} SKIP: {r['skipped']}"
            )
            continue
        if "error" in r:
            lines.append(
                f"{r['workload']:<{width}} {r['engine']:>8} "
                f"{r['executor']:>7} {r['n_pes']:>4} ERROR: {r['error']}"
            )
            continue
        check = "ok" if r.get("checker") == "pass" else "FAIL"
        diff = r.get("differential", "-")
        diff = {"pass": "ok"}.get(diff, "skip" if diff.startswith("skipped") else "FAIL")
        proj = {p["machine"]: p["makespan_s"] for p in r.get("projections", [])}
        epiphany = next(
            (v for k, v in proj.items() if "Epiphany" in k), None
        )
        xc40 = next((v for k, v in proj.items() if "XC40" in k), None)

        def _ms(value):
            # Untraced rows (the native engine) have no projections.
            return f"{value * 1e3:>9.3f}ms" if value is not None else f"{'-':>11}"

        lines.append(
            f"{r['workload']:<{width}} {r['engine']:>8} {r['executor']:>7} "
            f"{r['n_pes']:>4} {r['seconds']:>10.4f} {check:>6} {diff:>5} "
            f"{_ms(epiphany)} {_ms(xc40)}"
        )
    return "\n".join(lines)
