#!/usr/bin/env python3
"""Engine-tagged benchmark runner: writes ``BENCH_interp.json``.

A thin wrapper over the :mod:`repro.bench` orchestrator's timing
machinery: kernels come from the :mod:`repro.workloads` registry (plus
the two paper listings that are not registry workloads), timing is the
orchestrator's ``best_of``, and the historical ``BENCH_interp.json``
schema is preserved so the interpreter performance trajectory stays
comparable from PR to PR::

    PYTHONPATH=src python benchmarks/run_all.py [--reps 5] [--out BENCH_interp.json]

The JSON schema (one entry per bench x engine)::

    {"meta": {...}, "results": [
        {"bench": "nbody_8p2s", "engine": "closure", "n_pes": 2,
         "seconds": 0.004, "speedup_vs_ast": 3.9}, ...]}

For the full workload matrix (checkers, cross-engine differentials, NoC
projections, baseline regression mode) use ``python -m repro.bench``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import platform
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import run_lolcode  # noqa: E402
from repro.bench import best_of  # noqa: E402
from repro.workloads import all_workloads, nbody_source  # noqa: E402

sys.path.insert(0, str(REPO_ROOT))
from benchmarks.conftest import lol  # noqa: E402

BARRIER_SRC = (REPO_ROOT / "examples" / "lol" / "barrier.lol").read_text()
LOCKS_SRC = (REPO_ROOT / "examples" / "lol" / "locks.lol").read_text()

MATH_KERNEL = lol(
    "I HAS A acc ITZ 0.0\n"
    "IM IN YR k UPPIN YR i TIL BOTH SAEM i AN 3000\n"
    "  acc R SUM OF acc AN FLIP OF UNSQUAR OF SUM OF PRODUKT OF i AN i AN 1.0\n"
    "IM OUTTA YR k\n"
    "VISIBLE acc"
)

#: (name, source, n_pes) benchmark matrix.
BENCHES = [
    ("nbody_8p2s", nbody_source(8, 2), 2),
    ("nbody_16p2s", nbody_source(16, 2), 2),
    ("math_kernel", MATH_KERNEL, 1),
    ("barrier", BARRIER_SRC, 4),
    ("locks", LOCKS_SRC, 4),
]


#: "Classroom scale" parameter overrides for the registry sweep below:
#: big enough that interpretation dominates world setup, small enough
#: that the whole matrix finishes in seconds.
REGISTRY_PARAMS = {
    "pi_montecarlo": {"darts": 20000},
    "nbody": {"particles": 32, "steps": 2},
    "nbody_racy": {"particles": 32, "steps": 2},
    "histogram": {"draws": 2000},
    "heat1d": {"cells": 256, "steps": 100},
    "heat2d": {"rows": 16, "cols": 32, "steps": 20},
}

REGISTRY_N_PES = 4


def run_registry(reps: int) -> tuple[list[dict], float]:
    """closure-vs-vm rows for every registry workload at np=4.

    Returns the rows plus the geometric-mean vm speedup over closure —
    the headline number for the register-bytecode VM engine.
    """
    results: list[dict] = []
    ratios: list[float] = []
    for workload in all_workloads():
        n_pes = max(REGISTRY_N_PES, workload.min_pes)
        src = workload.source(
            workload.bind_params(REGISTRY_PARAMS.get(workload.name))
        )
        timings: dict[str, float] = {}
        for engine in ("closure", "vm"):
            fn = lambda: run_lolcode(  # noqa: E731
                src, n_pes, seed=42, engine=engine
            )
            fn()  # warm parse/compile caches
            timings[engine] = best_of(fn, reps)
        ratios.append(timings["closure"] / timings["vm"])
        for engine, seconds in timings.items():
            results.append(
                {
                    "bench": f"wl_{workload.name}",
                    "engine": engine,
                    "n_pes": n_pes,
                    "seconds": round(seconds, 6),
                    "speedup_vs_closure": round(
                        timings["closure"] / seconds, 3
                    ),
                }
            )
    geomean = math.exp(sum(map(math.log, ratios)) / len(ratios))
    return results, geomean


def run_benches(reps: int) -> list[dict]:
    results: list[dict] = []
    for name, src, n_pes in BENCHES:
        timings: dict[str, float] = {}
        for engine in ("ast", "closure", "vm"):
            fn = lambda: run_lolcode(src, n_pes, seed=42, engine=engine)  # noqa: E731
            fn()  # warm parse/compile caches
            timings[engine] = best_of(fn, reps)
        for engine, seconds in timings.items():
            results.append(
                {
                    "bench": name,
                    "engine": engine,
                    "n_pes": n_pes,
                    "seconds": round(seconds, 6),
                    "speedup_vs_ast": round(timings["ast"] / seconds, 3),
                }
            )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=5, help="best-of reps")
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_interp.json"),
        help="output JSON path",
    )
    args = parser.parse_args(argv)

    results = run_benches(args.reps)
    registry_rows, vm_geomean = run_registry(args.reps)
    results.extend(registry_rows)
    payload = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "reps": args.reps,
            "note": "seconds = best-of-reps wall clock via run_lolcode",
            "vm_vs_closure_geomean_np4": round(vm_geomean, 3),
        },
        "results": results,
    }
    pathlib.Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    width = max(len(r["bench"]) for r in results)
    print(f"{'bench':<{width}} {'engine':>10} {'PEs':>4} {'seconds':>10} {'speedup':>8}")
    for r in results:
        speedup = r.get("speedup_vs_ast", r.get("speedup_vs_closure"))
        print(
            f"{r['bench']:<{width}} {r['engine']:>10} {r['n_pes']:>4} "
            f"{r['seconds']:>10.4f} {speedup:>7.2f}x"
        )
    closure_nbody = [
        r
        for r in results
        if r["engine"] == "closure" and r["bench"].startswith("nbody")
    ]
    worst = min(r["speedup_vs_ast"] for r in closure_nbody)
    print(f"\nclosure engine vs tree-walker on n-body: worst {worst:.2f}x")
    print(f"vm engine vs closure, registry geomean (np=4): {vm_geomean:.2f}x")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
