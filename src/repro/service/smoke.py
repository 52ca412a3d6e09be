"""Service smoke check: N concurrent registry workloads, all verified.

The CI ``service-smoke`` job runs this (as ``lolserve smoke``): start a
real server, fan out concurrent client threads each submitting a
workload from the registry (alternating warm-pool and thread executors),
wait for every result, and fail loudly unless **all** of them verify
against their workload checkers.

Non-deterministic workloads (``nbody_racy``) are excluded: their
checkers intentionally tolerate racy results, which would water down
"all results verify".
"""

from __future__ import annotations

import sys
import threading
from typing import Optional, Sequence

from .client import ServiceClient
from .scheduler import ServiceError
from .server import BackgroundServer

DEFAULT_JOBS = 20


def _smoke_matrix(jobs: int) -> list[tuple[str, str, int]]:
    """(workload, executor, n_pes) for each submission: cycle the
    deterministic registry, alternating pool and thread executors."""
    from ..workloads import all_workloads

    deterministic = [w for w in all_workloads() if w.deterministic]
    matrix = []
    for i in range(jobs):
        w = deterministic[i % len(deterministic)]
        executor = "pool" if i % 2 == 0 else "thread"
        matrix.append((w.name, executor, max(w.min_pes, 2)))
    return matrix


def run_smoke(
    *,
    jobs: int = DEFAULT_JOBS,
    socket_path: Optional[str] = None,
    max_concurrency: int = 4,
    job_timeout: float = 120.0,
    seed: int = 42,
) -> list[str]:
    """Run the smoke check; returns a list of failures (empty = pass)."""
    matrix = _smoke_matrix(jobs)
    failures: list[str] = []
    failures_mutex = threading.Lock()
    with BackgroundServer(
        socket_path, max_concurrency=max_concurrency
    ) as bg, ServiceClient(bg.socket_path, timeout=job_timeout) as client:
        client.ping()

        def one(i: int, workload: str, executor: str, n_pes: int) -> None:
            tag = f"{workload}[{executor}/np{n_pes}]"
            try:
                job_id = client.submit(
                    workload=workload,
                    smoke=True,
                    n_pes=n_pes,
                    executor=executor,
                    seed=seed + i,
                    timeout=job_timeout,
                )
                row = client.result(job_id, timeout=job_timeout)
                if row.get("checker") != "pass":
                    raise ServiceError(f"checker: {row.get('checker')}")
            except ServiceError as exc:
                with failures_mutex:
                    failures.append(f"{tag}: {exc}")

        threads = [
            threading.Thread(target=one, args=(i, *cell), name=f"smoke-{i}")
            for i, cell in enumerate(matrix)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=job_timeout + 30.0)
            if t.is_alive():
                with failures_mutex:
                    failures.append(f"{t.name}: did not finish")
        stats = client.stats()
    print(
        f"smoke: {jobs - len(failures)}/{jobs} verified "
        f"(peak concurrency {stats['peak_running']}, "
        f"pool: {stats.get('pool')})"
    )
    # Robustness counters: what the run absorbed on the way to "all
    # verified".  Nonzero retries under an armed fault plan is the CI
    # chaos-smoke signal that recovery (not luck) produced the passes.
    faults = stats.get("faults")
    print(
        f"smoke: retries {stats.get('retries', 0)}, "
        f"shed {stats.get('shed', 0)}, "
        f"faults {faults['fires'] if faults else 'disarmed'}"
    )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``lolserve smoke`` — exit non-zero unless every job verifies."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="lolserve smoke",
        description="start a server, submit concurrent registry "
        "workloads, assert all results verify",
    )
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    parser.add_argument(
        "--concurrency", type=int, default=4, help="scheduler concurrency"
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    failures = run_smoke(
        jobs=args.jobs, max_concurrency=args.concurrency, seed=args.seed
    )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0
