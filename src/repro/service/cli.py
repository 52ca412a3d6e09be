"""The ``lolserve`` command line.

Subcommands::

    lolserve serve  --socket /tmp/lolserve.sock [--concurrency K]
    lolserve submit --socket /tmp/lolserve.sock ring --workload -np 4 --wait
    lolserve submit --socket /tmp/lolserve.sock code.lol -np 4
    lolserve status --socket /tmp/lolserve.sock job-1
    lolserve wait   --socket /tmp/lolserve.sock job-1
    lolserve cancel --socket /tmp/lolserve.sock job-1
    lolserve stats  --socket /tmp/lolserve.sock
    lolserve smoke  --jobs 20

``serve`` runs the unix-socket server in the foreground; everything
else is a thin client call (``smoke`` starts its own throwaway
server).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence

DEFAULT_SOCKET = "/tmp/lolserve.sock"


def _parse_params(entries: Sequence[str]) -> Dict[str, int]:
    params: Dict[str, int] = {}
    for entry in entries:
        try:
            name, value = entry.split("=", 1)
            params[name] = int(value)
        except ValueError:
            raise SystemExit(
                f"lolserve: bad --set {entry!r} (expected param=int)"
            ) from None
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lolserve",
        description="persistent LOLCODE execution service "
        "(warm worker pool behind a unix-socket job queue)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve_p = sub.add_parser("serve", help="run the server in the foreground")
    serve_p.add_argument("--socket", default=DEFAULT_SOCKET)
    serve_p.add_argument(
        "--concurrency", type=int, default=2,
        help="max jobs executing at once (default 2)",
    )
    serve_p.add_argument(
        "--timeout", type=float, default=120.0,
        help="default per-job timeout in seconds (default 120)",
    )
    serve_p.add_argument(
        "--queue-depth", type=int, default=256, dest="queue_depth",
        help="max queued jobs before submissions are shed with a "
        "queue-full error (default 256)",
    )

    submit_p = sub.add_parser("submit", help="submit a job")
    submit_p.add_argument(
        "target", help=".lol file ('-' for stdin), or a workload name "
        "with --workload",
    )
    submit_p.add_argument("--socket", default=DEFAULT_SOCKET)
    submit_p.add_argument(
        "--workload", action="store_true",
        help="treat TARGET as a registry workload name",
    )
    submit_p.add_argument(
        "--set", action="append", default=[], metavar="PARAM=N",
        dest="overrides", help="workload parameter override",
    )
    submit_p.add_argument("--smoke", action="store_true",
                          help="use the workload's smoke sizes")
    submit_p.add_argument("-np", "--n-pes", type=int, default=4, dest="n_pes")
    submit_p.add_argument("--engine", default="vm")
    submit_p.add_argument("--executor", default="pool")
    submit_p.add_argument("--seed", type=int, default=None)
    submit_p.add_argument("--trace", action="store_true")
    submit_p.add_argument("--timeout", type=float, default=None,
                          help="per-job timeout in seconds")
    submit_p.add_argument(
        "--fallback-engine", default=None, dest="fallback_engine",
        help="engine to degrade to if the requested engine is "
        "unavailable (result is marked degraded)",
    )
    submit_p.add_argument(
        "--max-attempts", type=int, default=None, dest="max_attempts",
        help="override the scheduler's retry budget for this job",
    )
    submit_p.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its result",
    )

    for name, doc in (
        ("status", "show a job's state"),
        ("wait", "block until a job finishes; print it"),
        ("cancel", "cancel a queued job"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("job_id")
        p.add_argument("--socket", default=DEFAULT_SOCKET)
        if name == "wait":
            p.add_argument("--timeout", type=float, default=None)

    stats_p = sub.add_parser(
        "stats", help="print server counters (queue, pool, retries, "
        "shed, degraded, per-engine latency, native cache, faults)",
    )
    stats_p.add_argument("--socket", default=DEFAULT_SOCKET)
    stats_p.add_argument(
        "--format", choices=("json", "prom", "text"), default="json",
        help="json (raw stats), prom (Prometheus text exposition from "
        "the server's metric registry), or text (one-screen summary)",
    )
    stats_p.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-poll and re-print every SECONDS until interrupted",
    )

    smoke_p = sub.add_parser(
        "smoke", help="concurrent registry submissions; all must verify"
    )
    smoke_p.add_argument("--jobs", type=int, default=20)
    smoke_p.add_argument("--concurrency", type=int, default=4)
    smoke_p.add_argument("--seed", type=int, default=42)

    return parser


def _forward(args: argparse.Namespace, names: Sequence[str]) -> list[str]:
    """Re-render selected parsed options as argv for a sub-main."""
    argv: list[str] = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            continue
        flag = "--pes" if name == "n_pes" else f"--{name}"
        if isinstance(value, (list, tuple)):
            argv.extend([flag, *map(str, value)])
        else:
            argv.extend([flag, str(value)])
    return argv


def _render_stats_text(stats: dict) -> str:
    """One-screen operator summary of the ``stats`` payload."""
    lines = [
        "queue    depth={queued} running={running} "
        "peak={peak_running} capacity={max_queue_depth}".format(**stats),
        "jobs     total={jobs} retries={retries} shed={shed} "
        "degraded={degraded}".format(**stats),
    ]
    states = stats.get("states") or {}
    if states:
        lines.append(
            "states   "
            + " ".join(f"{k}={v}" for k, v in sorted(states.items()))
        )
    for engine, row in sorted((stats.get("latency") or {}).items()):
        lines.append(
            f"latency  {engine}: n={row['count']} "
            f"p50={row['p50_s'] * 1e3:.1f}ms p99={row['p99_s'] * 1e3:.1f}ms"
        )
    pool = stats.get("pool")
    if pool:
        lines.append(
            "pool     size={size} alive={workers_alive} "
            "jobs={jobs_run} replaced={workers_replaced} "
            "rebuilds={rebuilds}".format(
                **dict({"workers_alive": "?"}, **pool)
            )
        )
    else:
        lines.append("pool     (not started)")
    native = stats.get("native")
    if native:
        lines.append(
            "native   builds={builds} cache_hits={cache_hits} "
            "corrupt_rebuilds={corrupt_rebuilds} "
            "transient_retries={transient_retries}".format(**native)
        )
    return "\n".join(lines)


def _stats_command(client, args: argparse.Namespace) -> int:
    import time as _time

    def _render() -> str:
        if args.format == "prom":
            return client.metrics().rstrip("\n")
        stats = client.stats()
        if args.format == "text":
            return _render_stats_text(stats)
        return json.dumps(stats, indent=2)

    if args.watch is None:
        print(_render())
        return 0
    try:
        while True:
            print(f"--- {_time.strftime('%H:%M:%S')} ---")
            print(_render(), flush=True)
            _time.sleep(max(args.watch, 0.05))
    except KeyboardInterrupt:
        return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "serve":
        from .server import serve

        print(f"lolserve: listening on {args.socket}", file=sys.stderr)
        serve(
            args.socket,
            max_concurrency=args.concurrency,
            default_timeout=args.timeout,
            max_queue_depth=args.queue_depth,
        )
        return 0

    if args.command == "smoke":
        from .smoke import main as smoke_main

        return smoke_main(_forward(args, ("jobs", "concurrency", "seed")))

    from .client import ServiceClient
    from .scheduler import ServiceError

    client = ServiceClient(args.socket)
    try:
        if args.command == "submit":
            if args.workload:
                job_id = client.submit(
                    workload=args.target,
                    params=_parse_params(args.overrides),
                    smoke=args.smoke,
                    n_pes=args.n_pes,
                    engine=args.engine,
                    executor=args.executor,
                    seed=args.seed,
                    trace=args.trace,
                    timeout=args.timeout,
                    fallback_engine=args.fallback_engine,
                    max_attempts=args.max_attempts,
                )
            else:
                if args.target == "-":
                    source = sys.stdin.read()
                else:
                    with open(args.target, "r", encoding="utf-8") as fh:
                        source = fh.read()
                job_id = client.submit(
                    source,
                    n_pes=args.n_pes,
                    engine=args.engine,
                    executor=args.executor,
                    seed=args.seed,
                    trace=args.trace,
                    timeout=args.timeout,
                    filename=args.target,
                    fallback_engine=args.fallback_engine,
                    max_attempts=args.max_attempts,
                )
            if args.wait:
                print(json.dumps(client.wait(job_id), indent=2))
            else:
                print(job_id)
            return 0
        if args.command == "status":
            print(json.dumps(client.status(args.job_id), indent=2))
            return 0
        if args.command == "wait":
            print(json.dumps(client.wait(args.job_id, args.timeout), indent=2))
            return 0
        if args.command == "cancel":
            cancelled = client.cancel(args.job_id)
            print("cancelled" if cancelled else "not cancellable (running or done)")
            return 0
        if args.command == "stats":
            return _stats_command(client, args)
    except ServiceError as exc:
        print(f"lolserve: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"lolserve: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
