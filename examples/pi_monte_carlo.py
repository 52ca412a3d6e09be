#!/usr/bin/env python3
"""Classic classroom workload on the parallel LOLCODE stack: Monte-Carlo
estimation of pi, with the partial sums combined through the PGAS model.

Every PE throws darts with its own WHATEVAR stream, writes its hit count
into a symmetric array slot on PE 0 (one-sided put — no receive code,
the PGAS teaching point), and PE 0 reduces after a HUGZ.

The kernel comes from the workload registry (the ``pi_montecarlo``
workload in :mod:`repro.workloads`), so this example and the bench
orchestrator always run the same source.

Also demonstrates the pool executor: with ``--executor pool`` the same
program runs on warm worker processes over shared memory.

Usage::

    python examples/pi_monte_carlo.py [--pes 8] [--darts 20000]
    python examples/pi_monte_carlo.py --executor pool
"""

import argparse

from repro import run_lolcode
from repro.workloads import get_workload


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--pes", type=int, default=8)
    parser.add_argument("--darts", type=int, default=20_000)
    parser.add_argument(
        "--executor", choices=("thread", "pool"), default="thread"
    )
    parser.add_argument("--seed", type=int, default=2017)
    args = parser.parse_args()

    pi = get_workload("pi_montecarlo")
    params = pi.bind_params({"darts": args.darts})
    result = run_lolcode(
        pi.source(params), args.pes, executor=args.executor, seed=args.seed
    )
    print(result.output, end="")

    problems = pi.check(result, args.pes, params)
    if problems:
        raise SystemExit(f"registry checker failed: {problems}")
    print(
        f"({args.pes} PEs x {args.darts} darts on the "
        f"{args.executor} executor)"
    )


if __name__ == "__main__":
    main()
