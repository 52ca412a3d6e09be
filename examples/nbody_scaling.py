#!/usr/bin/env python3
"""The paper's flagship demo: the parallel 2-D n-body application,
strong-scaled over PE counts and projected onto the paper's hardware.

Runs the (race-fixed) Section VI.D listing on 1/2/4 PEs with both the
tree-walking interpreter (traced) and the bytecode VM, measures
wall-clock, then replays the op trace against the Epiphany-III and Cray
XC40 machine models —
the "runs on a $99 board and a $30M supercomputer" claim, in model form.

Usage::

    python examples/nbody_scaling.py [--pes 1 2 4] [--particles 16] [--steps 4]
"""

import argparse
import time

from repro import run_lolcode
from repro.noc import cray_xc40, epiphany_iii, estimate
from repro.workloads import nbody_source as load_nbody


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--pes", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--particles", type=int, default=16)
    parser.add_argument("--steps", type=int, default=4)
    args = parser.parse_args()

    src = load_nbody(args.particles, args.steps)
    print(
        f"2-D n-body: {args.particles} particles/PE, {args.steps} steps "
        f"(paper Section VI.D)\n"
    )
    print(f"{'PEs':>4} {'interp[s]':>10} {'vm[s]':>12} {'speedup':>8}")
    traces = {}
    for n in args.pes:
        t0 = time.perf_counter()
        ri = run_lolcode(src, n, seed=42, engine="ast", trace=True)
        ti = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_lolcode(src, n, seed=42, engine="vm")
        tv = time.perf_counter() - t0
        traces[n] = ri.trace
        print(f"{n:>4} {ti:>10.3f} {tv:>12.3f} {ti / tv:>8.2f}x")

    print("\nModeled execution on the paper's hardware (trace replay):")
    print(f"{'PEs':>4} {'machine':<34} {'makespan':>12} {'comm%':>7}")
    for n in args.pes:
        for machine in (epiphany_iii(), cray_xc40()):
            est = estimate(traces[n], machine)
            print(
                f"{n:>4} {machine.name:<34} {est.makespan_s * 1e3:>10.3f}ms"
                f" {est.comm_fraction() * 100:>6.1f}%"
            )

    print(
        "\nNote: per-PE work is fixed (SPMD weak-ish scaling as in the "
        "paper), so remote traffic grows with PEs while local compute "
        "stays constant — watch comm% rise."
    )


if __name__ == "__main__":
    main()
