"""[E-D] Section VI.D — the parallel 2-D n-body application.

The paper's flagship demonstration, reproduced end to end:

* strong/weak-scaling rows over PE counts (closure and VM engines,
  identical outputs — differentially checked);
* trace replay onto the Epiphany-III and Cray XC40 models — the "$99
  board to $30M supercomputer" portability claim in model form;
* pytest-benchmark timings for the representative configuration.

Bench configs are scaled down from the paper's 32 particles x 10 steps
so the harness stays fast; the full paper configuration is exercised by
the slow-marked test in tests/test_paper_examples.py.
"""

import pytest

from repro import run_lolcode
from repro.noc import cray_xc40, epiphany_iii, estimate

from .conftest import nbody_source, print_table

PARTICLES = 8
STEPS = 2
SRC = nbody_source(PARTICLES, STEPS)


def test_nbody_closure_vs_vm_identical():
    for n_pes in (1, 2, 4):
        rc = run_lolcode(SRC, n_pes, seed=42)
        rv = run_lolcode(SRC, n_pes, seed=42, engine="vm")
        assert rc.outputs == rv.outputs, f"divergence at {n_pes} PEs"


def test_nbody_output_shape():
    r = run_lolcode(SRC, 2, seed=42)
    for pe in range(2):
        lines = r.outputs[pe].splitlines()
        assert lines[0] == f"HAI ITZ {pe} I HAS PARTICLZ 2 MUV"
        assert len(lines) == 2 + PARTICLES


def test_nbody_modeled_hardware_table():
    """The paper's implicit result: the same program runs on both
    machines; remote traffic per PE grows with PE count (more remote
    blocks), while the Cray pays ~usec latencies per fine-grained get."""
    rows = []
    estimates = {}
    for n_pes in (1, 2, 4):
        r = run_lolcode(SRC, n_pes, seed=42, trace=True)
        for machine in (epiphany_iii(), cray_xc40()):
            est = estimate(r.trace, machine)
            estimates[(n_pes, machine.name)] = est
            rows.append(
                [
                    n_pes,
                    machine.name,
                    f"{est.makespan_s * 1e3:.3f} ms",
                    f"{est.comm_fraction() * 100:.1f}%",
                ]
            )
    print_table(
        "Section VI.D n-body, modeled on the paper's hardware "
        f"({PARTICLES} particles/PE, {STEPS} steps)",
        ["PEs", "machine", "modeled makespan", "comm fraction"],
        rows,
    )
    # Shape checks: communication share grows with PEs on both machines;
    # 1-PE runs have (almost) no comm cost.
    for machine in ("Epiphany-III (Parallella, $99)", "Cray XC40 (101,312 cores, $30M)"):
        frac1 = estimates[(1, machine)].comm_fraction()
        frac4 = estimates[(4, machine)].comm_fraction()
        assert frac4 > frac1
    # Fine-grained element gets are exactly where the Cray's us-scale
    # latency hurts relative to the on-chip Epiphany NoC.
    assert (
        estimates[(4, "Cray XC40 (101,312 cores, $30M)")].comm_s
        > estimates[(4, "Epiphany-III (Parallella, $99)")].comm_s
    )


def test_nbody_compute_scales_with_particles():
    flops = []
    for particles in (4, 8):
        r = run_lolcode(nbody_source(particles, 1), 1, seed=1, trace=True)
        flops.append(r.trace.total_flops())
    # all-pairs: ~quadratic growth in local work
    assert flops[1] > 3 * flops[0]


@pytest.mark.benchmark(group="nbody")
def test_nbody_treewalker_wallclock(benchmark):
    benchmark(lambda: run_lolcode(SRC, 2, seed=42, engine="ast"))


@pytest.mark.benchmark(group="nbody")
def test_nbody_closure_engine_wallclock(benchmark):
    """The closure engine (the default) must bury the tree-walker on the
    same kernel at the same PE count; the ratio is tracked run-over-run
    in BENCH_interp.json (see benchmarks/run_all.py)."""
    benchmark(lambda: run_lolcode(SRC, 2, seed=42, engine="closure"))


@pytest.mark.benchmark(group="nbody")
def test_nbody_vm_wallclock(benchmark):
    """The bytecode VM (the fastest pure-Python engine) on the same
    kernel at the same PE count."""
    benchmark(lambda: run_lolcode(SRC, 2, seed=42, engine="vm"))
