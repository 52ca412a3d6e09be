"""Experiment orchestration over the workload registry.

``repro.bench`` sweeps :mod:`repro.workloads` kernels across
engine x executor x PE-count, verifies every run twice (the workload's
own result checker, plus a cross-engine differential on VISIBLE output),
times best-of-reps wall clock, replays op traces on the NoC machine
models, and writes ``BENCH_workloads.json`` — with a ``--baseline``
mode that fails on >20% slowdowns.

Entry points: the ``lolbench`` console script, ``python -m repro.bench``,
or programmatically::

    from repro.bench import SweepConfig, run_sweep
    payload = run_sweep(SweepConfig(workloads=("ring", "heat2d"), smoke=True))
"""

from .baseline import (
    NOISE_FLOOR_S,
    Comparison,
    compare_to_baseline,
    regressions,
    render_comparison,
)
from .cli import main
from .orchestrator import (
    SweepConfig,
    best_of,
    collect_failures,
    default_machines,
    render_results,
    run_sweep,
)

__all__ = [
    "NOISE_FLOOR_S",
    "Comparison",
    "SweepConfig",
    "best_of",
    "collect_failures",
    "compare_to_baseline",
    "default_machines",
    "main",
    "regressions",
    "render_comparison",
    "render_results",
    "run_sweep",
]
