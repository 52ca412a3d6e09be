"""Coverage-guided differential fuzzer for parallel LOLCODE.

The fuzzer closes the gap between the hand-written workload registry and
the space of programs the four engines must agree on: a seeded grammar
generator emits random well-formed SPMD programs (ROADMAP item 5), a
``lollint`` gate discards anything that could legitimately deadlock or
race, and every surviving candidate runs on all requested engines.  Any
divergence — differing output, differing typed-error class, or a hang on
one engine only — is delta-debugged down to a minimized repro and written
to a corpus directory, from which it graduates into the tier-1 suite
(``tests/golden/fuzz/``).

Coverage feedback is deliberately cheap: the VM's per-opcode dispatch
counters (the same ones ``lolprof`` reads) plus static bytecode bigrams
and analysis-CFG edge shapes.  A candidate that lights up new features
enters the mutation pool, steering generation toward unexplored
opcode/comm-pattern space.

Public entry points:

* :func:`repro.fuzz.grammar.generate_program` / ``mutate_program``
* :class:`repro.fuzz.fuzzer.Fuzzer` — the generate → gate → diff loop
* :func:`repro.fuzz.diff.run_differential` — one candidate, all engines
* :func:`repro.fuzz.minimize.minimize_program` — greedy ddmin
* ``lolfuzz`` CLI (:mod:`repro.fuzz.cli`) — ``run`` / ``replay`` /
  ``minimize`` / ``gen`` subcommands.
"""

from .diff import Divergence, Outcome, run_differential
from .fuzzer import Finding, FuzzStats, Fuzzer
from .grammar import GenConfig, generate_program, mutate_program, program_size
from .minimize import minimize_program

__all__ = [
    "Divergence",
    "Finding",
    "FuzzStats",
    "Fuzzer",
    "GenConfig",
    "Outcome",
    "generate_program",
    "minimize_program",
    "mutate_program",
    "program_size",
    "run_differential",
]
