"""SPMD program launcher (the paper's ``coprsh``/``aprun`` analogue).

Re-exports the launcher-facing configuration spaces — ``EXECUTORS``
(thread/pool) and ``ENGINES`` (vm/ast/c) — so
callers that build sweeps over them (``repro.bench``, the CLIs) have one
import site.
"""

from ..analysis.summary import const_eval
from ..interp import ENGINES
from .spmd import EXECUTORS, plan_from_program, run_file, run_lolcode

__all__ = [
    "ENGINES",
    "EXECUTORS",
    "const_eval",
    "plan_from_program",
    "run_file",
    "run_lolcode",
]
