"""repro — a reproduction of "I Can Has Supercomputer?" (Richie & Ross, 2017).

Parallel and distributed extensions to LOLCODE in a SPMD/PGAS model:

* :mod:`repro.lang` — lexer, parser, AST, type system;
* :mod:`repro.vm` — the register-bytecode VM, the default engine;
* :mod:`repro.interp` — the reference SPMD-aware tree-walking interpreter;
* :mod:`repro.compiler` — the source-to-source compiler (LOLCODE -> C with
  OpenSHMEM, like the paper's ``lcc``) and the native engine built on it;
* :mod:`repro.shmem` — OpenSHMEM-like runtime substrate (symmetric heap,
  barriers, locks, collectives; thread executor and process worlds);
* :mod:`repro.noc` — Epiphany-III / Cray XC40 machine models for trace-
  driven performance estimation;
* :mod:`repro.launcher` — the ``lolrun`` SPMD launcher.

Quickstart::

    from repro import run_lolcode
    result = run_lolcode('''HAI 1.2
    VISIBLE "HAI ITZ " ME " OF " MAH FRENZ
    KTHXBYE''', n_pes=4)
    print(result.output)
"""

from .lang import LolError, LolType, parse, tokenize
from .interp import Interpreter, interpret, run_serial
from .launcher import run_file, run_lolcode
from .shmem import ShmemContext, SpmdResult, World, run_spmd

__version__ = "1.0.0"

__all__ = [
    "LolError",
    "LolType",
    "parse",
    "tokenize",
    "Interpreter",
    "interpret",
    "run_serial",
    "run_file",
    "run_lolcode",
    "ShmemContext",
    "SpmdResult",
    "World",
    "run_spmd",
    "__version__",
]

