"""SPMD interpreters for extended LOLCODE.

Two execution engines share the operator semantics of
:mod:`repro.interp.values` and are differentially tested against each
other:

* ``"vm"`` — the default: the register-bytecode VM (:mod:`repro.vm`).
  The AST is compiled once to flat bytecode with superinstructions and
  run by a dispatch loop with inline caches; statement steps for
  ``max_steps`` are counted natively in that loop;
* ``"ast"`` — the reference tree-walker
  (:mod:`repro.interp.interpreter`).

(The third registered engine is not an interpreter: ``"c"`` is the
paper's full ``lcc`` pipeline — LOLCODE -> C + OpenSHMEM, built by the
system C compiler against the bundled single-node SHMEM shim and run as
real OS processes by :mod:`repro.compiler.native`.  A host with no C
compiler raises :class:`~repro.compiler.NativeToolchainError`; the
caller picks an interpreter engine itself.)

:func:`compile_vm_cached` is the process-wide LRU compiled-program
cache, keyed by source text and compile flags: an SPMD launch compiles
once and every PE shares the same :class:`~repro.vm.isa.VMProgram` (the
compiled form is context-free; each PE runs it against its own
:class:`~repro.shmem.api.ShmemContext`).
"""

from functools import lru_cache

from ..singleflight import single_flight
from .env import Binding, Env, UNDECLARED
from .interpreter import KNOWN_LIBRARIES, Interpreter, interpret, run_serial
from .values import (
    BINOP_FUNCS,
    FLOP_COST,
    NARYOP_FUNCS,
    UNOP_FUNCS,
    binop,
    equals,
    naryop,
    unop,
)

#: Execution engines accepted by ``run_lolcode`` / the CLIs.  The first
#: two are the interpreters above; ``"c"`` is the native path
#: (:mod:`repro.compiler.native`): the C backend's output built with the
#: system compiler and launched as ``n_pes`` OS processes over the
#: bundled SHMEM shim.
ENGINES = ("vm", "ast", "c")


@single_flight
@lru_cache(maxsize=64)
def compile_vm_cached(
    source: str,
    filename: str = "<string>",
    count_flops: bool = False,
    count_steps: bool = False,
):
    """Parse + bytecode-compile ``source`` for the VM engine, memoized.

    ``count_flops`` and ``count_steps`` are part of the key because both
    FLOP accounting and statement-step counting are compiled into the
    bytecode (and either one disables loop vectorization, which would
    otherwise batch many statements per dispatch and skip the per-op
    FLOP counters).

    Safe under concurrent callers: the :func:`~repro.singleflight.single_flight`
    guard serialises same-key compiles, so N simultaneous submissions of
    one source (the execution service's steady state) compile it once.
    """
    from ..analysis.summary import summarize_cached
    from ..vm.compile import compile_program_vm

    return compile_program_vm(
        summarize_cached(source, filename),
        count_flops=count_flops,
        count_steps=count_steps,
    )


def _compile_cache_collector() -> None:
    """Publish ``cache_info()`` of every compile front-end as gauges
    (collector-derived point-in-time reads, hence gauges not counters),
    so the Prometheus ``metrics`` op shows cache efficiency without a
    second hand-assembled stats path."""
    from .. import obs as _obs
    from ..lang.parser import parse_cached

    reg = _obs.get_registry()
    hits = reg.gauge(
        "lol_compile_cache_hits", "LRU hits per compile front-end"
    )
    misses = reg.gauge(
        "lol_compile_cache_misses", "LRU misses per compile front-end"
    )
    size = reg.gauge(
        "lol_compile_cache_entries", "Live LRU entries per compile front-end"
    )
    caches = {
        "parse": parse_cached,
        "vm": compile_vm_cached,
    }
    for name, fn in caches.items():
        info = fn.cache_info()
        hits.set(info.hits, cache=name)
        misses.set(info.misses, cache=name)
        size.set(info.currsize, cache=name)


def _register_obs_collector() -> None:
    from .. import obs as _obs

    _obs.get_registry().register_collector(_compile_cache_collector)


_register_obs_collector()


__all__ = [
    "Binding",
    "Env",
    "UNDECLARED",
    "KNOWN_LIBRARIES",
    "Interpreter",
    "interpret",
    "run_serial",
    "compile_vm_cached",
    "ENGINES",
    "FLOP_COST",
    "BINOP_FUNCS",
    "UNOP_FUNCS",
    "NARYOP_FUNCS",
    "binop",
    "equals",
    "naryop",
    "unop",
]
