"""Source-to-source compilers: the reproduction of the paper's ``lcc``.

* :func:`compile_c` — LOLCODE -> C + OpenSHMEM (the paper's target;
  ``n_pes=`` folds ``MAH FRENZ`` array extents for a fixed width);
* :func:`build_native` / :func:`run_native_source` — build that C with
  the system compiler against the bundled single-node SHMEM shim and
  run it as real OS processes (``run_lolcode(..., engine="c")``);
* :class:`CompileError` — diagnostics for constructs C cannot express;
* :class:`NativeToolchainError` — this host cannot build native
  binaries (no C compiler); distinct from program restrictions so
  benches and tests can skip rather than fail;
* :class:`NativeBuildError` — the C compiler *rejected* generated
  code: a codegen/program failure that must stay loud (never a skip).
"""

from .c_backend import CBackend, compile_c
from .native import (
    NativeBuildError,
    NativeBuildTransientError,
    NativeToolchainError,
    build_native,
    find_cc,
    native_stats,
    run_native,
    run_native_source,
    shutdown_native_workers,
)
from .symtab import CompileError, SymbolTable, analyze

__all__ = [
    "CBackend",
    "compile_c",
    "NativeBuildError",
    "NativeBuildTransientError",
    "NativeToolchainError",
    "build_native",
    "find_cc",
    "native_stats",
    "run_native",
    "run_native_source",
    "shutdown_native_workers",
    "CompileError",
    "SymbolTable",
    "analyze",
]
