"""SPMD launcher for LOLCODE programs — the paper's ``coprsh`` / ``aprun``.

``run_lolcode(source, n_pes)`` is the one-call entry point used by the
``lolrun`` CLI, the examples, and the benchmarks.  Two executors:

* ``"thread"`` (default) — one Python thread per PE (a single PE runs
  inline, the behaviour of a plain LOLCODE interpreter, ``loli``);
  supports every feature including the race detector;
* ``"pool"`` — one *warm*, persistent worker process per PE over a
  shared-memory world (:mod:`repro.service.pool`,
  :mod:`repro.shmem.runtime_procs`): true parallelism, numeric
  symmetric data only, no race detector.

``engine="c"`` (the natively compiled path) names its own vehicle: its
PEs are always native OS processes built and launched by
:mod:`repro.compiler.native`, whichever executor the caller named.  It
refuses the interpreter-only knobs — ``max_steps``, op tracing, race
detection — with explicit errors rather than silently falling back to a
different engine.

Both executors build their world's symmetric heap before any PE starts,
from the program summary's ``WE HAS A`` declarations laid out by
:func:`~repro.analysis.summary.symmetric_plan_cached` (``MAH FRENZ``
folds to ``n_pes``; ``ME`` cannot appear in a size, since per-PE sizes
would break the symmetric-heap requirement — exactly as in OpenSHMEM).
A warm launch of the same source and width plans nothing.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from functools import partial
from typing import Optional, Sequence

from .. import obs as _obs
from ..analysis.summary import (
    summarize,
    summarize_cached,
    symmetric_plan,
    symmetric_plan_cached,
)
from ..lang import ast
from ..lang.errors import LolParallelError
from ..lang.parser import parse_cached
from ..interp import ENGINES, compile_vm_cached
from ..interp.interpreter import Interpreter
from ..shmem.api import DEFAULT_BARRIER_TIMEOUT, ShmemContext
from ..shmem.heap import SymmetricPlan
from ..shmem.runtime_threads import SpmdResult, run_spmd

EXECUTORS = ("thread", "pool")


def plan_from_program(program: ast.Program, n_pes: int) -> SymmetricPlan:
    """The symmetric plan of a parsed program (see
    :func:`~repro.analysis.summary.symmetric_plan`)."""
    return symmetric_plan(summarize(program), n_pes)


def _pe_main(
    source: str, filename: str, max_steps, engine: str, ctx: ShmemContext
) -> None:
    """Module-level worker so the pool executor can pickle it.

    When the observability plane is armed for tracing, the engine body
    runs inside a per-PE ``run`` span (one per PE, the parents of that
    PE's comm spans); disarmed, the wrapper is one ``None`` check.

    Engine dispatch happens here (rather than in ``run_lolcode``) so
    compiled programs never cross a process boundary: thread PEs share
    one compiled program through the
    :func:`~repro.interp.compile_vm_cached` LRU, while each worker
    process hits its own per-process cache.  ``max_steps`` is honoured
    natively by the ``vm`` and ``ast`` engines; the launcher rejects it
    for ``c`` before dispatch.
    """
    rt = _obs.ACTIVE
    if rt is not None and rt.trace_on:
        with rt.tracer.span(
            "run",
            f"pe{ctx.my_pe}",
            tid=f"PE-{ctx.my_pe}",
            args={"engine": engine, "pe": ctx.my_pe},
        ):
            _pe_body(source, filename, max_steps, engine, ctx)
        return
    _pe_body(source, filename, max_steps, engine, ctx)


def _compile_span(fn, engine: str, ctx: ShmemContext, *args):
    """Call a cached compile front-end inside a ``compile`` span when
    tracing is armed (a cache hit shows up as a ~0-duration span)."""
    rt = _obs.ACTIVE
    if rt is None or not rt.trace_on:
        return fn(*args)
    with rt.tracer.span("compile", engine, tid=f"PE-{ctx.my_pe}"):
        return fn(*args)


def _pe_body(
    source: str, filename: str, max_steps, engine: str, ctx: ShmemContext
) -> None:
    """Engine dispatch for one PE (see :func:`_pe_main`)."""
    if engine == "vm":
        # The VM counts statement steps in its own dispatch loop, so a
        # max_steps limit never changes which engine runs.  count_flops
        # keys off whether tracing is on.
        _compile_span(
            compile_vm_cached,
            engine,
            ctx,
            source,
            filename,
            ctx.trace is not None,
            max_steps is not None,
        ).run(ctx, max_steps=max_steps)
        return
    program = parse_cached(source, filename)
    Interpreter(program, ctx, max_steps=max_steps).run()


def run_lolcode(
    source: str,
    n_pes: int = 1,
    *,
    executor: str = "thread",
    filename: str = "<string>",
    seed: Optional[int] = None,
    stdin_lines: Optional[Sequence[Sequence[str]]] = None,
    trace: bool = False,
    race_detection: bool = False,
    max_steps: Optional[int] = None,
    barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    engine: str = "vm",
    check: str = "off",
) -> SpmdResult:
    """Parse ``source`` once (for early syntax errors) and run it SPMD.

    ``engine`` selects the execution engine per PE: ``"vm"`` (default —
    compile once per program into register bytecode, shared by all PEs
    and run by a dispatch loop with inline caches; counts ``max_steps``
    natively), ``"ast"`` (the reference tree-walker), or ``"c"`` (the
    paper's full ``lcc`` pipeline: LOLCODE -> C + OpenSHMEM, built by
    the system C compiler against the bundled SHMEM shim, one OS
    process per PE whichever executor is named; refuses
    ``max_steps``, ``trace`` and ``race_detection``, rejects constructs
    C cannot express such as ``SRS`` computed identifiers with a
    :class:`~repro.compiler.CompileError`, and raises
    :class:`~repro.compiler.NativeToolchainError` when the host has no
    C compiler).

    ``check`` gates the static analyses (:mod:`repro.analysis`) before
    launch: ``"off"`` (default) skips them, ``"warn"`` prints every
    diagnostic to stderr and runs anyway, ``"error"`` additionally
    refuses to launch (raises
    :class:`~repro.lang.errors.LolStaticError`) when any ``E``-code is
    reported.
    """
    if executor not in EXECUTORS:
        raise LolParallelError(
            f"unknown executor {executor!r} (choose from {EXECUTORS})"
        )
    if engine not in ENGINES:
        raise LolParallelError(
            f"unknown engine {engine!r} (choose from {ENGINES})"
        )
    if check not in ("off", "warn", "error"):
        raise LolParallelError(
            f"unknown check mode {check!r} "
            f"(choose from ('off', 'warn', 'error'))"
        )
    # Surface syntax errors in the caller (cached: benches re-run sources).
    rt = _obs.ACTIVE
    if rt is not None and rt.trace_on:
        with rt.tracer.span("compile", "parse", args={"filename": filename}):
            parse_cached(source, filename)
    else:
        parse_cached(source, filename)
    if check != "off":
        from ..lang.checker import check_program
        from ..lang.errors import LolStaticError

        diags = check_program(summarize_cached(source, filename))
        for diag in diags:
            print(diag.render(), file=sys.stderr)
        errors = [d for d in diags if d.is_error]
        if check == "error" and errors:
            first = errors[0]
            raise LolStaticError(
                f"{first.code}: {first.message} "
                f"({len(errors)} static error(s); fix them or run with "
                f"check='warn')",
                first.pos,
                diagnostics=tuple(diags),
            )
    # One ``launch`` root span per run when tracing is armed: every
    # per-PE run span and the scheduler/pool spans nest under it.
    _launch_span = (
        rt.tracer.span(
            "launch",
            f"{executor}/{engine}",
            args={"n_pes": n_pes, "filename": filename},
        )
        if rt is not None and rt.trace_on
        else nullcontext()
    )
    with _launch_span:
        if engine == "c":
            # The native engine has exactly one execution vehicle: OS
            # processes running the binary the system C compiler produced.
            # Every knob it cannot honour is refused loudly — a silent
            # fallback to an interpreter would misreport what ran.
            if max_steps is not None:
                raise LolParallelError(
                    "engine='c' does not support max_steps; use engine='vm' "
                    "or 'ast' (both count statement steps)"
                )
            if trace:
                raise LolParallelError(
                    "engine='c' does not support op tracing (native binaries "
                    "are not instrumented); use engine='vm' for traced runs"
                )
            if race_detection:
                raise LolParallelError(
                    "engine='c' does not support race detection (its PEs "
                    "are native OS processes); use engine='vm' or 'ast' on "
                    "the thread executor"
                )
            # Compile restrictions (CompileError) and a missing C toolchain
            # (NativeToolchainError) both surface here, in the caller.
            from ..compiler.native import run_native_source

            return run_native_source(
                source,
                n_pes,
                filename=filename,
                seed=seed,
                stdin_lines=stdin_lines,
                barrier_timeout=barrier_timeout,
            )
        worker = partial(_pe_main, source, filename, max_steps, engine)

        if executor == "pool" and race_detection:
            raise LolParallelError("race detection requires the thread executor")
        plan = symmetric_plan_cached(source, filename, n_pes)
        if executor == "pool":
            # Imported here so thread launches never load multiprocessing.
            from ..service.pool import run_pooled

            return run_pooled(
                worker,
                n_pes,
                plan,
                seed=seed,
                stdin_lines=stdin_lines,
                trace=trace,
                barrier_timeout=barrier_timeout,
            )
        return run_spmd(
            worker,
            n_pes,
            plan=plan,
            seed=seed,
            stdin_lines=stdin_lines,
            trace=trace,
            race_detection=race_detection,
            barrier_timeout=barrier_timeout,
        )


def run_file(path: str, n_pes: int = 1, **kwargs) -> SpmdResult:
    """``lolrun -np N path.lol`` — read a program from disk and run it."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    kwargs.setdefault("filename", path)
    return run_lolcode(source, n_pes, **kwargs)
