"""SPMD launcher for LOLCODE programs — the paper's ``coprsh`` / ``aprun``.

``run_lolcode(source, n_pes)`` is the one-call entry point used by the
``lolrun`` CLI, the examples, and the benchmarks.  Four executors:

* ``"thread"`` (default) — one Python thread per PE; supports every
  feature including the race detector;
* ``"process"`` — one OS process per PE over shared memory; true
  parallelism, numeric symmetric data only (see
  :mod:`repro.shmem.runtime_procs`);
* ``"pool"`` — the process executor's worlds on *warm*, persistent
  worker processes (:mod:`repro.service.pool`): no per-call spawn/exec
  cost, same restrictions as ``"process"``;
* ``"serial"`` — requires ``n_pes == 1``; runs inline (the behaviour of a
  plain LOLCODE interpreter, ``loli``).

``engine="c"`` (the natively compiled path) is special: its PEs are
always real OS processes built and launched by
:mod:`repro.compiler.native`, so it pairs only with
``executor="process"`` (or ``"serial"`` at one PE) and refuses the
interpreter-only knobs — ``max_steps``, op tracing, race detection —
with explicit errors rather than silently falling back to a different
engine.

The process executor needs the symmetric allocation set before workers
start, so :func:`plan_from_program` statically scans the AST for
``WE HAS A`` declarations and constant-folds their sizes (``MAH FRENZ``
folds to ``n_pes``; ``ME`` cannot appear in a size, since per-PE sizes
would break the symmetric-heap requirement — exactly as in OpenSHMEM).
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from functools import partial
from typing import Optional, Sequence

from .. import obs as _obs
from ..lang import ast
from ..lang.errors import LolParallelError
from ..lang.parser import parse_cached
from ..lang.types import parse_type, to_numbr
from ..interp import ENGINES, compile_vm_cached
from ..interp.interpreter import Interpreter
from ..interp.values import binop, unop
from ..shmem.api import DEFAULT_BARRIER_TIMEOUT, ShmemContext
from ..shmem.heap import SymmetricPlan
from ..shmem.runtime_threads import SpmdResult, run_spmd

EXECUTORS = ("thread", "process", "serial", "pool")


def _const_fold(expr: ast.Expr, n_pes: int) -> object:
    """Fold a size expression to its raw value (int, float, or TROOF)."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.FloatLit):
        return expr.value
    if isinstance(expr, ast.FrenzExpr):
        return n_pes
    if isinstance(expr, ast.BinOp):
        lhs = _const_fold(expr.lhs, n_pes)
        rhs = _const_fold(expr.rhs, n_pes)
        return binop(expr.op, lhs, rhs, expr.pos)
    if isinstance(expr, ast.UnaryOp):
        return unop(expr.op, _const_fold(expr.operand, n_pes), expr.pos)
    if isinstance(expr, ast.MeExpr):
        raise LolParallelError(
            "symmetric array sizes cannot depend on ME (all PEs must "
            "allocate identically)",
            expr.pos,
        )
    raise LolParallelError(
        "symmetric array size must be a compile-time constant for the "
        "process executor",
        expr.pos,
    )


def const_eval(expr: ast.Expr, n_pes: int) -> int:
    """Constant-fold an array-size expression for the symmetric plan.

    Sizes must fold to an *integral* value: a NUMBAR (or a NUMBAR-typed
    fold result) like ``2.9`` is rejected instead of being silently
    truncated to 2 elements — an allocation-size mismatch between
    executors would corrupt the symmetric heap, not just the one array.
    """
    value = _const_fold(expr, n_pes)
    if isinstance(value, float) and not value.is_integer():
        raise LolParallelError(
            f"symmetric array size must be an integer, but the size "
            f"expression folds to {value!r}",
            expr.pos,
        )
    return to_numbr(value, expr.pos)


def plan_from_program(program: ast.Program, n_pes: int) -> SymmetricPlan:
    """Collect every ``WE HAS A`` declaration into a symmetric plan."""
    plan = SymmetricPlan()
    for stmt in ast.walk_statements(program.body):
        if isinstance(stmt, ast.VarDecl) and stmt.scope == "WE":
            if stmt.static_type is None:
                raise LolParallelError(
                    f"symmetric variable '{stmt.name}' must be typed",
                    stmt.pos,
                )
            lol_type = parse_type(stmt.static_type, stmt.pos)
            size = const_eval(stmt.size, n_pes) if stmt.is_array else 1
            plan.add(stmt.name, lol_type, stmt.is_array, size, stmt.shared_lock)
    return plan


def _pe_main(
    source: str, filename: str, max_steps, engine: str, ctx: ShmemContext
) -> None:
    """Module-level worker so the process executor can pickle it.

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
    trace_detail: bool = True,
    race_detection: bool = False,
    max_steps: Optional[int] = None,
    barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    engine: str = "vm",
    fallback_engine: Optional[str] = None,
    check: str = "off",
) -> SpmdResult:
    """Parse ``source`` once (for early syntax errors) and run it SPMD.

    ``engine`` selects the execution engine per PE: ``"vm"`` (default —
    compile once per program into register bytecode, shared by all PEs
    and run by a dispatch loop with inline caches; counts ``max_steps``
    natively), ``"ast"`` (the reference tree-walker), or ``"c"`` (the
    paper's full ``lcc`` pipeline: LOLCODE -> C + OpenSHMEM, built by
    the system C compiler against the bundled SHMEM shim, one OS
    process per PE; pairs with ``executor="process"`` only, refuses
    ``max_steps``, ``trace`` and ``race_detection``, rejects constructs
    C cannot express such as ``SRS`` computed identifiers with a
    :class:`~repro.compiler.CompileError`, and raises
    :class:`~repro.compiler.NativeToolchainError` when the host has no
    C compiler).

    ``fallback_engine`` opts into graceful degradation: if the requested
    engine fails for an *environmental* reason — no C toolchain, or a
    native build that keeps failing (:class:`~repro.compiler.NativeToolchainError`,
    :class:`~repro.compiler.NativeBuildError`) — the run is retried once
    on the fallback engine and the result is marked ``degraded`` with a
    ``degraded_reason``.  Program errors (syntax, compile restrictions,
    runtime faults) never trigger the fallback: those would fail the
    same way — or worse, differently — on any engine.

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
    if fallback_engine is not None:
        if fallback_engine not in ENGINES:
            raise LolParallelError(
                f"unknown fallback_engine {fallback_engine!r} "
                f"(choose from {ENGINES})"
            )
        if fallback_engine == engine:
            raise LolParallelError(
                f"fallback_engine must differ from engine (both {engine!r})"
            )
        from ..compiler.native import NativeBuildError, NativeToolchainError

        run = partial(
            run_lolcode,
            source,
            n_pes,
            executor=executor,
            filename=filename,
            seed=seed,
            stdin_lines=stdin_lines,
            trace=trace,
            trace_detail=trace_detail,
            race_detection=race_detection,
            max_steps=max_steps,
            barrier_timeout=barrier_timeout,
            check=check,
        )
        try:
            return run(engine=engine)
        except (NativeToolchainError, NativeBuildError) as exc:
            # The native engine forces executor="process"; the fallback
            # engines run under any executor, so the executor carries over.
            result = run(engine=fallback_engine)
            result.degraded = True
            result.degraded_reason = (
                f"engine {engine!r} unavailable "
                f"({type(exc).__name__}: {str(exc)[:200]}); "
                f"ran fallback engine {fallback_engine!r}"
            )
            return result
    # Surface syntax errors in the caller (cached: benches re-run sources).
    rt = _obs.ACTIVE
    if rt is not None and rt.trace_on:
        with rt.tracer.span("compile", "parse", args={"filename": filename}):
            program = parse_cached(source, filename)
    else:
        program = parse_cached(source, filename)
    if check != "off":
        from ..lang.checker import check_program
        from ..lang.errors import LolStaticError

        diags = check_program(program)
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
            if executor not in ("process", "serial"):
                raise LolParallelError(
                    f"engine='c' runs PEs as native OS processes; use "
                    f"executor='process' (got {executor!r})"
                )
            if executor == "serial" and n_pes != 1:
                raise LolParallelError(
                    f"serial executor runs exactly 1 PE, got {n_pes}"
                )
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
                    "race detection requires the thread executor"
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

        if executor in ("process", "pool"):
            if race_detection:
                raise LolParallelError(
                    "race detection requires the thread executor"
                )
            plan = plan_from_program(program, n_pes)
            if executor == "pool":
                # Warm worker pool (repro.service): same worlds and the
                # same SpmdResult as the cold process executor, but the
                # worker processes persist across calls.  Imported lazily —
                # the service layer is optional for plain launches.
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
            # Imported here so thread launches never load multiprocessing.
            from ..shmem.runtime_procs import run_spmd_procs

            return run_spmd_procs(
                worker,
                n_pes,
                plan,
                seed=seed,
                stdin_lines=stdin_lines,
                trace=trace,
                barrier_timeout=barrier_timeout,
            )

        if executor == "serial" and n_pes != 1:
            raise LolParallelError(
                f"serial executor runs exactly 1 PE, got {n_pes}"
            )
        return run_spmd(
            worker,
            n_pes,
            seed=seed,
            stdin_lines=stdin_lines,
            trace=trace,
            trace_detail=trace_detail,
            race_detection=race_detection,
            barrier_timeout=barrier_timeout,
        )


def run_file(path: str, n_pes: int = 1, **kwargs) -> SpmdResult:
    """``lolrun -np N path.lol`` — read a program from disk and run it."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    kwargs.setdefault("filename", path)
    return run_lolcode(source, n_pes, **kwargs)
