"""Command-line tools.

* ``lcc`` — the paper's source-to-source compiler: LOLCODE in, C with
  OpenSHMEM out (exactly Section VI.E: ``lcc code.lol -o executable.c``;
  ``-np N`` folds a launch width), or ``--build`` a standalone executable
  against the bundled single-node SHMEM shim (what
  ``run_lolcode(engine="c")`` uses under the hood).
* ``loli`` — serial reference interpreter (the role of ``lci``).
* ``loldis`` — disassembler for the register-bytecode VM engine: print
  the bytecode a program compiles to (``--engine vm``'s executable form).
* ``lolrun`` — SPMD launcher, the ``coprsh`` / ``aprun`` analogue:
  ``lolrun -np 16 code.lol`` (``--engine c`` runs the natively
  compiled binary, one OS process per PE).
* ``lolbench`` — workload sweep orchestrator over the
  :mod:`repro.workloads` registry (also ``python -m repro.bench``).
* ``lolserve`` — persistent execution service: warm worker pool behind a
  JSON-over-unix-socket job queue (:mod:`repro.service`).
* ``loltrace`` — run a program or workload with tracing armed and write
  Chrome trace-event JSON (opens in Perfetto; :mod:`repro.obs`).
* ``lolprof`` — per-opcode VM profiler: self-time and dispatch counts
  for the register-bytecode engine.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .lang.errors import LolError


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _fail(exc: LolError) -> int:
    print(exc.render(), file=sys.stderr)
    return 1


def _check_gate(text: str, filename: str) -> int:
    """Run the static checker before a compile; 2 blocks the build."""
    from .lang.checker import check_source

    diags = check_source(text, filename=filename)
    for diag in diags:
        print(diag.render(), file=sys.stderr)
    return 2 if any(d.is_error for d in diags) else 0


def lcc_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lcc",
        description="LOLCODE source-to-source compiler "
        "(I Can Has Supercomputer? reproduction): print the C + OpenSHMEM "
        "a program compiles to, or --build a standalone executable "
        "against the bundled single-node SHMEM shim",
        epilog="a built binary runs serially as-is; for an n-PE world "
        "launch one process per PE with LOL_SHMEM_PE/LOL_SHMEM_NPES/"
        "LOL_SHMEM_FILE set (or just use `lolrun --engine c`)",
    )
    parser.add_argument("source", help="input .lol file ('-' for stdin)")
    parser.add_argument(
        "-o",
        "--output",
        default="-",
        help="output path (default: C to stdout; with --build, print the "
        "cached binary's path instead of copying it)",
    )
    parser.add_argument(
        "--build",
        action="store_true",
        help="compile the generated C with the system C compiler instead "
        "of dumping it",
    )
    parser.add_argument(
        "-np",
        "--n-pes",
        type=int,
        default=None,
        dest="n_pes",
        help="launch width folded into MAH FRENZ symmetric array extents "
        "(default: the C reads the width at run time, and --build folds "
        "1; the output is specific to this width when the program sizes "
        "arrays with MAH FRENZ)",
    )
    parser.add_argument(
        "--cc",
        default=None,
        help="C compiler for --build (default: $LOL_CC, cc, gcc, clang)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the static analyses first; E-codes block the compile "
        "(exit 2), warnings go to stderr",
    )
    args = parser.parse_args(argv)
    try:
        text = _read(args.source)
        if args.check:
            rc = _check_gate(text, args.source)
            if rc:
                return rc
        if args.build:
            import shutil

            from .compiler.native import build_native

            binary = build_native(
                text, filename=args.source, n_pes=args.n_pes or 1, cc=args.cc
            )
            if args.output == "-":
                print(binary)
            else:
                shutil.copy2(binary, args.output)
                print(f"built {args.output}")
            return 0
        from .compiler import compile_c

        out = compile_c(text, filename=args.source, n_pes=args.n_pes)
    except LolError as exc:
        return _fail(exc)
    if args.output == "-":
        sys.stdout.write(out)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    return 0


def loli_main(argv: Optional[Sequence[str]] = None) -> int:
    from .interp import ENGINES

    parser = argparse.ArgumentParser(
        prog="loli", description="serial LOLCODE interpreter"
    )
    parser.add_argument("source", help="input .lol file ('-' for stdin)")
    parser.add_argument(
        "--max-steps", type=int, default=None, help="statement step limit"
    )
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="vm",
        help="execution engine (vm = register-bytecode VM, default; "
        "ast = reference tree-walker; c = natively compiled single-PE "
        "binary; vm and ast count --max-steps natively)",
    )
    args = parser.parse_args(argv)
    try:
        from .launcher import run_lolcode

        result = run_lolcode(
            _read(args.source),
            1,
            filename=args.source,
            seed=args.seed,
            max_steps=args.max_steps,
            engine=args.engine,
        )
    except LolError as exc:
        return _fail(exc)
    sys.stdout.write(result.output)
    return 0


def loldis_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="loldis",
        description="disassemble a LOLCODE program to the register "
        "bytecode the VM engine executes",
    )
    parser.add_argument("source", help="input .lol file ('-' for stdin)")
    parser.add_argument(
        "--count-flops",
        action="store_true",
        help="compile with FLOP accounting (what a traced run executes)",
    )
    parser.add_argument(
        "--count-steps",
        action="store_true",
        help="compile with statement-step counting (what a --max-steps "
        "run executes; disables loop vectorization)",
    )
    args = parser.parse_args(argv)
    try:
        from .vm import disassemble_source

        out = disassemble_source(
            _read(args.source),
            filename=args.source,
            count_flops=args.count_flops,
            count_steps=args.count_steps,
        )
    except LolError as exc:
        return _fail(exc)
    print(out)
    return 0


def lolrun_main(argv: Optional[Sequence[str]] = None) -> int:
    from .launcher import ENGINES, EXECUTORS

    parser = argparse.ArgumentParser(
        prog="lolrun",
        description="SPMD launcher for parallel LOLCODE "
        "(the coprsh/aprun analogue)",
    )
    parser.add_argument("source", help="input .lol file ('-' for stdin)")
    parser.add_argument(
        "-np",
        "--n-pes",
        type=int,
        default=4,
        dest="n_pes",
        help="number of processing elements (default 4)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="thread",
        help="PE executor (default thread; pool = one warm worker process "
        "per PE, true parallelism, numeric symmetric data only; "
        "--engine c always runs native OS processes)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="vm",
        help="execution engine (vm = register-bytecode VM, default; "
        "ast = reference tree-walker; c = natively compiled binary "
        "over the bundled SHMEM shim, one OS process per PE)",
    )
    parser.add_argument(
        "--race-check",
        action="store_true",
        help="enable the barrier-epoch race detector (thread executor)",
    )
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print an op-trace summary (puts/gets/barriers/bytes)",
    )
    parser.add_argument(
        "--check",
        choices=("off", "warn", "error"),
        default="off",
        help="static analysis before launch: warn prints diagnostics to "
        "stderr, error refuses to launch on any E-code (default off)",
    )
    args = parser.parse_args(argv)
    try:
        source = _read(args.source)
        from .launcher import run_lolcode

        result = run_lolcode(
            source,
            args.n_pes,
            executor=args.executor,
            filename=args.source,
            seed=args.seed,
            trace=args.trace,
            race_detection=args.race_check,
            engine=args.engine,
            check=args.check,
        )
    except LolError as exc:
        return _fail(exc)
    sys.stdout.write(result.output)
    if args.trace and result.trace is not None:
        print(f"[trace] {result.trace.summary()}", file=sys.stderr)
    for report in result.races:
        print(f"[race] {report.describe()}", file=sys.stderr)
    return 2 if result.races else 0


def lolbench_main(argv: Optional[Sequence[str]] = None) -> int:
    """Workload sweep orchestrator (thin alias for ``repro.bench.main``)."""
    from .bench import main

    return main(argv)


def lolserve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Execution service CLI (thin alias for ``repro.service.cli.main``)."""
    from .service.cli import main

    return main(argv)


def loltrace_main(argv: Optional[Sequence[str]] = None) -> int:
    """Traced run -> Chrome trace JSON (alias for ``repro.obs.cli``)."""
    from .obs.cli import loltrace_main as main

    return main(argv)


def lolprof_main(argv: Optional[Sequence[str]] = None) -> int:
    """Per-opcode VM profiler (alias for ``repro.obs.cli``)."""
    from .obs.cli import lolprof_main as main

    return main(argv)


def lolfuzz_main(argv: Optional[Sequence[str]] = None) -> int:
    """Coverage-guided differential fuzzer (alias for ``repro.fuzz.cli``)."""
    from .fuzz.cli import lolfuzz_main as main

    return main(argv)


def lollint_main(argv: Optional[Sequence[str]] = None) -> int:
    """Static checker CLI over :mod:`repro.analysis`.

    Exit codes: ``0`` clean (or warnings without ``--strict``), ``1``
    warnings under ``--strict``, ``2`` any error (including parse
    errors, which are reported as ``E000``).
    """
    parser = argparse.ArgumentParser(
        prog="lollint",
        description="path-sensitive static checker for parallel LOLCODE "
        "(E-codes are errors, W-codes warnings; see docs/analysis.md "
        "for the catalog)",
    )
    parser.add_argument("sources", nargs="+", help=".lol files ('-' stdin)")
    parser.add_argument(
        "--errors-only", action="store_true", help="suppress W-codes"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any warning is reported (errors still exit 2)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="fmt",
        help="output format (default text; json/sarif collect every "
        "file's diagnostics into one document on stdout)",
    )
    parser.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="CODE",
        help="suppress a diagnostic code (repeatable, e.g. "
        "--disable W102 --disable W104)",
    )
    args = parser.parse_args(argv)
    from .analysis.diagnostics import (
        Diagnostic,
        render_json,
        render_sarif,
    )
    from .lang.errors import SourcePos
    from .lang.checker import check_source

    disabled = set(args.disable)
    collected: list[Diagnostic] = []
    for path in args.sources:
        try:
            diags = check_source(_read(path), filename=path)
        except LolError as exc:
            collected.append(
                Diagnostic(
                    "E000",
                    exc.message,
                    exc.pos
                    if exc.pos.line
                    else SourcePos(1, 1, path),
                )
            )
            continue
        collected.extend(diags)
    shown = [
        d
        for d in collected
        if d.code not in disabled
        and not (args.errors_only and not d.is_error)
    ]
    if args.fmt == "json":
        print(render_json(shown))
    elif args.fmt == "sarif":
        print(render_sarif(shown))
    else:
        for diag in shown:
            print(diag.render_text())
    if any(d.is_error for d in shown):
        return 2
    if shown and args.strict:
        return 1
    return 0


def lolfmt_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lolfmt", description="canonical LOLCODE formatter"
    )
    parser.add_argument("source", help="input .lol file ('-' for stdin)")
    parser.add_argument(
        "-i", "--in-place", action="store_true", help="rewrite the file"
    )
    args = parser.parse_args(argv)
    from .lang.formatter import format_source

    try:
        formatted = format_source(_read(args.source), filename=args.source)
    except LolError as exc:
        return _fail(exc)
    if args.in_place and args.source != "-":
        with open(args.source, "w", encoding="utf-8") as fh:
            fh.write(formatted)
    else:
        sys.stdout.write(formatted)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(lolrun_main())
