"""Differential execution of one candidate program across engines.

The pipeline per candidate is::

    lollint gate  ->  VM gate (step-bounded, profiled)  ->  engine matrix

* The **lint gate** discards programs with static errors or any
  parallel-correctness warning (divergent barriers, races, lock misuse):
  those may legitimately deadlock or be schedule-dependent, so engine
  disagreement would be noise, not signal.
* The **VM gate** runs the candidate once on the non-vectorized VM with
  ``max_steps`` armed (the only engines honouring ``max_steps`` are
  ``ast`` and ``vm``).  Programs that exhaust the step budget are
  discarded — every surviving candidate is known to terminate, so the
  remaining engines can run without step accounting.  The gate doubles
  as the coverage probe: it returns the per-opcode dispatch counts the
  fuzzer feeds into :mod:`repro.fuzz.coverage`.
* The **engine matrix** then runs the candidate on every requested
  engine and compares ``(kind, outputs | error-class)`` against the
  reference engine (``ast``).  A typed error is a *comparable outcome*:
  engines must agree on the error class, not just on success.

A host exception (anything but a ``LolError``) in any of the three
stages is a ``"crash"`` outcome: a toolchain bug whatever the other
engines did, so it is always reported as a finding.

The native ``c`` engine is excluded by default: a build per candidate
is slow, and where ``ast`` raises a typed runtime error (an
out-of-range index, NOOB arithmetic, division by zero) ``c`` runs on
silently, so such candidates would read as divergences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..lang import ast as lol_ast
from ..lang.checker import check_source
from ..lang.errors import LolError
from ..launcher.spmd import run_lolcode
from ..shmem.runtime_threads import run_spmd

#: Engines the fuzzer compares by default (reference first).
DEFAULT_ENGINES: tuple[str, ...] = ("ast", "vm")

#: Checker codes whose presence disqualifies a candidate: static errors
#: plus the parallel-correctness warnings (divergent barrier, data race,
#: barrier-in-loop mismatch, lock misuse).  W107 (possible out-of-bounds)
#: is allowed through: an actual OOB raises the same typed error on every
#: engine, which is exactly the contract being fuzzed.
GATE_WARNINGS: frozenset[str] = frozenset({"W101", "W102", "W103", "W105", "W106"})


@dataclass(frozen=True)
class Outcome:
    """What one engine did with one candidate."""

    kind: str  # "ok" | "error" | "hang" | "stepout" | "skip" | "crash"
    outputs: Optional[tuple[str, ...]] = None  # per-PE stdout when kind == "ok"
    error_class: str = ""  # exception class(es) when kind is "error" or "crash"
    detail: str = ""

    def comparable(self) -> tuple:
        if self.kind == "ok":
            return ("ok", self.outputs)
        if self.kind == "error":
            return ("error", self.error_class)
        return (self.kind,)


@dataclass
class Divergence:
    """A disagreement between the reference engine and another engine."""

    engine: str
    reference: str
    ref_outcome: Outcome
    outcome: Outcome

    def describe(self) -> str:
        if self.outcome.kind == "crash":
            return (
                f"{self.engine} crashed: {self.outcome.error_class}: "
                f"{self.outcome.detail}"
            )
        return (
            f"{self.engine} diverged from {self.reference}: "
            f"{self.outcome.kind}({self.outcome.error_class or self.outcome.detail or 'output'}) "
            f"vs {self.ref_outcome.kind}"
        )


@dataclass
class DiffResult:
    """Full result of one candidate's trip through the pipeline."""

    status: str  # "ok" | "divergent" | "discarded"
    reason: str = ""  # why discarded (lint code, stepout, vm-gate error detail)
    outcomes: dict[str, Outcome] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    opcode_counts: Optional[list[int]] = None  # merged VM dispatch counters


def classify_exception(exc: BaseException) -> Outcome:
    """Map an engine exception onto a comparable :class:`Outcome`."""
    msg = str(exc)
    low = msg.lower()
    if "failed to terminate" in low or "timed out" in low or "barrier broken" in low:
        return Outcome("hang", detail=msg.splitlines()[0][:200])
    if "statement steps" in low or "step budget" in low:
        return Outcome("stepout", detail=msg.splitlines()[0][:200])
    names = [type(exc).__name__]
    cause = exc.__cause__
    if isinstance(cause, LolError) and type(cause) is not type(exc):
        names.append(type(cause).__name__)
    return Outcome("error", error_class="/".join(names), detail=msg.splitlines()[0][:200])


def host_outcome(exc: Exception) -> Outcome:
    """Map a non-``LolError`` exception onto an :class:`Outcome`: the
    ``"crash"`` of a toolchain bug, named by its class and the first
    line of its message.  A ``RecursionError`` is the program's own
    deep recursion, an ``"error"`` every engine must share."""
    kind = "error" if isinstance(exc, RecursionError) else "crash"
    return Outcome(
        kind,
        error_class=type(exc).__name__,
        detail=(str(exc).splitlines() or [""])[0][:200],
    )


def lint_gate(source: str, filename: str = "<fuzz>") -> Optional[str | Outcome]:
    """Return a discard reason if the candidate fails the lint gate, or
    the ``"crash"`` outcome if the checker itself raised."""
    try:
        diags = check_source(source, filename)
    except (LolError, RecursionError) as exc:
        return f"checker-error:{type(exc).__name__}"
    except Exception as exc:
        return host_outcome(exc)
    bad = sorted({d.code for d in diags if d.is_error or d.code in GATE_WARNINGS})
    if bad:
        return "lint:" + ",".join(bad)
    return None


def run_vm_gate(
    source: str,
    n_pes: int,
    *,
    seed: int = 0,
    max_steps: int = 200_000,
    barrier_timeout: float = 20.0,
    filename: str = "<fuzz>",
) -> tuple[Outcome, Optional[list[int]]]:
    """Step-bounded, profiled run on the non-vectorized VM.

    Returns the outcome plus merged per-opcode dispatch counts (the
    coverage signal).  Compilation goes through the ``repro.vm.compile``
    module attribute at call time so tests can monkeypatch a planted bug
    into the same compiler every other VM run uses.
    """
    from ..analysis.summary import summarize, symmetric_plan
    from ..lang.parser import parse
    from ..obs.vmprof import ProfilingMachine
    from ..vm import compile as vm_compile
    from ..vm.isa import N_OPCODES

    try:
        program = parse(source, filename)
        vmp = vm_compile.compile_program_vm(program, count_steps=True)
        plan = symmetric_plan(summarize(program), n_pes)
    except LolError as exc:
        return classify_exception(exc), None
    except Exception as exc:
        return host_outcome(exc), None

    counts = [0] * N_OPCODES

    def pe_main(ctx) -> None:
        machine = ProfilingMachine(ctx, max_steps=max_steps)
        try:
            machine.run(vmp)
        finally:
            profile = machine.profile
            for op, n in enumerate(profile.counts):
                if n:
                    counts[op] += n

    try:
        result = run_spmd(
            pe_main, n_pes, plan=plan, seed=seed, barrier_timeout=barrier_timeout
        )
    except LolError as exc:
        return classify_exception(exc), counts
    except Exception as exc:
        return host_outcome(exc), counts
    return Outcome("ok", outputs=tuple(result.outputs)), counts


def run_engine(
    source: str,
    n_pes: int,
    engine: str,
    *,
    executor: str = "thread",
    seed: int = 0,
    barrier_timeout: float = 20.0,
    filename: str = "<fuzz>",
) -> Outcome:
    """Run one candidate on one engine and classify the result."""
    try:
        result = run_lolcode(
            source,
            n_pes,
            executor=executor,
            engine=engine,
            seed=seed,
            check="off",
            barrier_timeout=barrier_timeout,
            filename=filename,
        )
    except LolError as exc:
        if type(exc).__name__ == "CompileError" or "CompileError" in str(type(exc.__cause__)):
            # Documented backend restriction (SRS, nested decls, ...):
            # a skip, not a divergence — mirrors test_engine_differential.
            return Outcome("skip", detail=str(exc).splitlines()[0][:200])
        return classify_exception(exc)
    except Exception as exc:
        return host_outcome(exc)
    return Outcome("ok", outputs=tuple(result.outputs))


def run_differential(
    source: str,
    n_pes: int = 4,
    *,
    engines: Sequence[str] = DEFAULT_ENGINES,
    executors: Sequence[str] = ("thread",),
    seed: int = 0,
    max_steps: int = 200_000,
    barrier_timeout: float = 20.0,
    filename: str = "<fuzz>",
    skip_lint: bool = False,
) -> DiffResult:
    """Run the full pipeline on one candidate.

    The VM gate result participates in the comparison as pseudo-engine
    ``"vm-steps"`` (non-vectorized VM with step accounting), so the two
    VM configurations — vectorized and step-counted — are both checked
    against the reference on every candidate.
    """
    if not skip_lint:
        reason = lint_gate(source, filename)
        if isinstance(reason, Outcome):
            return DiffResult(
                "divergent",
                outcomes={"lint": reason},
                divergences=[Divergence("lint", engines[0], reason, reason)],
            )
        if reason is not None:
            return DiffResult("discarded", reason=reason)

    gate_outcome, counts = run_vm_gate(
        source, n_pes, seed=seed, max_steps=max_steps,
        barrier_timeout=barrier_timeout, filename=filename,
    )
    if gate_outcome.kind in ("stepout", "hang"):
        return DiffResult("discarded", reason=f"vm-gate:{gate_outcome.kind}",
                          opcode_counts=counts)

    result = DiffResult("ok", opcode_counts=counts)
    reference = engines[0]
    ref_outcome: Optional[Outcome] = None
    for executor in executors:
        for engine in engines:
            outcome = run_engine(
                source, n_pes, engine, executor=executor, seed=seed,
                barrier_timeout=barrier_timeout, filename=filename,
            )
            label = engine if len(executors) == 1 else f"{engine}/{executor}"
            result.outcomes[label] = outcome
            if engine == reference and executor == executors[0]:
                ref_outcome = outcome
                continue
            if outcome.kind == "skip" or ref_outcome is None:
                continue
            if outcome.comparable() != ref_outcome.comparable():
                result.divergences.append(
                    Divergence(label, reference, ref_outcome, outcome))
    # The step-counted VM run is a fifth configuration: its outputs must
    # match the reference too (it already ran, so this is free).
    result.outcomes["vm-steps"] = gate_outcome
    if ref_outcome is not None and gate_outcome.kind != "skip":
        if gate_outcome.comparable() != ref_outcome.comparable():
            result.divergences.append(
                Divergence("vm-steps", reference, ref_outcome, gate_outcome))
    # A crash is a finding even where the reference crashed the same way.
    diverged = {d.engine for d in result.divergences}
    for label, outcome in result.outcomes.items():
        if outcome.kind == "crash" and label not in diverged:
            result.divergences.append(
                Divergence(label, reference, ref_outcome or outcome, outcome))
    if result.divergences:
        # Self-consistency check before trusting a divergence: the race
        # analysis is not complete (e.g. an unlocked read racing the
        # next epoch's locked writes slips through), and a racy
        # candidate diverges by *schedule*, not by engine.  Re-run the
        # reference and every diverging configuration; any engine that
        # disagrees with itself marks the candidate nondeterministic.
        ref_label = reference if len(executors) == 1 else f"{reference}/{executors[0]}"
        for label in sorted({ref_label} | {d.engine for d in result.divergences}):
            if label == "vm-steps":
                second, _ = run_vm_gate(
                    source, n_pes, seed=seed, max_steps=max_steps,
                    barrier_timeout=barrier_timeout, filename=filename,
                )
            else:
                engine, _, executor = label.partition("/")
                second = run_engine(
                    source, n_pes, engine, executor=executor or executors[0],
                    seed=seed, barrier_timeout=barrier_timeout, filename=filename,
                )
            if second.comparable() != result.outcomes[label].comparable():
                return DiffResult(
                    "discarded", reason=f"nondeterministic:{label}",
                    outcomes=result.outcomes, opcode_counts=counts,
                )
        result.status = "divergent"
    return result


def program_is_divergent(
    program: lol_ast.Program,
    n_pes: int,
    *,
    engines: Sequence[str] = DEFAULT_ENGINES,
    seed: int = 0,
    max_steps: int = 200_000,
    barrier_timeout: float = 20.0,
    match: Optional[tuple[frozenset[str], frozenset[str]]] = None,
) -> bool:
    """Minimizer predicate: does ``program`` still reproduce the bug?

    ``match`` pins the divergence signature ``(engines, kinds)`` observed
    on the original finding, so minimization can't drift onto an
    unrelated defect (e.g. shrink a miscompile into a type error).
    """
    from ..lang.formatter import format_program

    try:
        source = format_program(program)
    except Exception:
        return False
    result = run_differential(
        source, n_pes, engines=engines, seed=seed, max_steps=max_steps,
        barrier_timeout=barrier_timeout, skip_lint=False,
    )
    if result.status != "divergent":
        return False
    if match is not None:
        want_engines, want_kinds = match
        got_engines = frozenset(d.engine for d in result.divergences)
        got_kinds = frozenset(d.outcome.kind for d in result.divergences)
        return bool(want_engines & got_engines) and bool(want_kinds & got_kinds)
    return True
