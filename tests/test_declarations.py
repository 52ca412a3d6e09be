"""One declaration table: every executor applies the symmetric-heap rule.

The program summary (:mod:`repro.analysis.summary`) records every
``WE HAS A``; :func:`~repro.analysis.summary.symmetric_plan` lays them
out, before any PE runs, for the thread and pool executors and the C
backend alike: a symmetric name is typed, its extent folds to at least
1 element, and redeclarations agree on type, array-ness and extent
while their lock flags OR together.
"""

from __future__ import annotations

import re

import pytest

from repro import run_lolcode
from repro.analysis import summary as summary_mod
from repro.compiler import CompileError, NativeBuildError, compile_c
from repro.lang import ast
from repro.lang.errors import LolError, LolParallelError
from repro.lang.parser import parse, parse_cached
from repro.launcher import plan_from_program
from repro.workloads import all_workloads, get_workload

from .conftest import lol

#: (executor, engine) for each executor family at np=2; ``c`` builds
#: native binaries, so it needs a host C compiler.
EXECUTORS = [
    pytest.param("thread", "vm", id="thread"),
    pytest.param("pool", "vm", id="pool", marks=pytest.mark.procs),
    pytest.param("thread", "c", id="c", marks=pytest.mark.requires_cc),
]


def _run(body: str, executor: str, engine: str):
    return run_lolcode(
        lol(body), 2, executor=executor, engine=engine, barrier_timeout=30
    )


@pytest.mark.parametrize("executor, engine", EXECUTORS)
@pytest.mark.parametrize(
    "extent", ["DIFF OF MAH FRENZ AN MAH FRENZ", "DIFF OF 1 AN MAH FRENZ"]
)
def test_non_positive_symmetric_extent_rejected(executor, engine, extent):
    # Folds to 0 and -1 at np=2: no executor may allocate it.
    body = (
        f"WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ {extent}\n"
        f'VISIBLE "ok"'
    )
    with pytest.raises(LolError):
        _run(body, executor, engine)


#: name -> (body, expected output or None when every executor rejects it)
HEAP_RULE_CASES = {
    "untyped": ('WE HAS A s\nVISIBLE "ok"', None),
    "retyped": (
        "WE HAS A x ITZ SRSLY A NUMBR\n"
        "WE HAS A x ITZ SRSLY A NUMBAR\n"
        "x R 3\nVISIBLE x",
        None,
    ),
    "lock_only_redeclaration": (
        "WE HAS A x ITZ SRSLY A NUMBR\n"
        "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
        "IM SRSLY MESIN WIF x\nx R 1\nDUN MESIN WIF x\nVISIBLE x",
        "1\n1\n",
    ),
}


@pytest.mark.parametrize("executor, engine", EXECUTORS)
@pytest.mark.parametrize("case", sorted(HEAP_RULE_CASES))
def test_every_executor_follows_the_heap_rule(case, executor, engine):
    body, expected = HEAP_RULE_CASES[case]
    if expected is None:
        with pytest.raises(LolError) as info:
            _run(body, executor, engine)
        assert not isinstance(info.value, NativeBuildError)
    else:
        assert _run(body, executor, engine).output == expected


REDEFINED_FUNCTION = (
    "HOW IZ I f\n  FOUND YR 1\nIF U SAY SO\n"
    "HOW IZ I f\n  FOUND YR 2\nIF U SAY SO\n"
    "VISIBLE I IZ f MKAY"
)


def test_redefined_function_runs_on_the_interpreters():
    for engine in ("ast", "vm"):
        assert _run(REDEFINED_FUNCTION, "thread", engine).output == "2\n2\n"


@pytest.mark.parametrize(
    "body, match",
    [
        (REDEFINED_FUNCTION, "function 'f' is defined twice"),
        (
            "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 2\n"
            "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 3",
            "conflicting symmetric declarations for 'a'",
        ),
    ],
    ids=["redefined_function", "conflicting_extents"],
)
def test_program_errors_never_reach_cc(body, match):
    # A program error is a CompileError before cc runs, so the
    # environment fallback (NativeBuildError -> fallback_engine) never
    # hides it behind a degraded run.
    with pytest.raises(CompileError, match=match):
        run_lolcode(lol(body), 2, engine="c", fallback_engine="vm")


def test_consumers_read_the_tree_the_summary_was_built_from():
    # The parse and summary caches evict independently; once the parse
    # entry is gone, a second parse yields new nodes that the cached
    # summary does not describe.  Consumers must compile the summary's
    # own tree, or every top-level function looks nested.
    source = lol(
        "HOW IZ I twice YR n\n  FOUND YR SUM OF n AN n\nIF U SAY SO\n"
        "VISIBLE I IZ twice YR 21 MKAY"
    )
    # Keyed exactly as compile_c and run_lolcode look it up.
    summary_mod.summarize_cached(source, "<string>")
    parse_cached.cache_clear()
    assert "twice" in compile_c(source, n_pes=2)
    result = run_lolcode(source, 1, engine="ast", check="error")
    assert result.output == "42\n"


DEAD_DIVISION_EXTENT = (
    "I HAS A n ITZ 0\n"
    "BOTH SAEM n AN 1, O RLY?\nYA RLY,\n"
    "  I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ QUOSHUNT OF 1 AN 0\n"
    "  VISIBLE a'Z 0\n"
    'OIC\nVISIBLE "ok"'
)


@pytest.mark.parametrize(
    "engine",
    ["ast", "vm", pytest.param("c", marks=pytest.mark.requires_cc)],
)
def test_block_local_extent_fails_only_if_it_runs(engine):
    # An extent that cannot fold is a run-time matter for a block-local
    # array: a branch that never runs never evaluates it.
    assert _run(DEAD_DIVISION_EXTENT, "thread", engine).output == "ok\nok\n"


def test_symmetric_division_by_zero_extent_is_a_compile_error():
    with pytest.raises(CompileError, match="division by zero"):
        compile_c(
            lol(
                "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ "
                "QUOSHUNT OF 1 AN 0"
            ),
            n_pes=2,
        )


_SYMMETRIC_OBJECT = re.compile(
    r"^static (long long|double|int) (\w+)(?:\[(\d+)\])? LOL_SYMMETRIC;",
    re.M,
)
_LOCK_WORD = re.compile(r"^static long __lock_(\w+) LOL_SYMMETRIC = 0L;", re.M)
_C_TYPE = {"NUMBR": "long long", "NUMBAR": "double", "TROOF": "int"}


@pytest.mark.parametrize("n_pes", [2, 4])
@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
def test_c_symmetric_objects_match_the_pool_plan(workload, n_pes):
    source = get_workload(workload).source()
    plan = plan_from_program(parse(source), n_pes).entries
    c_source = compile_c(source, n_pes=n_pes)
    objects = {
        name: (ctype, int(extent) if extent else None)
        for ctype, name, extent in _SYMMETRIC_OBJECT.findall(c_source)
    }
    assert objects == {
        name: (_C_TYPE[lol_type.name], size if is_array else None)
        for name, (lol_type, is_array, size, _) in plan.items()
    }
    locks = set(_LOCK_WORD.findall(c_source))
    assert locks == {name for name, entry in plan.items() if entry[3]}


@pytest.mark.procs
def test_warm_pool_run_does_not_summarize(monkeypatch):
    source = lol(
        "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ MAH FRENZ\n"
        "a'Z ME R ME\nHUGZ\nVISIBLE a'Z ME"
    )
    first = run_lolcode(source, 2, executor="pool", barrier_timeout=30)
    calls = []

    def counting(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *args: calls.append(name) or real(*args)
        )

    # The planner reads the cached summary: neither a summary nor a
    # statement walk of the parent's tree happens on a warm run.
    counting(summary_mod, "summarize")
    counting(ast, "walk_statements")
    second = run_lolcode(source, 2, executor="pool", barrier_timeout=30)
    assert second.outputs == first.outputs == ["0\n", "1\n"]
    assert calls == []


#: name -> (body, outcome on ast and vm, outcome on c).  An outcome is
#: the output of both PEs, or the class of the error one of them raised.
#: Every executor lays out the whole plan before its PEs start, so a bad
#: declaration fails even where it never runs, and the symbol exists
#: (for ``UR`` and locks) before its ``WE HAS A`` runs; a plain read or
#: write of the name before then is undeclared on the interpreters,
#: while C reads its zero-initialised static.
DECLARATION_CASES = {
    "local_variable_extent": (
        "I HAS A n ITZ 4\n"
        "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ n\n"
        'VISIBLE "ok"',
        "LolParallelError",
        "CompileError",
    ),
    "empty_array_in_dead_branch": (
        "FAIL, O RLY?\nYA RLY,\n"
        "  WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 0\n"
        'OIC\nVISIBLE "ok"',
        "LolParallelError",
        "CompileError",
    ),
    "untyped_in_uncalled_function": (
        'HOW IZ I f\n  WE HAS A s\nIF U SAY SO\nVISIBLE "ok"',
        "LolParallelError",
        "CompileError",
    ),
    "remote_write_before_declaration": (
        "TXT MAH BFF 0, UR x R 5\n"
        "WE HAS A x ITZ SRSLY A NUMBR\n"
        "VISIBLE x",
        "5\n0\n",
        "5\n0\n",
    ),
    "lock_before_declaration": (
        "IM SRSLY MESIN WIF x\nDUN MESIN WIF x\n"
        "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
        'VISIBLE "ok"',
        "ok\nok\n",
        "ok\nok\n",
    ),
    "function_reads_before_declaration": (
        "HOW IZ I f\n  VISIBLE x\nIF U SAY SO\n"
        "I IZ f MKAY\n"
        "WE HAS A x ITZ SRSLY A NUMBR ITZ 3\n"
        "I IZ f MKAY",
        "LolNameError",
        "0\n3\n0\n3\n",
    ),
    "function_writes_before_declaration": (
        "HOW IZ I f\n  x R 7\nIF U SAY SO\n"
        "I IZ f MKAY\n"
        "WE HAS A x ITZ SRSLY A NUMBR\n"
        "VISIBLE x",
        "LolNameError",
        "7\n7\n",
    ),
    "loop_reads_before_declaration": (
        "HOW IZ I total\n  I HAS A s ITZ 0\n"
        "  IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4\n"
        "    s R SUM OF s AN a'Z i\n"
        "  IM OUTTA YR l\n  FOUND YR s\nIF U SAY SO\n"
        "VISIBLE I IZ total MKAY\n"
        "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4",
        "LolNameError",
        "0\n0\n",
    ),
    "declared_only_in_dead_branch": (
        "FAIL, O RLY?\nYA RLY,\n  WE HAS A x ITZ SRSLY A NUMBR\nOIC\n"
        "VISIBLE x",
        "LolNameError",
        "0\n0\n",
    ),
}


def _outcome(body: str, executor: str, engine: str) -> str:
    try:
        return _run(body, executor, engine).output
    except LolError as exc:
        # Both executors report a PE's error as a LolParallelError: the
        # thread executor chains the original, the pool names its class.
        if type(exc) is LolParallelError and exc.__cause__ is not None:
            return type(exc.__cause__).__name__
        pooled = re.match(r"PE \d+ failed in pool executor: (\w+)\(", str(exc))
        return pooled.group(1) if pooled else type(exc).__name__


@pytest.mark.procs
@pytest.mark.parametrize("engine", ["ast", "vm"])
@pytest.mark.parametrize("case", sorted(DECLARATION_CASES))
def test_thread_and_pool_agree_on_declarations(case, engine):
    body, expected, _ = DECLARATION_CASES[case]
    thread = _outcome(body, "thread", engine)
    pooled = _outcome(body, "pool", engine)
    assert thread == pooled == expected


@pytest.mark.requires_cc
@pytest.mark.parametrize("case", sorted(DECLARATION_CASES))
def test_c_declarations(case):
    body, _, expected = DECLARATION_CASES[case]
    assert _outcome(body, "thread", "c") == expected


@pytest.mark.parametrize(
    "executor", ["thread", pytest.param("pool", marks=pytest.mark.procs)]
)
def test_warm_launch_plans_nothing(monkeypatch, executor):
    source = lol(
        "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ MAH FRENZ\n"
        f'a\'Z ME R ME\nHUGZ\nVISIBLE a\'Z ME "{executor}"'
    )
    first = run_lolcode(source, 2, executor=executor, barrier_timeout=30)
    calls = []
    real = summary_mod.symmetric_plan
    monkeypatch.setattr(
        summary_mod,
        "symmetric_plan",
        lambda *args: calls.append(args) or real(*args),
    )
    second = run_lolcode(source, 2, executor=executor, barrier_timeout=30)
    assert second.outputs == first.outputs == [f"0{executor}\n", f"1{executor}\n"]
    assert calls == []
    # Every launch of the source shares the cached plan, so it is read-only.
    plan = summary_mod.symmetric_plan_cached(source, "<string>", 2)
    with pytest.raises(TypeError):
        plan.add("b", plan.entries["a"][0], False, 1, False)
