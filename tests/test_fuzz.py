"""The coverage-guided differential fuzzer (repro.fuzz).

The load-bearing test is the planted-bug drill: monkeypatch the VM
compiler to mis-fold its ADD superinstruction (constant off by one),
then assert the fuzzer *finds* the divergence within a fixed number of
seeded iterations and that the delta-debugger shrinks the repro below a
size bound.  Everything here is seeded and deterministic.
"""

import json

import pytest

from repro.fuzz import (
    Fuzzer,
    GenConfig,
    Outcome,
    generate_program,
    minimize_program,
    mutate_program,
    program_size,
    run_differential,
)
from repro.fuzz.cli import lolfuzz_main
from repro.fuzz.diff import classify_exception, host_outcome, lint_gate
from repro.interp import compile_vm_cached
from repro.lang import ast
from repro.lang.errors import LolError
from repro.lang.formatter import format_program
from repro.lang.parser import parse
from repro.vm import compile as vm_compile
from repro.vm import isa

pytestmark = pytest.mark.fuzz

GEN_SEEDS = range(25)


# ---------------------------------------------------------------------------
# Generator validity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", GEN_SEEDS)
def test_generated_program_round_trips(seed):
    program = generate_program(seed)
    source = format_program(program)
    assert parse(source) == program, f"seed {seed} not parse-stable"


def test_generated_programs_mostly_pass_lint():
    passed = sum(
        1
        for seed in GEN_SEEDS
        if lint_gate(format_program(generate_program(seed))) is None
    )
    # The grammar is built to emit lint-clean SPMD programs; a low pass
    # rate means the fuzzer wastes its budget on discards.
    assert passed >= len(GEN_SEEDS) * 0.8, f"only {passed}/{len(GEN_SEEDS)} lint-clean"


def test_generation_is_deterministic():
    assert generate_program(11) == generate_program(11)
    assert generate_program(11) != generate_program(12)


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_mutants_stay_well_formed(seed):
    import random

    parent = generate_program(seed)
    for child_seed in range(6):
        child = mutate_program(parent, random.Random(child_seed), GenConfig())
        source = format_program(child)
        assert parse(source) == child


# ---------------------------------------------------------------------------
# Differential harness + outcome classification
# ---------------------------------------------------------------------------


def test_clean_candidates_do_not_diverge():
    for seed in (1, 4, 7):
        source = format_program(generate_program(seed))
        result = run_differential(source, 2, seed=0)
        assert result.status in ("ok", "discarded"), result.divergences
        if result.status == "ok":
            assert result.opcode_counts is not None
            assert sum(result.opcode_counts) > 0


def test_seeded_batch_runs_draw_mask_and_nest_plans(monkeypatch):
    # Some generated loops are shaped for the vectorizer, so the
    # differential covers its plans and not only their scalar fallback.
    import threading

    from repro.vm import machine, vecrun

    ran: set = set()
    lock = threading.Lock()

    def spy(m, frame, plan, pos):
        done = vecrun.run_vec(m, frame, plan, pos)
        if done:
            with lock:
                ran.update(plan.shapes)
        return done

    monkeypatch.setattr(machine, "run_vec", spy)
    shaped = 0
    for seed in range(40):
        source = format_program(generate_program(seed))
        if "IM IN YR wl" not in source:
            continue
        shaped += 1
        result = run_differential(source, 2, seed=0)
        assert result.status == "ok", (seed, result.reason, result.divergences)
    assert shaped >= 5
    assert {"draw", "mask", "nest"} <= ran


def test_outcome_comparable_ignores_detail():
    a = Outcome("error", error_class="LolTypeError", detail="at line 3")
    b = Outcome("error", error_class="LolTypeError", detail="at line 9")
    assert a.comparable() == b.comparable()
    assert a.comparable() != Outcome("error", error_class="LolMathError").comparable()
    assert Outcome("ok", outputs=("1\n",)).comparable() != Outcome(
        "ok", outputs=("2\n",)
    ).comparable()


def test_classify_exception_buckets():
    assert classify_exception(RuntimeError("PE 1 failed to terminate")).kind == "hang"
    assert classify_exception(RuntimeError("barrier broken")).kind == "hang"
    assert classify_exception(RuntimeError("exceeded 100 statement steps")).kind == "stepout"
    out = classify_exception(LolError("boom"))
    assert out.kind == "error" and out.error_class == "LolError"
    # host exceptions: a crash, except a program's own deep recursion
    assert host_outcome(ValueError("bad\nmore")) == Outcome(
        "crash", error_class="ValueError", detail="bad"
    )
    out = host_outcome(RecursionError("maximum recursion depth exceeded"))
    assert out.kind == "error" and out.error_class == "RecursionError"


def test_lint_gate_discards_divergent_barrier():
    hangy = "HAI 1.2\nBOTH SAEM ME AN 0, O RLY?\nYA RLY,\n  HUGZ\nOIC\nKTHXBYE\n"
    reason = lint_gate(hangy)
    assert reason is not None and reason.startswith("lint:")


def test_cfg_edges_classify_blocks_by_parallel_content():
    from repro.fuzz.coverage import cfg_features
    from repro.workloads import all_workloads

    kinds = set()
    for workload in all_workloads():
        for _edge, _scope, kind, succ in cfg_features(
            parse(workload.source(smoke=True))
        ):
            kinds |= {kind, succ}
    assert {"barrier", "lock", "txt", "loop", "branch"} <= kinds


# ---------------------------------------------------------------------------
# Minimizer
# ---------------------------------------------------------------------------


def test_minimizer_shrinks_to_predicate_core():
    program = generate_program(2)
    before = program_size(program)

    def has_visible(p):
        return any(isinstance(s, ast.Visible) for s in p.body)

    small = minimize_program(program, has_visible)
    assert has_visible(small)
    assert program_size(small) < before
    # the 1-statement fixpoint: nothing but a VISIBLE should survive
    assert sum(1 for s in small.body if isinstance(s, ast.Visible)) >= 1


# ---------------------------------------------------------------------------
# Determinism of the whole loop
# ---------------------------------------------------------------------------


def _run_fuzzer(**kw):
    fuzzer = Fuzzer(seed=7, n_pes=2, **kw)
    stats = fuzzer.run(iterations=12)
    d = stats.as_dict()
    d.pop("elapsed_s")
    return d, [f.source for f in fuzzer.findings]


def test_fuzzer_is_deterministic():
    first = _run_fuzzer()
    second = _run_fuzzer()
    assert first == second


# ---------------------------------------------------------------------------
# The planted-bug drill (the reason this subsystem exists)
# ---------------------------------------------------------------------------


def _plant_add_sc_misfold():
    """Wrap the VM compiler so the first ADD_SC constant is off by one."""
    real = vm_compile.compile_program_vm

    def buggy(program, **kw):
        vmp = real(program, **kw)
        code = list(vmp.co.code)
        for i, ins in enumerate(code):
            if ins[0] == isa.ADD_SC:
                code[i] = (ins[0], ins[1], ins[2], ins[3] + 1)
                vmp.co.code = tuple(code)
                break
        return vmp

    return buggy


def test_fuzzer_finds_planted_vm_misfold(monkeypatch, tmp_path):
    monkeypatch.setattr(vm_compile, "compile_program_vm", _plant_add_sc_misfold())
    compile_vm_cached.cache_clear()
    try:
        fuzzer = Fuzzer(seed=3, n_pes=2, corpus_dir=tmp_path, minimize_checks=120)
        stats = fuzzer.run(iterations=25, stop_after=1)
        assert fuzzer.findings, f"planted bug not found in {stats.iterations} iters"
        finding = fuzzer.findings[0]
        # the bug lives in the VM pipeline, so vm (and/or the profiled
        # vm-steps gate) must be among the diverging engines
        assert any(e.startswith("vm") for e in finding.engines), finding.engines
        assert finding.kind == "value"
        # the delta-debugger must shrink the repro to something readable
        minimized = parse(finding.minimized_source)
        assert program_size(minimized) <= 60, format_program(minimized)
        # and the corpus entry must replay: same seed, still divergent
        saved = sorted(tmp_path.glob("*.lol"))
        assert saved, "minimized repro was not written to the corpus"
        meta = json.loads(saved[0].with_suffix(".json").read_text())
        assert meta["kind"] == "value"
        replay = run_differential(
            saved[0].read_text(), meta["n_pes"], seed=meta["seed"], skip_lint=True
        )
        assert replay.status == "divergent"
    finally:
        compile_vm_cached.cache_clear()


def test_planted_bug_vanishes_when_unplanted():
    # The exact candidate that trips the planted bug is clean on HEAD —
    # i.e. the drill above detects the plant, not a latent real bug.
    fuzzer = Fuzzer(seed=3, n_pes=2)
    stats = fuzzer.run(iterations=25)
    assert not fuzzer.findings
    assert stats.divergences == 0


def _plant_host_crash(exc_type=ValueError):
    """Wrap the VM compiler so it raises ``exc_type`` on every compile of
    the first fuzz candidate that reaches it (the minimizer compiles
    under another filename, so its shrunk candidates stay clean)."""
    real = vm_compile.compile_program_vm
    target: list[str] = []

    def crashing(tree, **kw):
        filename = getattr(tree, "program", tree).pos.filename
        if not target and filename.startswith("<fuzz:"):
            target.append(filename)
        if filename in target:
            raise exc_type("planted host crash\nsecond line")
        return real(tree, **kw)

    return crashing, target


def test_host_exception_is_a_saved_finding(monkeypatch, tmp_path, capsys):
    crashing, target = _plant_host_crash()
    monkeypatch.setattr(vm_compile, "compile_program_vm", crashing)
    compile_vm_cached.cache_clear()
    try:
        rc = lolfuzz_main(
            ["run", "--iterations", "12", "-np", "2", "--seed", "0",
             "--minimize-checks", "5", "--corpus", str(tmp_path)]
        )
    finally:
        compile_vm_cached.cache_clear()
    out = capsys.readouterr().out
    assert rc == 4
    assert "12 iterations" in out and "1 divergence(s)" in out
    assert "crash on vm, vm-steps" in out
    saved = sorted(tmp_path.glob("crash_*.lol"))
    assert len(saved) == 1
    meta = json.loads(saved[0].with_suffix(".json").read_text())
    assert meta["kind"] == "crash"
    assert f"<fuzz:{meta['gen_seed']}>" == target[0]
    assert "vm crashed: ValueError: planted host crash" in meta["detail"]
    assert "second line" not in meta["detail"]
    # nothing shrinks without the crash, so the candidate is saved whole
    assert saved[0].read_text() == meta["original_source"]


def test_keyboard_interrupt_still_ends_the_session(monkeypatch):
    crashing, _ = _plant_host_crash(KeyboardInterrupt)
    monkeypatch.setattr(vm_compile, "compile_program_vm", crashing)
    compile_vm_cached.cache_clear()
    try:
        with pytest.raises(KeyboardInterrupt):
            Fuzzer(seed=0, n_pes=2).run(iterations=12)
    finally:
        compile_vm_cached.cache_clear()


def test_checker_host_exception_is_a_finding(monkeypatch):
    from repro.fuzz import diff

    def crash(source, filename):
        raise ValueError("checker bug")

    monkeypatch.setattr(diff, "check_source", crash)
    result = run_differential(format_program(generate_program(1)), 2)
    assert result.status == "divergent"
    assert result.outcomes["lint"] == Outcome(
        "crash", error_class="ValueError", detail="checker bug"
    )
    assert [d.describe() for d in result.divergences] == [
        "lint crashed: ValueError: checker bug"
    ]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_gen_prints_program(capsys):
    assert lolfuzz_main(["gen", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("HAI 1.2")
    assert parse(out) == generate_program(5)


def test_cli_run_smoke(tmp_path, capsys):
    rc = lolfuzz_main(
        ["run", "--iterations", "6", "-np", "2", "-q",
         "--corpus", str(tmp_path / "corpus"), "--json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["iterations"] == 6
    assert payload["stats"]["divergences"] == 0
    assert payload["findings"] == []


def test_cli_minimize_rejects_clean_program(tmp_path, capsys):
    src = tmp_path / "clean.lol"
    src.write_text(format_program(generate_program(1)))
    assert lolfuzz_main(["minimize", str(src), "-np", "2"]) == 4
