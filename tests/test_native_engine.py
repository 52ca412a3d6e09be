"""Tests for the native C engine (``engine="c"``): build cache, SPMD
launch over the bundled SHMEM shim, knob refusals, and the ``lolcc``
driver.

The execution tests are marked ``requires_cc`` and skip cleanly on
hosts without a C compiler; the refusal/validation tests run anywhere
(they are rejected by the launcher before any toolchain work).
"""

from __future__ import annotations

import os
import pathlib
import stat
import subprocess
import sys
import threading
import time

import pytest

from repro import run_lolcode
from repro.compiler import CompileError, NativeToolchainError
from repro.compiler import native
from repro.fuzz.diff import run_engine
from repro.lang.errors import LolParallelError

from .conftest import lol


# ---------------------------------------------------------------------------
# Launcher-level validation: no toolchain needed.
# ---------------------------------------------------------------------------


def test_engine_registry_includes_c():
    from repro.launcher import ENGINES

    assert "c" in ENGINES


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (
            {"executor": "thread", "race_detection": True},
            "native OS processes",
        ),
        ({"executor": "pool", "max_steps": 10}, "max_steps"),
        ({"executor": "thread", "max_steps": 10}, "max_steps"),
        ({"executor": "thread", "trace": True}, "op tracing"),
        ({"executor": "pool", "race_detection": True}, "thread executor"),
        ({"executor": "pool", "trace": True}, "op tracing"),
    ],
)
def test_unsupported_knobs_refused_explicitly(kwargs, match):
    # Never a silent fallback to an interpreter: each knob the native
    # engine cannot honour is a loud error in the caller, whichever
    # executor was named.
    with pytest.raises(LolParallelError, match=match):
        run_lolcode(lol("VISIBLE 1"), 2, engine="c", **kwargs)


def test_serial_executor_requires_one_pe():
    # The native engine ignores the executor it runs under, but must
    # still refuse a name that is not one.
    for executor in ("serial", "process"):
        with pytest.raises(LolParallelError, match="unknown executor"):
            run_lolcode(lol("VISIBLE 1"), 4, engine="c", executor=executor)


def test_compile_restriction_surfaces_before_toolchain():
    # SRS is interpret-only; the CompileError must name the construct
    # and must surface even on hosts with no C compiler at all.
    src = lol('I HAS A x ITZ 1\nI HAS A n ITZ "x"\nVISIBLE SRS n')
    with pytest.raises(CompileError, match="SRS"):
        run_lolcode(src, 1, engine="c")


def test_missing_toolchain_is_a_distinct_error(monkeypatch):
    monkeypatch.setattr(native, "find_cc", lambda: None)
    with pytest.raises(NativeToolchainError, match="C compiler"):
        native.build_native(lol("VISIBLE 1"))


def test_service_accepts_native_jobs_on_any_executor():
    from repro.service.scheduler import JobSpec, ServiceError

    spec = JobSpec.from_request({"source": lol("VISIBLE 1"), "engine": "c"})
    assert spec.executor == "pool"
    spec = JobSpec.from_request(
        {"source": lol("VISIBLE 1"), "engine": "c", "executor": "thread"}
    )
    assert spec.executor == "thread"
    with pytest.raises(ServiceError, match="op tracing"):
        JobSpec.from_request(
            {"source": lol("VISIBLE 1"), "engine": "c", "trace": True}
        )
    with pytest.raises(ServiceError, match="unknown executor"):
        JobSpec.from_request(
            {"source": lol("VISIBLE 1"), "engine": "c", "executor": "process"}
        )


def test_non_positive_folded_extent_is_a_compile_error():
    # DIFF OF MAH FRENZ AN 8 at 4 PEs folds to -4: the backend must
    # diagnose it (CompileError -> bench skip row), not emit `a[-4]`
    # and let cc fail the build.
    src = lol(
        "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ "
        "DIFF OF MAH FRENZ AN 8"
    )
    from repro.compiler import compile_c

    with pytest.raises(CompileError, match="at least 1"):
        compile_c(src, n_pes=4)


def test_cc_rejection_is_a_build_error_not_a_skip(monkeypatch, tmp_path):
    # A compiler that runs but rejects the generated C is a codegen/
    # program failure (NativeBuildError, loud), never the environment
    # skip NativeToolchainError — otherwise codegen regressions would
    # turn every bench row into a silent green skip.
    from repro.compiler import NativeBuildError

    fake_cc = tmp_path / "cc"
    fake_cc.write_text("#!/bin/sh\necho 'synthetic rejection' >&2\nexit 1\n")
    fake_cc.chmod(0o755)
    monkeypatch.setenv("LOL_CC", str(fake_cc))
    with pytest.raises(NativeBuildError, match="synthetic rejection"):
        native.build_native(lol("VISIBLE 1"))


def test_stats_text_shows_warm_set_counters():
    from repro.service.cli import _render_stats_text

    stats = dict.fromkeys(
        ("queued", "running", "peak_running", "max_queue_depth", "jobs",
         "retries", "shed", "degraded"),
        0,
    )
    stats["native"] = native.native_stats()
    (line,) = [
        line
        for line in _render_stats_text(stats).splitlines()
        if line.startswith("native")
    ]
    for key in ("warm_hits=", "spawns=", "respawns="):
        assert key in line


# ---------------------------------------------------------------------------
# Real builds and launches.
# ---------------------------------------------------------------------------


@pytest.mark.requires_cc
class TestNativeExecution:
    def test_hello_single_pe(self):
        result = run_lolcode(lol('VISIBLE "O HAI"'), 1, engine="c")
        assert result.outputs == ["O HAI\n"]

    def test_serial_executor_single_pe(self):
        # One PE needs no executor name: the default runs it natively.
        result = run_lolcode(lol("VISIBLE SUM OF 40 AN 2"), 1, engine="c")
        assert result.outputs == ["42\n"]

    @pytest.mark.parametrize("executor", ["thread", "pool"])
    def test_any_executor_runs_natively(self, executor):
        # The native engine names its own vehicle: under either executor
        # the native build pipeline runs (its cache counters move).
        before = native.native_stats()
        result = run_lolcode(
            lol("VISIBLE SUM OF 40 AN ME"), 2, engine="c", executor=executor
        )
        after = native.native_stats()
        assert result.outputs == ["40\n", "41\n"]
        assert (after["builds"] + after["cache_hits"]) > (
            before["builds"] + before["cache_hits"]
        )

    def test_per_pe_outputs_in_rank_order(self):
        src = lol("I HAS A me ITZ ME\nVISIBLE PRODUKT OF me AN 11")
        result = run_lolcode(src, 4, engine="c")
        assert result.outputs == ["0\n", "11\n", "22\n", "33\n"]

    def test_remote_get_put_and_barrier(self):
        # Neighbour exchange through the shim's shared symmetric section.
        src = lol(
            "WE HAS A slot ITZ SRSLY A NUMBR\n"
            "slot R PRODUKT OF ME AN 100\n"
            "HUGZ\n"
            "I HAS A nekst ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "I HAS A got ITZ A NUMBR\n"
            "TXT MAH BFF nekst, got R UR slot\n"
            "HUGZ\n"
            "VISIBLE got"
        )
        result = run_lolcode(src, 4, engine="c")
        assert result.outputs == ["100\n", "200\n", "300\n", "0\n"]

    def test_frenz_sized_symmetric_array(self):
        # MAH FRENZ extents fold per launch width — the registry-kernel
        # pattern that makes most workloads natively compilable.
        src = lol(
            "WE HAS A shard ITZ SRSLY LOTZ A NUMBRS AN THAR IZ MAH FRENZ\n"
            "shard'Z ME R SUM OF ME AN 1\n"
            "HUGZ\n"
            "BOTH SAEM ME AN 0\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    I HAS A tot ITZ A NUMBR\n"
            "    IM IN YR add UPPIN YR k TIL BOTH SAEM k AN MAH FRENZ\n"
            "      I HAS A v ITZ A NUMBR\n"
            "      TXT MAH BFF k, v R UR shard'Z k\n"
            "      tot R SUM OF tot AN v\n"
            "    IM OUTTA YR add\n"
            "    VISIBLE tot\n"
            "OIC"
        )
        result = run_lolcode(src, 4, engine="c")
        assert result.outputs[0] == "10\n"  # 1+2+3+4

    def test_cross_process_lock_mutual_exclusion(self):
        # 4 PEs x 25 locked increments on PE 0 must total exactly 100 —
        # the shim's CAS lock really excludes across OS processes.
        src = lol(
            "WE HAS A kounter ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "HUGZ\n"
            "IM IN YR bump UPPIN YR i TIL BOTH SAEM i AN 25\n"
            "  IM SRSLY MESIN WIF kounter\n"
            "  TXT MAH BFF 0, UR kounter R SUM OF UR kounter AN 1\n"
            "  DUN MESIN WIF kounter\n"
            "IM OUTTA YR bump\n"
            "HUGZ\n"
            "BOTH SAEM ME AN 0\n"
            "O RLY?\n"
            "  YA RLY, VISIBLE kounter\n"
            "OIC"
        )
        result = run_lolcode(src, 4, engine="c")
        assert result.outputs[0] == "100\n"

    def test_whole_array_transfer(self):
        src = lol(
            "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
            "a'Z 0 R SUM OF ME AN 1\n"
            "a'Z 3 R PRODUKT OF ME AN 7\n"
            "HUGZ\n"
            "I HAS A b ITZ LOTZ A NUMBRS AN THAR IZ 4\n"
            "I HAS A nekst ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF nekst, MAH b R UR a\n"
            "VISIBLE b'Z 0 \" \" b'Z 3"
        )
        result = run_lolcode(src, 2, engine="c")
        assert result.outputs == ["2 7\n", "1 0\n"]

    def test_matches_interpreter_on_examples(self, example_path):
        src = example_path("ring.lol").read_text()
        for n_pes in (1, 2, 4):
            native_run = run_lolcode(src, n_pes, engine="c")
            interp = run_lolcode(src, n_pes, engine="ast", seed=1)
            assert native_run.outputs == interp.outputs

    def test_stdin_lines_reach_each_pe(self):
        src = lol('I HAS A x\nGIMMEH x\nVISIBLE "got " x')
        result = run_lolcode(
            src, 2, engine="c", stdin_lines=[["wun"], ["too"]]
        )
        assert result.outputs == ["got wun\n", "got too\n"]

    def test_seed_reproducible_within_native(self):
        src = lol("I HAS A x ITZ WHATEVR\nVISIBLE x")
        a = run_lolcode(src, 2, engine="c", seed=9)
        b = run_lolcode(src, 2, engine="c", seed=9)
        assert a.outputs == b.outputs

    def test_build_cache_reuses_binary(self):
        src = lol("VISIBLE 123454321")
        first = native.build_native(src, n_pes=2)
        mtime = first.stat().st_mtime_ns
        second = native.build_native(src, n_pes=2)
        assert second == first
        assert second.stat().st_mtime_ns == mtime  # no rebuild
        # A different launch width may produce different C (and always
        # a different cache entry is allowed); same width must not.
        assert first.stat().st_mode & stat.S_IXUSR

    def test_runtime_failure_names_the_pe(self, tmp_path):
        # A PE whose barrier partner never arrives must be reported by
        # rank (the shim's own deadline fires, not a Python hang).
        src = lol(
            "BOTH SAEM ME AN 0\n"
            "O RLY?\n"
            "  YA RLY, HUGZ\n"
            "OIC"
        )
        with pytest.raises(LolParallelError, match="PE"):
            run_lolcode(src, 2, engine="c", barrier_timeout=3)


# ---------------------------------------------------------------------------
# One evaluation order, one WHATEVR stream: c prints what ast prints.
# ---------------------------------------------------------------------------

_TRACED_F = (
    "I HAS A g ITZ 0\n"
    "HOW IZ I f YR n\n"
    '  VISIBLE SMOOSH "f" AN n MKAY\n'
    "  g R SUM OF g AN 1\n"
    "  FOUND YR n\n"
    "IF U SAY SO\n"
)

_MEBBE_DRAWS = """\
WIN, O RLY?
  YA RLY, VISIBLE "ya"
  MEBBE BOTH SAEM MOD OF WHATEVR AN 2 AN 0, VISIBLE "m"
OIC
VISIBLE WHATEVR
FAIL, O RLY?
  YA RLY, VISIBLE "ya"
  MEBBE BOTH SAEM MOD OF WHATEVR AN 2 AN 0, VISIBLE "m1"
  MEBBE BOTH SAEM MOD OF WHATEVR AN 3 AN 0, VISIBLE "m2"
  NO WAI, VISIBLE "no"
OIC
VISIBLE WHATEVR"""

C_AST_CASES = {
    "two_draw_sum": lol("VISIBLE SUM OF WHATEVR AN PRODUKT OF 0 AN WHATEVR"),
    "smoosh_draws": lol('VISIBLE SMOOSH WHATEVR AN " " AN WHATEVAR MKAY'),
    "mebbe_draws": lol(_MEBBE_DRAWS),
    "loop_condition_draw": lol(
        "IM IN YR l UPPIN YR i TIL EITHER OF BOTH SAEM MOD OF WHATEVR AN 3 "
        "AN 0 AN BOTH SAEM i AN 20\n  VISIBLE i\nIM OUTTA YR l"
    ),
    "draws_across_call": lol(
        "HOW IZ I r YR n\n  FOUND YR SUM OF n AN WHATEVR\nIF U SAY SO\n"
        "VISIBLE DIFF OF WHATEVR AN I IZ r YR WHATEVR MKAY"
    ),
    "call_order_sum": lol(
        _TRACED_F + "VISIBLE SUM OF I IZ f YR 1 MKAY AN I IZ f YR 2 MKAY"
    ),
    "call_order_both_of": lol(
        _TRACED_F + "VISIBLE BOTH OF I IZ f YR 0 MKAY AN I IZ f YR 3 MKAY"
    ),
    "read_before_call": lol(
        _TRACED_F + 'VISIBLE "g=" g " " SUM OF g AN I IZ f YR 4 MKAY'
    ),
    "squar_dynamic_numbr": lol("I HAS A v ITZ 4\nVISIBLE SQUAR OF v"),
    "mixed_smallr": lol(
        "VISIBLE SUM OF 8 AN SMALLR OF SMALLR OF 3.0 AN ME AN 8\n"
        "VISIBLE BIGGR OF WIN AN 0.5"
    ),
    # Draw loops the vm vectorizes (LOOP_VEC draw columns, if-converted
    # arms, a scatter increment).
    "draw_loop_darts": lol(
        "I HAS A hits ITZ A NUMBR AN ITZ 0\n"
        "I HAS A miss ITZ 0.0\n"
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 100\n"
        "  I HAS A x ITZ WHATEVAR\n"
        "  I HAS A y ITZ WHATEVAR\n"
        "  SMALLR SUM OF SQUAR OF x AN SQUAR OF y AN 1.0, O RLY?\n"
        "  YA RLY,\n    hits R SUM OF hits AN 1\n"
        "  NO WAI,\n    miss R SUM OF miss AN x\n"
        "  OIC\n"
        "IM OUTTA YR l\n"
        'VISIBLE hits " " miss " " IT " " WHATEVAR'
    ),
    "draw_loop_scatter": lol(
        "I HAS A h ITZ LOTZ A NUMBRS AN THAR IZ 5\n"
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 100\n"
        "  I HAS A b ITZ A NUMBR AN ITZ MAEK PRODUKT OF WHATEVAR AN 5 A NUMBR\n"
        "  h'Z b R SUM OF h'Z b AN 1\n"
        "IM OUTTA YR l\n"
        "VISIBLE h'Z 0 \" \" h'Z 1 \" \" h'Z 2 \" \" h'Z 3 \" \" h'Z 4 "
        "\" \" WHATEVR"
    ),
    "draw_loop_whatevr": lol(
        "I HAS A big ITZ 0\n"
        "I HAS A last ITZ 0\n"
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 60\n"
        "  I HAS A r ITZ WHATEVR\n"
        "  BIGGER r AN 1073741823, O RLY?\n"
        "  YA RLY,\n    big R SUM OF big AN 1\n    last R r\n"
        "  OIC\n"
        "IM OUTTA YR l\n"
        'VISIBLE big " " last " " IT " " WHATEVR'
    ),
    # A WE HAS A without initializer leaves a YARN's value alone.
    "symmetric_yarn_redeclared": lol(
        'WE HAS A s ITZ SRSLY A YARN\ns R "x"\n'
        "WE HAS A s ITZ SRSLY A YARN\nVISIBLE s"
    ),
    "symmetric_yarn_in_loop": lol(
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\n"
        "  WE HAS A t ITZ SRSLY A YARN\n"
        '  VISIBLE SMOOSH "[" AN t AN "]" MKAY\n'
        '  t R SMOOSH t AN "y" MKAY\n'
        "IM OUTTA YR l"
    ),
    "fuzz_seed_d051eb58c8fb": (
        pathlib.Path(__file__).parent / "golden" / "fuzz" / "seed_d051eb58c8fb.lol"
    ).read_text(),
}


@pytest.mark.requires_cc
@pytest.mark.parametrize("seed", [None, 0, -5, 2**62, -(2**63)])
@pytest.mark.parametrize("case", sorted(C_AST_CASES))
def test_c_matches_ast(case, seed):
    src = C_AST_CASES[case]
    want = run_engine(src, 2, "ast", seed=seed)
    assert want.kind == "ok", want
    assert run_engine(src, 2, "c", seed=seed).comparable() == want.comparable()


_DRAW_CASES = sorted(k for k, src in C_AST_CASES.items() if "WHATEV" in src)


@pytest.mark.parametrize("seed", [None, 0, -5, 2**62, -(2**63)])
@pytest.mark.parametrize("case", _DRAW_CASES)
def test_vm_matches_ast_on_draw_cases(case, seed, vm_machines):
    src = C_AST_CASES[case]
    want = run_engine(src, 2, "ast", seed=seed)
    assert want.kind == "ok", want
    vm_machines.clear()
    assert run_engine(src, 2, "vm", seed=seed).comparable() == want.comparable()
    if case.startswith("draw_loop_"):
        assert len(vm_machines) == 2
        assert all(m.vec_runs >= 1 for m in vm_machines)


@pytest.mark.requires_cc
class TestLolccDriver:
    def test_dump_c(self, tmp_path):
        from repro.cli import lolcc_main

        src_file = tmp_path / "p.lol"
        src_file.write_text(lol("VISIBLE 1"))
        out_file = tmp_path / "p.c"
        assert lolcc_main([str(src_file), "-o", str(out_file)]) == 0
        text = out_file.read_text()
        assert "int main(void)" in text
        assert "LOL_SHMEM_SHIM" in text  # shim hook documented in output

    def test_build_standalone_binary_runs_serially(self, tmp_path):
        from repro.cli import lolcc_main

        src_file = tmp_path / "p.lol"
        src_file.write_text(lol('VISIBLE "STANDALONE WINZ"'))
        exe = tmp_path / "p"
        assert lolcc_main(["--build", str(src_file), "-o", str(exe)]) == 0
        assert os.access(exe, os.X_OK)
        # No environment at all: the shim's standalone single-PE mode.
        proc = subprocess.run(
            [str(exe)], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout == "STANDALONE WINZ\n"

    def test_lolrun_engine_c(self, tmp_path, capsys):
        from repro.cli import lolrun_main

        src_file = tmp_path / "p.lol"
        src_file.write_text(lol("VISIBLE SUM OF ME AN 1"))
        assert lolrun_main([str(src_file), "-np", "2", "--engine", "c"]) == 0
        assert capsys.readouterr().out == "1\n2\n"


# ---------------------------------------------------------------------------
# Warm fork-server sets: every job runs inside a parked PE, from its pristine
# state.
# ---------------------------------------------------------------------------


def _fork_servers() -> set[int]:
    """Pids of this process's children that were started as fork servers
    (the variable stays in a process's initial environment block)."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            if ppid != os.getpid():
                continue
            with open(f"/proc/{entry}/environ", "rb") as fh:
                if b"LOL_SHMEM_FORKSERVER=1" in fh.read():
                    found.add(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return found


def _unique(body: str) -> str:
    """A program no earlier run has built (the token reaches the C),
    so its first run spawns a set."""
    return lol(f'I HAS A uniq ITZ "{os.urandom(6).hex()}"\n{body}')


@pytest.mark.requires_cc
class TestWarmForkServers:
    @pytest.fixture(autouse=True)
    def _fresh_sets(self):
        native.shutdown_native_workers()
        yield
        native.shutdown_native_workers()

    def test_every_job_starts_from_a_pristine_image(self):
        # A job loop inside one process would carry the symmetric
        # counter and the file-scope variable over from the previous job.
        src = _unique(
            "WE HAS A kount ITZ SRSLY A NUMBR\n"
            "I HAS A tally ITZ A NUMBR\n"
            "kount R SUM OF kount AN 1\n"
            "tally R SUM OF tally AN 1\n"
            "HUGZ\n"
            "I HAS A nekst ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "I HAS A got ITZ A NUMBR\n"
            "TXT MAH BFF nekst, got R UR kount\n"
            'VISIBLE kount " " tally " " got'
        )
        binary = native.build_native(src, n_pes=2)
        before = native.native_stats()
        for _ in range(5):
            result = native.run_native(binary, 2)
            assert result.outputs == ["1 1 1\n", "1 1 1\n"]
        after = native.native_stats()
        assert after["spawns"] - before["spawns"] == 1
        assert after["warm_hits"] - before["warm_hits"] == 4

    def test_stdin_and_seed_are_per_job(self, monkeypatch):
        # An unseeded job must not pick up a LOL_SEED from the driver's
        # environment, which the parked servers inherited.
        monkeypatch.setenv("LOL_SEED", "3")
        src = _unique(
            "I HAS A x\nGIMMEH x\nI HAS A r ITZ WHATEVR\n"
            'VISIBLE x " " r'
        )
        binary = native.build_native(src, n_pes=2)

        def run(seed, words):
            result = native.run_native(
                binary, 2, seed=seed, stdin_lines=[[w] for w in words]
            )
            return [line.split() for line in result.outputs]

        first = run(3, ["a", "b"])
        second = run(5, ["c", "d"])
        unseeded = run(None, ["e", "f"])
        assert [w for w, _ in first] == ["a", "b"]
        assert [w for w, _ in second] == ["c", "d"]
        assert [w for w, _ in unseeded] == ["e", "f"]
        def draws(rows):
            return [r for _, r in rows]

        assert draws(first) != draws(second)
        assert draws(unseeded) != draws(first)
        # The same seeds on a freshly spawned set draw the same numbers:
        # no seed leaks from one job into the next.
        native.shutdown_native_workers()
        assert run(5, ["c", "d"]) == second
        assert run(None, ["e", "f"]) == unseeded
        assert run(3, ["a", "b"]) == first

    def test_failed_job_leaves_the_set_usable(self):
        # PE 0 aims at a PE that does not exist: the shim kills it and
        # trips the world's abort flag.  The next job on the same set must
        # not inherit that flag.
        src = _unique(
            "WE HAS A slot ITZ SRSLY A NUMBR\n"
            "slot R SUM OF ME AN 10\n"
            "HUGZ\n"
            "I HAS A who\nGIMMEH who\n"
            "I HAS A got ITZ A NUMBR\n"
            "TXT MAH BFF MAEK who A NUMBR, got R UR slot\n"
            "HUGZ\n"
            "VISIBLE got"
        )
        binary = native.build_native(src, n_pes=2)
        with pytest.raises(
            LolParallelError, match="native PE 0 exited with status 3"
        ):
            native.run_native(binary, 2, stdin_lines=[["9"], ["0"]])
        result = native.run_native(binary, 2, stdin_lines=[["1"], ["0"]])
        assert result.outputs == ["11\n", "10\n"]

    def test_signal_death_reports_minus_the_signal(self):
        src = _unique(
            "I HAS A d\nGIMMEH d\n"
            "VISIBLE QUOSHUNT OF 7 AN MAEK d A NUMBR"
        )
        binary = native.build_native(src, n_pes=1)
        with pytest.raises(LolParallelError, match="status -8"):
            native.run_native(binary, 1, stdin_lines=[["0"]])
        assert native.run_native(binary, 1, stdin_lines=[["7"]]).outputs == [
            "1\n"
        ]

    def test_diverged_barrier_then_a_passing_run(self):
        # PE 0 takes one extra HUGZ: the shim's barrier deadline fires and
        # leaves a stale barrier count and abort flag in the world file.
        src = _unique(
            "I HAS A extra\nGIMMEH extra\n"
            "BOTH SAEM extra AN \"1\"\n"
            "O RLY?\n"
            "  YA RLY, HUGZ\n"
            "OIC\n"
            "HUGZ\n"
            "VISIBLE ME"
        )
        binary = native.build_native(src, n_pes=2)
        with pytest.raises(LolParallelError, match="native PE"):
            native.run_native(
                binary, 2, stdin_lines=[["1"], ["0"]], barrier_timeout=1
            )
        result = native.run_native(binary, 2, stdin_lines=[["0"], ["0"]])
        assert result.outputs == ["0\n", "1\n"]

    def test_concurrent_jobs_on_one_binary(self):
        src = _unique('I HAS A x\nGIMMEH x\nVISIBLE x " " ME')
        binary = native.build_native(src, n_pes=2)
        errors: list = []
        start = threading.Barrier(4)

        def caller(tag: int) -> None:
            try:
                start.wait(timeout=30)
                for job in range(5):
                    word = f"t{tag}j{job}"
                    result = native.run_native(
                        binary, 2, stdin_lines=[[word], [word]]
                    )
                    assert result.outputs == [f"{word} 0\n", f"{word} 1\n"]
            except BaseException as exc:  # reported below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
    def test_forked_child_runs_on_its_own_set(self):
        # The child inherits the parent's parked set and a spawner thread
        # that does not exist in it: it must start its own set, and leave
        # the parent's usable.
        src = _unique("VISIBLE SUM OF ME AN 5")
        binary = native.build_native(src, n_pes=2)
        assert native.run_native(binary, 2).outputs == ["5\n", "6\n"]
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            code = 1
            try:
                result = native.run_native(binary, 2, barrier_timeout=5)
                native.shutdown_native_workers()
                code = 0 if result.outputs == ["5\n", "6\n"] else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
        before = native.native_stats()
        assert native.run_native(binary, 2).outputs == ["5\n", "6\n"]
        assert native.native_stats()["warm_hits"] == before["warm_hits"] + 1

    def test_shutdown_leaves_no_fork_server(self):
        src = _unique("VISIBLE ME")
        for n_pes in (1, 2, 3):
            native.run_native(native.build_native(src, n_pes=n_pes), n_pes)
        servers = _fork_servers()
        assert len(servers) >= 6
        native.shutdown_native_workers()
        assert _fork_servers() == set()
        for pid in servers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def _vm_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError(f"no VmRSS for pid {pid}")


_SOAK = (
    "I HAS A name\nGIMMEH name\n"
    'I HAS A line ITZ ""\n'
    "IM IN YR grow UPPIN YR i TIL BOTH SAEM i AN 300\n"
    '  line R SMOOSH line AN i AN " " MKAY\n'
    "IM OUTTA YR grow\n"
    "I HAS A r ITZ WHATEVR\n"
    "I HAS A f ITZ QUOSHUNT OF MAEK r A NUMBAR AN 7.0\n"
    'VISIBLE name " " ME " " r " " f " " WHATEVAR\n'
    "VISIBLE line"
)


@pytest.mark.requires_cc
class TestJobLoop:
    """The parked PE runs every job itself, from a restored state."""

    @pytest.fixture(autouse=True)
    def _fresh_sets(self):
        native.shutdown_native_workers()
        yield
        native.shutdown_native_workers()

    def test_soak_outputs_and_memory_stay_flat(self):
        # Each job formats ~300 numbers into a YARN that it concatenates
        # ~300 times (some 0.5 MB of runtime strings per job): without the
        # per-job arena reset a server's RSS would climb by ~100 MB over
        # the run; without the state restore the outputs would drift.
        src = _unique(_SOAK)
        binary = native.build_native(src, n_pes=2)
        stdin = [["alpha"], ["beta"]]
        first = native.run_native(binary, 2, seed=11, stdin_lines=stdin)
        assert first.outputs[0].startswith("alpha 0 ")
        assert first.outputs[1].startswith("beta 1 ")
        before = native.native_stats()
        (servers,) = [s for _, s in native._WARM._idle]
        pids = [proc.pid for proc in servers.procs]
        rss_at_50: list[int] = []
        for job in range(2, 301):
            result = native.run_native(binary, 2, seed=11, stdin_lines=stdin)
            assert result.outputs == first.outputs, f"job {job} diverged"
            if job == 50:
                rss_at_50 = [_vm_rss_kb(pid) for pid in pids]
        grown = [_vm_rss_kb(pid) - kb for pid, kb in zip(pids, rss_at_50)]
        assert max(grown) < 1024, f"servers' VmRSS grew by {grown} kB"
        after = native.native_stats()
        assert after["spawns"] == before["spawns"]
        assert after["warm_hits"] - before["warm_hits"] == 299

    def test_signal_death_is_blamed_and_does_not_stall_siblings(self):
        # PE 1 divides by zero before a HUGZ that PE 0 already waits at:
        # PE 1 reports its own death, trips the abort flag and wakes PE 0,
        # so the job fails at once (not at the 120 s barrier deadline)
        # and the message names PE 1's signal, not PE 0's casualty.
        src = _unique(
            "I HAS A d ITZ DIFF OF ME AN 1\n"
            "BOTH SAEM ME AN 1, O RLY?\n"
            "  YA RLY, VISIBLE QUOSHUNT OF 7 AN d\n"
            "OIC\n"
            "HUGZ\n"
            "VISIBLE ME"
        )
        binary = native.build_native(src, n_pes=2)
        t0 = time.monotonic()
        with pytest.raises(LolParallelError) as excinfo:
            native.run_native(binary, 2)
        assert time.monotonic() - t0 < 5
        message = str(excinfo.value)
        assert message.startswith("native PE 1 exited with status -8")
        assert "1 more PE(s) also failed" in message

    def test_stdin_buffer_and_eof_do_not_carry_over(self):
        # stdio buffers stdin: a job that leaves a line unread, or that
        # reads past the end, must not hand either to the next job.
        src = _unique('I HAS A x\nGIMMEH x\nVISIBLE "[" x "]"')
        binary = native.build_native(src, n_pes=1)

        def run(lines):
            return native.run_native(binary, 1, stdin_lines=[lines]).outputs

        assert run(["one", "unread"]) == ["[one]\n"]
        assert run(["two"]) == ["[two]\n"]
        assert native.run_native(binary, 1).outputs == ["[]\n"]
        assert run(["three"]) == ["[three]\n"]

    def test_binary_damaged_after_its_memo_entry_is_never_execd(self):
        # A memo hit no longer hashes the binary; the check before each
        # set spawn does.  Damage on disk found there evicts the binary,
        # and run_lolcode rebuilds it once.
        src = _unique("VISIBLE SUM OF ME AN 40")
        assert run_lolcode(src, 2, engine="c").outputs == ["40\n", "41\n"]
        binary = native.build_native(src, n_pes=2)
        native.shutdown_native_workers()
        native._apply_cache_fault(binary, "corrupt")
        before = native.native_stats()
        assert run_lolcode(src, 2, engine="c").outputs == ["40\n", "41\n"]
        after = native.native_stats()
        assert after["corrupt_rebuilds"] == before["corrupt_rebuilds"] + 1
        assert after["builds"] == before["builds"] + 1
