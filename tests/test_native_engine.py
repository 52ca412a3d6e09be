"""Tests for the native C engine (``engine="c"``): build cache, SPMD
launch over the bundled SHMEM shim, knob refusals, and the ``lolcc``
driver.

The execution tests are marked ``requires_cc`` and skip cleanly on
hosts without a C compiler; the refusal/validation tests run anywhere
(they are rejected by the launcher before any toolchain work).
"""

from __future__ import annotations

import os
import stat
import subprocess

import pytest

from repro import run_lolcode
from repro.compiler import CompileError, NativeToolchainError
from repro.compiler import native
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


def test_uses_random_predicate():
    assert native.uses_random(lol("I HAS A x ITZ WHATEVAR\nVISIBLE x"))
    assert not native.uses_random(lol("VISIBLE 1"))


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
