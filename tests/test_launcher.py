"""Tests for the SPMD launcher (repro.launcher.spmd)."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import run_file, run_lolcode
from repro.lang.errors import LolParallelError, LolSyntaxError

from .conftest import lol


class TestRunLolcode:
    def test_default_single_pe(self):
        assert run_lolcode(lol("VISIBLE MAH FRENZ")).output == "1\n"

    def test_unknown_executor(self):
        with pytest.raises(LolParallelError):
            run_lolcode(lol("VISIBLE 1"), 1, executor="gpu")

    def test_serial_executor_requires_one_pe(self):
        with pytest.raises(LolParallelError):
            run_lolcode(lol("VISIBLE 1"), 2, executor="serial")

    def test_syntax_error_raised_before_spawn(self):
        with pytest.raises(LolSyntaxError):
            run_lolcode("HAI 1.2\nI HAS A\nKTHXBYE\n", 4)

    def test_filename_in_errors(self):
        try:
            run_lolcode("HAI 1.2\nI HAS A\nKTHXBYE\n", 1, filename="prog.lol")
        except LolSyntaxError as exc:
            assert exc.pos.filename == "prog.lol"
        else:  # pragma: no cover
            pytest.fail("expected LolSyntaxError")

    def test_run_file(self, tmp_path):
        p = tmp_path / "t.lol"
        p.write_text(lol("VISIBLE ME"))
        r = run_file(str(p), n_pes=2)
        assert r.outputs == ["0\n", "1\n"]

    def test_max_steps_propagates(self):
        from repro.lang.errors import LolError

        spin = lol("IM IN YR l UPPIN YR i WILE WIN\nIM OUTTA YR l")
        # The engines that count steps natively must actually enforce
        # the limit (not merely raise *something*); the PE failure is
        # wrapped by the executor, so match on the limit message.
        for engine in ("vm", "ast"):
            with pytest.raises(LolError, match="statement steps"):
                run_lolcode(spin, 1, max_steps=100, engine=engine)

    def test_non_integral_literal_array_size_rejected(self):
        # 2.9 must not silently allocate 2 elements (the old int() path):
        # the process planner rejects at plan time, and the runtime
        # allocation paths of every engine reject identically on the
        # thread executor (no run-vs-error divergence across executors).
        from repro.lang.errors import LolError

        src = lol("WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 2.9")
        with pytest.raises(LolParallelError, match="integer"):
            run_lolcode(src, 2, executor="process")
        for engine in ("ast", "vm"):
            with pytest.raises(LolError, match="integer"):
                run_lolcode(src, 2, executor="thread", engine=engine)

    def test_non_integral_folded_array_size_rejected(self):
        # A BinOp fold landing on a non-integer (5.0 / 2 = 2.5) is just
        # as wrong as a literal 2.9.
        from repro.lang.errors import LolError

        src = lol(
            "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ "
            "QUOSHUNT OF 5.0 AN 2"
        )
        with pytest.raises(LolParallelError, match="integer"):
            run_lolcode(src, 2, executor="process")
        with pytest.raises(LolError, match="integer"):
            run_lolcode(src, 2, executor="thread")

    def test_non_integral_local_array_size_rejected_all_engines(self):
        # I HAS A (non-symmetric) arrays go through the same shared
        # to_array_size guard in both interpreter engines.
        from repro.lang.errors import LolError

        src = lol("I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 2.9")
        for engine in ("ast", "vm"):
            with pytest.raises(LolError, match="integer"):
                run_lolcode(src, 1, engine=engine)

    @pytest.mark.procs
    def test_integral_float_fold_still_allowed(self):
        # 2.5 * 2 folds to 5.0 — integral, so a legal size.
        from repro.lang.parser import parse
        from repro.launcher import const_eval

        src = lol(
            "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ "
            "PRODUKT OF 2.5 AN 2\n"
            "a'Z 4 R 7\nVISIBLE a'Z 4"
        )
        decl = parse(src).body[0]
        assert const_eval(decl.size, 2) == 5
        r = run_lolcode(src, 2, executor="process", barrier_timeout=60)
        assert r.outputs == ["7\n", "7\n"]

    def test_result_metadata(self):
        r = run_lolcode(
            lol("WE HAS A x ITZ SRSLY A NUMBR\nVISIBLE 1"), 2, seed=1
        )
        assert r.n_pes == 2
        assert r.heap_symbols == ["x"]
        assert len(r.outputs) == 2

    def test_trace_disabled_by_default(self):
        r = run_lolcode(lol("VISIBLE 1"), 2)
        assert r.trace is None

    def test_output_property_concatenates_in_pe_order(self):
        r = run_lolcode(lol("VISIBLE ME"), 3)
        assert r.output == "0\n1\n2\n"


#: Runs in a fresh interpreter: thread launches must not import the
#: process executor, which would load multiprocessing.
_LAZY_IMPORT_CHECK = """
import sys, repro
r = repro.run_lolcode("HAI 1.2\\nVISIBLE ME\\nKTHXBYE\\n", 4)
assert r.output == "0\\n1\\n2\\n3\\n", r.output
assert "multiprocessing" not in sys.modules
assert callable(repro.run_spmd_procs) and callable(repro.shmem.run_spmd_procs)
"""


def test_thread_launch_does_not_load_multiprocessing():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORT_CHECK],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
