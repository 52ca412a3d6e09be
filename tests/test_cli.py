"""CLI tests for lcc / loli / lolrun (invoked in-process via their mains)."""

import pytest

from repro.cli import lcc_main, loli_main, lolrun_main


@pytest.fixture
def hello_lol(tmp_path):
    p = tmp_path / "hello.lol"
    p.write_text('HAI 1.2\nVISIBLE "HAI ITZ " ME " OF " MAH FRENZ\nKTHXBYE\n')
    return p


@pytest.fixture
def bad_lol(tmp_path):
    p = tmp_path / "bad.lol"
    p.write_text("HAI 1.2\nI HAS A\nKTHXBYE\n")
    return p


class TestLcc:
    def test_emit_c_default(self, hello_lol, tmp_path, capsys):
        out = tmp_path / "hello.c"
        assert lcc_main([str(hello_lol), "-o", str(out)]) == 0
        text = out.read_text()
        assert "shmem_init();" in text
        assert "int main(void)" in text

    def test_emit_c_to_stdout(self, hello_lol, capsys):
        assert lcc_main([str(hello_lol)]) == 0
        assert "shmem_my_pe()" in capsys.readouterr().out

    def test_syntax_error_exit_code(self, bad_lol, capsys):
        assert lcc_main([str(bad_lol)]) == 1
        err = capsys.readouterr().err
        assert "bad.lol:2" in err


class TestLoli:
    def test_serial_run(self, hello_lol, capsys):
        assert loli_main([str(hello_lol)]) == 0
        assert capsys.readouterr().out == "HAI ITZ 0 OF 1\n"

    def test_engine_vm_serial(self, hello_lol, capsys):
        assert loli_main([str(hello_lol), "--engine", "vm"]) == 0
        assert capsys.readouterr().out == "HAI ITZ 0 OF 1\n"

    def test_max_steps_guard(self, tmp_path, capsys):
        p = tmp_path / "spin.lol"
        p.write_text(
            "HAI 1.2\nIM IN YR l UPPIN YR i WILE WIN\nIM OUTTA YR l\nKTHXBYE\n"
        )
        assert loli_main([str(p), "--max-steps", "100"]) == 1
        assert "steps" in capsys.readouterr().err


class TestLolrun:
    def test_np_flag(self, hello_lol, capsys):
        assert lolrun_main(["-np", "3", str(hello_lol)]) == 0
        out = capsys.readouterr().out
        assert out == "HAI ITZ 0 OF 3\nHAI ITZ 1 OF 3\nHAI ITZ 2 OF 3\n"

    def test_engine_vm(self, hello_lol, capsys):
        assert lolrun_main(
            ["-np", "2", "--engine", "vm", str(hello_lol)]
        ) == 0
        captured = capsys.readouterr()
        assert "HAI ITZ 1 OF 2" in captured.out
        assert captured.err == ""

    def test_engine_c_reports_restrictions(self, tmp_path, capsys):
        # The C backend rejects SRS before any toolchain is needed.
        p = tmp_path / "srs.lol"
        p.write_text('HAI 1.2\nI HAS A x ITZ 1\nVISIBLE SRS "x"\nKTHXBYE\n')
        assert lolrun_main(["-np", "1", "--engine", "c", str(p)]) == 1
        assert "SRS" in capsys.readouterr().err

    def test_trace_flag(self, hello_lol, capsys):
        assert lolrun_main(["-np", "2", "--trace", str(hello_lol)]) == 0
        assert "[trace]" in capsys.readouterr().err

    def test_race_check_clean_program(self, hello_lol, capsys):
        assert lolrun_main(["-np", "2", "--race-check", str(hello_lol)]) == 0

    def test_race_check_racy_program_exit_2(self, tmp_path, capsys):
        p = tmp_path / "racy.lol"
        p.write_text(
            "HAI 1.2\n"
            "WE HAS A b ITZ SRSLY A NUMBR\n"
            "HUGZ\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF k, UR b R 1\n"
            "VISIBLE b\n"
            "KTHXBYE\n"
        )
        assert lolrun_main(["-np", "4", "--race-check", str(p)]) == 2
        assert "[race]" in capsys.readouterr().err

    def test_runtime_error_reported(self, tmp_path, capsys):
        p = tmp_path / "div0.lol"
        p.write_text("HAI 1.2\nVISIBLE QUOSHUNT OF 1 AN 0\nKTHXBYE\n")
        assert lolrun_main(["-np", "1", str(p)]) == 1
        assert "division by zero" in capsys.readouterr().err
