"""Interpreter tests for the parallel/distributed extensions (Table II)."""

import random

import pytest

from repro import run_lolcode
from repro.lang.errors import LolParallelError
from repro.lang.types import format_yarn
from repro.shmem import ShmemContext

from .conftest import lol, runp


class TestEnumeration:
    def test_me_and_mah_frenz(self):
        r = runp('VISIBLE ME "/" MAH FRENZ', 4)
        assert r.outputs == ["0/4\n", "1/4\n", "2/4\n", "3/4\n"]

    def test_serial_context_identity(self):
        r = runp('VISIBLE ME "/" MAH FRENZ', 1)
        assert r.output == "0/1\n"


class TestSymmetricVariables:
    def test_partitions_are_distinct(self):
        # Each PE writes ME into its copy; no cross-talk without TXT.
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "x R ME\nHUGZ\nVISIBLE x"
        )
        r = runp(body, 4)
        assert r.outputs == ["0\n", "1\n", "2\n", "3\n"]

    def test_untyped_symmetric_rejected(self):
        with pytest.raises(LolParallelError):
            runp("WE HAS A x\nVISIBLE 1", 2)

    def test_remote_get(self):
        # Every PE reads PE 0's x.
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "x R PRODUKT OF ME AN 10\nHUGZ\n"
            "I HAS A y ITZ A NUMBR\n"
            "TXT MAH BFF 0, y R UR x\n"
            "VISIBLE y"
        )
        r = runp(body, 3)
        assert r.outputs == ["0\n", "0\n", "0\n"]

    def test_remote_put(self):
        # PE 0 writes 99 into everyone's x.
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "BOTH SAEM ME AN 0, O RLY?\n"
            "YA RLY,\n"
            "  IM IN YR l UPPIN YR k TIL BOTH SAEM k AN MAH FRENZ\n"
            "    TXT MAH BFF k, UR x R 99\n"
            "  IM OUTTA YR l\n"
            "OIC\n"
            "HUGZ\nVISIBLE x"
        )
        r = runp(body, 3)
        assert r.outputs == ["99\n", "99\n", "99\n"]

    def test_symmetric_init_is_local(self):
        body = "WE HAS A x ITZ SRSLY A NUMBR AN ITZ ME\nHUGZ\nVISIBLE x"
        r = runp(body, 3)
        assert r.outputs == ["0\n", "1\n", "2\n"]


class TestPredication:
    def test_single_statement_form(self):
        body = (
            "WE HAS A a ITZ SRSLY A NUMBR\n"
            "WE HAS A b ITZ SRSLY A NUMBR\n"
            "a R ME\nHUGZ\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF k, UR b R MAH a\n"
            "HUGZ\nVISIBLE b"
        )
        # PE i writes its a (=i) into b of PE i+1.
        r = runp(body, 4)
        assert r.outputs == ["3\n", "0\n", "1\n", "2\n"]

    def test_block_form(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "WE HAS A y ITZ SRSLY A NUMBR\n"
            "BOTH SAEM ME AN 0, O RLY?\n"
            "YA RLY,\n"
            "  TXT MAH BFF 1 AN STUFF\n"
            "    UR x R 5\n"
            "    UR y R 6\n"
            "  TTYL\n"
            "OIC\n"
            "HUGZ\nVISIBLE x " " y"
        )
        r = runp(body, 2)
        assert r.outputs[1] == "56\n"
        assert r.outputs[0] == "00\n"

    def test_paper_sum_of_two_remotes(self):
        # Section V: TXT MAH BFF k, MAH x R SUM OF UR y AN UR z
        body = (
            "WE HAS A y ITZ SRSLY A NUMBR\n"
            "WE HAS A z ITZ SRSLY A NUMBR\n"
            "I HAS A x ITZ A NUMBR\n"
            "y R PRODUKT OF ME AN 10\n"
            "z R ME\nHUGZ\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF k, MAH x R SUM OF UR y AN UR z\n"
            "VISIBLE x"
        )
        r = runp(body, 3)
        # PE i reads PE (i+1): 10*(i+1) + (i+1)
        assert r.outputs == ["11\n", "22\n", "0\n"]

    def test_ur_outside_txt_rejected(self):
        body = "WE HAS A x ITZ SRSLY A NUMBR\nVISIBLE UR x"
        with pytest.raises(LolParallelError):
            runp(body, 2)

    def test_target_pe_out_of_range(self):
        body = "WE HAS A x ITZ SRSLY A NUMBR\nTXT MAH BFF 99, VISIBLE UR x"
        with pytest.raises(LolParallelError):
            runp(body, 2)

    def test_ur_on_non_symmetric_rejected(self):
        body = "I HAS A x ITZ 1\nTXT MAH BFF 0, VISIBLE UR x"
        with pytest.raises(LolParallelError):
            runp(body, 2)

    def test_mah_explicitly_local(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "x R ME\nHUGZ\n"
            "TXT MAH BFF 0, VISIBLE MAH x"
        )
        r = runp(body, 3)
        assert r.outputs == ["0\n", "1\n", "2\n"]

    def test_nested_predication_inner_wins(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "x R ME\nHUGZ\n"
            "BOTH SAEM ME AN 0, O RLY?\n"
            "YA RLY,\n"
            "  TXT MAH BFF 1 AN STUFF\n"
            "    TXT MAH BFF 2, VISIBLE UR x\n"
            "    VISIBLE UR x\n"
            "  TTYL\n"
            "OIC"
        )
        r = runp(body, 3)
        assert r.outputs[0] == "2\n1\n"


class TestSymmetricArrays:
    def test_whole_array_copy(self):
        # Section VI.A: MAH array R UR array
        body = (
            "WE HAS A array ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4\n"
            "  array'Z i R SUM OF PRODUKT OF ME AN 100 AN i\n"
            "IM OUTTA YR l\n"
            "HUGZ\n"
            "I HAS A local ITZ LOTZ A NUMBRS AN THAR IZ 4\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF k, MAH local R UR array\n"
            "VISIBLE local'Z 0 " " local'Z 3"
        )
        r = runp(body, 3)
        assert r.outputs == ["100103\n", "200203\n", "03\n"]

    def test_remote_element_rw(self):
        body = (
            "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
            "BOTH SAEM ME AN 1, O RLY?\n"
            "YA RLY,\n  TXT MAH BFF 0, UR a'Z 2 R 42\n"
            "OIC\n"
            "HUGZ\nVISIBLE a'Z 2"
        )
        r = runp(body, 2)
        assert r.outputs == ["42\n", "0\n"]

    def test_symmetric_to_symmetric_copy(self):
        body = (
            "WE HAS A src ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 2\n"
            "WE HAS A dst ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 2\n"
            "src'Z 0 R ME\nsrc'Z 1 R PRODUKT OF ME AN 2\nHUGZ\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF k, MAH dst R UR src\n"
            "HUGZ\nVISIBLE dst'Z 0 " " dst'Z 1"
        )
        r = runp(body, 2)
        assert r.outputs == ["12\n", "00\n"]


class TestBarrier:
    def test_hugz_orders_puts(self):
        # Figure 2 pattern: without the barrier this would be racy; with
        # it the sum is deterministic.
        body = (
            "WE HAS A a ITZ SRSLY A NUMBR\n"
            "WE HAS A b ITZ SRSLY A NUMBR\n"
            "a R SUM OF ME AN 1\nHUGZ\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF k, UR b R MAH a\n"
            "HUGZ\n"
            "I HAS A c ITZ SUM OF a AN b\n"
            "VISIBLE c"
        )
        r = runp(body, 4)
        # PE i: a=i+1, b=(i-1 mod 4)+1
        assert r.outputs == ["5\n", "3\n", "5\n", "7\n"]

    def test_barrier_count_in_trace(self):
        r = runp("HUGZ\nHUGZ\nHUGZ", 3, trace=True)
        from repro.shmem import OpKind

        assert r.trace.total(OpKind.BARRIER) == 9


class TestLocks:
    def test_contended_remote_increment(self):
        # Every PE increments PE 0's x under the implied lock N times.
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "HUGZ\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 25\n"
            "  IM SRSLY MESIN WIF x\n"
            "  TXT MAH BFF 0, UR x R SUM OF UR x AN 1\n"
            "  DUN MESIN WIF x\n"
            "IM OUTTA YR l\n"
            "HUGZ\nVISIBLE x"
        )
        r = runp(body, 4)
        assert r.outputs[0] == "100\n"

    def test_trylock_sets_it(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "IM MESIN WIF x\n"
            "VISIBLE IT\n"
            "DUN MESIN WIF x"
        )
        r = runp(body, 1)
        assert r.output == "WIN\n"

    def test_trylock_o_rly_pattern(self):
        # Table II: IM MESIN WIF [var], O RLY? / YA RLY, [code] / OIC
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "IM MESIN WIF x, O RLY?\n"
            "  YA RLY,\n"
            '    VISIBLE "got it"\n'
            "    DUN MESIN WIF x\n"
            "OIC"
        )
        r = runp(body, 1)
        assert r.output == "got it\n"

    def test_unlock_without_hold_rejected(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "DUN MESIN WIF x"
        )
        with pytest.raises(LolParallelError):
            runp(body, 1)

    def test_lock_unshared_variable_rejected(self):
        body = "I HAS A x ITZ 1\nIM SRSLY MESIN WIF x"
        with pytest.raises(LolParallelError):
            runp(body, 1)

    def test_lock_without_sharin_rejected(self):
        body = "WE HAS A x ITZ SRSLY A NUMBR\nIM SRSLY MESIN WIF x"
        with pytest.raises(LolParallelError):
            runp(body, 1)

    def test_reentrant_lock_rejected(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "IM SRSLY MESIN WIF x\nIM SRSLY MESIN WIF x"
        )
        with pytest.raises(LolParallelError):
            runp(body, 1)

    def test_lock_with_ur_qualifier(self):
        # Section VI.B writes IM MESIN WIF UR x inside a TXT block; the
        # lock is global so this is the same lock.
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "TXT MAH BFF 0 AN STUFF\n"
            "  IM SRSLY MESIN WIF UR x\n"
            "  UR x R SUM OF UR x AN 1\n"
            "  DUN MESIN WIF UR x\n"
            "TTYL\n"
            "HUGZ\nVISIBLE x"
        )
        r = runp(body, 2)
        assert r.outputs[0] == "2\n"


class TestErrorHandling:
    def test_pe_failure_reported_with_pe_id(self):
        body = (
            "BOTH SAEM ME AN 1, O RLY?\n"
            "YA RLY,\n  VISIBLE QUOSHUNT OF 1 AN 0\nOIC\nHUGZ"
        )
        with pytest.raises(LolParallelError, match="PE 1"):
            runp(body, 3, barrier_timeout=10)

    def test_mismatched_barriers_fail_fast(self):
        body = (
            "BOTH SAEM ME AN 0, O RLY?\n"
            "YA RLY,\n  HUGZ\nOIC"
        )
        with pytest.raises(Exception):
            runp(body, 2, barrier_timeout=2)


class TestDeterminism:
    def test_seeded_random_reproducible(self):
        body = "VISIBLE WHATEVR\nVISIBLE WHATEVAR"
        r1 = run_lolcode(lol(body), 3, seed=123)
        r2 = run_lolcode(lol(body), 3, seed=123)
        assert r1.outputs == r2.outputs

    def test_different_pes_different_streams(self):
        body = "VISIBLE WHATEVR"
        r = run_lolcode(lol(body), 4, seed=123)
        assert len(set(r.outputs)) == 4

    @pytest.mark.parametrize("engine", ["vm", "ast"])
    @pytest.mark.parametrize("seed, base", [(None, 0xC47), (0, 0), (123, 123)])
    def test_streams_pinned_per_pe(self, engine, seed, base):
        # seed=0 must stay 0, not fall back to the default (a ``seed or``
        # slip would silently change every seed=0 stream).
        body = (
            "VISIBLE WHATEVR\nVISIBLE WHATEVAR\n"
            "VISIBLE MAEK PRODUKT OF WHATEVAR AN 1000000000 A NUMBR"
        )
        r = run_lolcode(lol(body), 3, seed=seed, engine=engine)
        for pe, out in enumerate(r.outputs):
            rng = random.Random(base * 7919 + pe)
            draws = (
                rng.randrange(0, 2**31 - 1),
                format_yarn(rng.random()),
                int(rng.random() * 1000000000),
            )
            assert out == "".join(f"{d}\n" for d in draws)

    @pytest.mark.parametrize("engine", ["vm", "ast"])
    def test_rng_free_program_never_seeds(self, engine, monkeypatch):
        contexts = []
        init = ShmemContext.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            contexts.append(self)

        monkeypatch.setattr(ShmemContext, "__init__", spy)
        run_lolcode(lol("VISIBLE ME\nHUGZ"), 3, engine=engine)
        assert len(contexts) == 3
        assert all("rng" not in vars(ctx) for ctx in contexts)
