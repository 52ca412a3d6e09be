"""Tests for the barrier-epoch race detector (Figure 2's teaching point)."""

import pytest

from repro import run_lolcode
from repro.lang.types import LolType
from repro.shmem import RaceDetector, ShmemContext, SymmetricPlan, run_spmd

from .conftest import lol


class TestDetectorUnit:
    def test_write_write_same_epoch_races(self):
        det = RaceDetector()
        det.on_access("b", 0, 1, "write", epoch=5)
        det.on_access("b", 0, 2, "write", epoch=5)
        assert len(det.reports) == 1
        assert det.reports[0].symbol == "b"

    def test_read_read_no_race(self):
        det = RaceDetector()
        det.on_access("b", 0, 1, "read", epoch=5)
        det.on_access("b", 0, 2, "read", epoch=5)
        assert det.reports == []

    def test_write_read_races(self):
        det = RaceDetector()
        det.on_access("b", 0, 1, "write", epoch=5)
        det.on_access("b", 0, 0, "read", epoch=5)
        assert len(det.reports) == 1

    def test_different_epochs_no_race(self):
        det = RaceDetector()
        det.on_access("b", 0, 1, "write", epoch=5)
        det.on_access("b", 0, 0, "read", epoch=6)
        assert det.reports == []

    def test_same_pe_no_race(self):
        det = RaceDetector()
        det.on_access("b", 0, 1, "write", epoch=5)
        det.on_access("b", 0, 1, "read", epoch=5)
        assert det.reports == []

    def test_both_locked_no_race(self):
        det = RaceDetector()
        det.on_access("x", 0, 1, "write", epoch=5, locked=True)
        det.on_access("x", 0, 2, "write", epoch=5, locked=True)
        assert det.reports == []

    def test_one_locked_still_races(self):
        det = RaceDetector()
        det.on_access("x", 0, 1, "write", epoch=5, locked=True)
        det.on_access("x", 0, 2, "write", epoch=5, locked=False)
        assert len(det.reports) == 1

    def test_duplicate_reports_suppressed(self):
        det = RaceDetector()
        det.on_access("b", 0, 1, "write", epoch=5)
        det.on_access("b", 0, 2, "write", epoch=5)
        det.on_access("b", 0, 2, "write", epoch=5)
        assert len(det.reports) == 1

    def test_element_granularity(self):
        det = RaceDetector(element_granularity=True)
        det.on_access("a", 0, 1, "write", epoch=1, element=0)
        det.on_access("a", 0, 2, "write", epoch=1, element=1)
        assert det.reports == []  # disjoint elements
        det.on_access("a", 0, 3, "write", epoch=1, element=0)
        assert len(det.reports) == 1

    def test_describe_mentions_hugz(self):
        det = RaceDetector()
        det.on_access("b", 0, 1, "write", epoch=5)
        det.on_access("b", 0, 0, "read", epoch=5)
        assert "HUGZ" in det.reports[0].describe()

    def test_clear(self):
        det = RaceDetector()
        det.on_access("b", 0, 1, "write", epoch=5)
        det.on_access("b", 0, 2, "write", epoch=5)
        det.clear()
        assert det.reports == []


class TestFigure2Program:
    """The exact Figure 2 scenario: remote put of b, local read of b."""

    RACY = (
        "WE HAS A a ITZ SRSLY A NUMBR\n"
        "WE HAS A b ITZ SRSLY A NUMBR\n"
        "a R SUM OF ME AN 1\nHUGZ\n"
        "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
        "TXT MAH BFF k, UR b R MAH a\n"
        "{barrier}"
        "I HAS A c ITZ SUM OF a AN b\n"
        "VISIBLE c"
    )

    def test_without_hugz_detector_fires(self):
        r = run_lolcode(
            lol(self.RACY.format(barrier="")), 4, race_detection=True, seed=1
        )
        assert any(rep.symbol == "b" for rep in r.races)

    def test_with_hugz_no_race(self):
        r = run_lolcode(
            lol(self.RACY.format(barrier="HUGZ\n")),
            4,
            race_detection=True,
            seed=1,
        )
        assert r.races == []

    def test_with_hugz_deterministic_result(self):
        src = lol(self.RACY.format(barrier="HUGZ\n"))
        outs = {run_lolcode(src, 4, seed=s).output for s in range(3)}
        assert len(outs) == 1

    def test_locked_increment_no_race(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "HUGZ\n"
            "IM SRSLY MESIN WIF x\n"
            "TXT MAH BFF 0, UR x R SUM OF UR x AN 1\n"
            "DUN MESIN WIF x\n"
        )
        r = run_lolcode(lol(body), 4, race_detection=True, seed=1)
        assert r.races == []

    def test_unlocked_increment_races(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "HUGZ\n"
            "TXT MAH BFF 0, UR x R SUM OF UR x AN 1\n"
        )
        r = run_lolcode(lol(body), 4, race_detection=True, seed=1)
        assert any(rep.symbol == "x" for rep in r.races)


def _b_plan() -> SymmetricPlan:
    plan = SymmetricPlan()
    plan.add("b", LolType.NUMBR, False, 1, False)
    return plan


class TestPythonApiRaces:
    def test_put_vs_local_read(self):
        def main(ctx: ShmemContext):
            ctx.barrier_all()
            nxt = (ctx.my_pe + 1) % ctx.n_pes
            ctx.put("b", 1, nxt)
            ctx.local_read("b")  # racy: no barrier between put and read

        r = run_spmd(main, 2, plan=_b_plan(), race_detection=True)
        assert len(r.races) >= 1

    def test_barrier_separated_clean(self):
        def main(ctx: ShmemContext):
            ctx.barrier_all()
            nxt = (ctx.my_pe + 1) % ctx.n_pes
            ctx.put("b", 1, nxt)
            ctx.barrier_all()
            ctx.local_read("b")

        r = run_spmd(main, 2, plan=_b_plan(), race_detection=True)
        assert r.races == []
