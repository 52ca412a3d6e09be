"""Unit tests for the CFG + dataflow static analysis package."""

import pytest

from repro.analysis import (
    analyze_program,
    analyze_taint,
    build_cfg,
    summarize,
)
from repro.analysis.cfg import Branch, Exit, Goto
from repro.analysis.races import EpochState, RaceAnalysis, RaceChecker
from repro.lang.parser import parse


def codes(source, filename="<test>"):
    return [
        (d.code, d.pos.line)
        for d in analyze_program(parse(source, filename))
    ]


def just_codes(source):
    return [c for c, _line in codes(source)]


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


class TestCfgShape:
    def test_straight_line_two_blocks(self):
        prog = parse("HAI 1.2\nVISIBLE 1\nVISIBLE 2\nKTHXBYE\n")
        cfg = build_cfg(prog.body)
        assert cfg.entry == 0
        rpo = cfg.rpo()
        assert rpo[0] == cfg.entry
        assert rpo[-1] == cfg.exit
        # both statements land in the entry block
        entry = cfg.blocks[cfg.entry]
        assert len(entry.stmts) == 2
        assert isinstance(entry.term, Goto)
        assert isinstance(cfg.blocks[cfg.exit].term, Exit)

    def test_if_diamond(self):
        prog = parse(
            "HAI 1.2\n"
            "BOTH SAEM 1 AN 1\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    VISIBLE 1\n"
            "  NO WAI\n"
            "    VISIBLE 2\n"
            "OIC\n"
            "KTHXBYE\n"
        )
        cfg = build_cfg(prog.body)
        branches = [
            b for b in cfg.blocks if isinstance(b.term, Branch)
        ]
        assert len(branches) == 1
        on_true, on_false = branches[0].term.on_true, branches[0].term.on_false
        assert on_true != on_false
        # both arms rejoin: identical successor downstream
        t_succ = cfg.blocks[on_true].succs
        # the governing tuple marks arm blocks as control-dependent
        assert cfg.blocks[on_true].governing
        assert t_succ  # arms flow onward, not straight to exit

    def test_loop_back_edge_and_dominators(self):
        prog = parse(
            "HAI 1.2\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\n"
            "  VISIBLE i\n"
            "IM OUTTA YR l\n"
            "KTHXBYE\n"
        )
        cfg = build_cfg(prog.body)
        # a back edge exists: some block's successor precedes it in RPO
        rpo = cfg.rpo()
        pos = {b: i for i, b in enumerate(rpo)}
        back = [
            (b, s)
            for b in rpo
            for s in cfg.blocks[b].succs
            if pos[s] <= pos[b]
        ]
        assert back, "counted loop must produce a back edge"
        dom = cfg.dominators()
        # the entry dominates everything reachable
        for bid in rpo:
            assert cfg.entry in dom[bid]
        # the loop header dominates the body block (back-edge source)
        src, header = back[0]
        assert header in dom[src]

    def test_gtfo_breaks_to_loop_exit(self):
        prog = parse(
            "HAI 1.2\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 9\n"
            "  GTFO\n"
            "IM OUTTA YR l\n"
            "VISIBLE 1\n"
            "KTHXBYE\n"
        )
        cfg = build_cfg(prog.body)
        assert cfg.rpo()[-1] == cfg.exit  # still well-formed

    def test_txt_block_is_flattened_with_context(self):
        prog = parse(
            "HAI 1.2\n"
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "TXT MAH BFF 0, UR x R 1\n"
            "KTHXBYE\n"
        )
        cfg = build_cfg(prog.body)
        ctxs = [
            ctx
            for block in cfg.blocks
            for _stmt, ctx in block.stmts
            if ctx is not None
        ]
        assert ctxs, "TXT body statements must carry the PE context"


# ---------------------------------------------------------------------------
# PE-taint lattice
# ---------------------------------------------------------------------------


class TestTaint:
    def test_me_assignment_is_divergent_condition(self):
        prog = parse(
            "HAI 1.2\n"
            "I HAS A pe ITZ A NUMBR AN ITZ ME\n"
            "BOTH SAEM pe AN 0\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    VISIBLE 1\n"
            "OIC\n"
            "KTHXBYE\n"
        )
        taint = analyze_taint(prog, summarize(prog))
        import repro.lang.ast as ast

        ifs = [
            s
            for s in ast.walk_statements(prog.body)
            if isinstance(s, ast.If)
        ]
        assert len(ifs) == 1 and taint.is_divergent(ifs[0])

    def test_uniform_branch_stays_uniform(self):
        prog = parse(
            "HAI 1.2\n"
            "I HAS A n ITZ A NUMBR AN ITZ 4\n"
            "BOTH SAEM n AN 4\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    VISIBLE 1\n"
            "OIC\n"
            "KTHXBYE\n"
        )
        taint = analyze_taint(prog, summarize(prog))
        import repro.lang.ast as ast

        ifs = [
            s
            for s in ast.walk_statements(prog.body)
            if isinstance(s, ast.If)
        ]
        assert len(ifs) == 1 and not taint.is_divergent(ifs[0])

    def test_join_propagates_taint_from_either_path(self):
        # x picks up ME on one arm only; the branch on x afterwards is
        # still divergent (join = set union).
        prog = parse(
            "HAI 1.2\n"
            "I HAS A x ITZ A NUMBR AN ITZ 0\n"
            "I HAS A n ITZ A NUMBR AN ITZ 1\n"
            "BOTH SAEM n AN 1\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    x R ME\n"
            "OIC\n"
            "BOTH SAEM x AN 0\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    VISIBLE 1\n"
            "OIC\n"
            "KTHXBYE\n"
        )
        taint = analyze_taint(prog, summarize(prog))
        import repro.lang.ast as ast

        ifs = [
            s
            for s in ast.walk_statements(prog.body)
            if isinstance(s, ast.If)
        ]
        assert not taint.is_divergent(ifs[0])
        assert taint.is_divergent(ifs[1])

    def test_reassignment_to_uniform_clears_taint(self):
        prog = parse(
            "HAI 1.2\n"
            "I HAS A x ITZ A NUMBR AN ITZ ME\n"
            "x R 7\n"
            "BOTH SAEM x AN 7\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    VISIBLE 1\n"
            "OIC\n"
            "KTHXBYE\n"
        )
        taint = analyze_taint(prog, summarize(prog))
        import repro.lang.ast as ast

        ifs = [
            s
            for s in ast.walk_statements(prog.body)
            if isinstance(s, ast.If)
        ]
        assert not taint.is_divergent(ifs[0])


    # The outer loop's second trip taints ``c``, so the O RLY? on line 7
    # turns divergent only after its YA RLY arm was transferred.  The
    # arm's first block already held ``c`` and ``IT``, so no in-state
    # changes: only a requeue of the blocks the branch governs reaches
    # ``y R 5`` again, taints ``y`` and makes the last O RLY? divergent.
    LATE_DIVERGENCE = (
        "HAI 1.2\n"
        "I HAS A c ITZ 0\n"
        "I HAS A y ITZ 0\n"
        "I HAS A d ITZ 0\n"
        "IM IN YR lp UPPIN YR i TIL BOTH SAEM i AN 2\n"
        "  BOTH SAEM c AN 1\n"
        "  O RLY?\n"
        "    YA RLY\n"
        "      c R ME\n"
        "      ME\n"
        "      IM IN YR inner WILE BOTH SAEM d AN 0\n"
        "        GTFO\n"
        "      IM OUTTA YR inner\n"
        "      y R 5\n"
        "  OIC\n"
        "  c R ME\n"
        "IM OUTTA YR lp\n"
        "BOTH SAEM y AN 5\n"
        "O RLY?\n"
        "  YA RLY\n"
        "    HUGZ\n"
        "OIC\n"
        "HOW IZ I f YR n\n"
        "  BOTH SAEM n AN 0\n"
        "  O RLY?\n"
        "    YA RLY\n"
        "      n R 1\n"
        "  OIC\n"
        "IF U SAY SO\n"
        "KTHXBYE\n"
    )

    def test_a_late_divergent_branch_requeues_what_it_governs(self):
        import repro.lang.ast as ast

        prog = parse(self.LATE_DIVERGENCE)
        taint = analyze_taint(prog, summarize(prog))
        verdicts = {
            s.pos.line: taint.is_divergent(s)
            for s in ast.walk_statements(prog.body)
            if isinstance(s, (ast.If, ast.Loop))
        }
        assert verdicts == {5: False, 7: True, 11: False, 19: True, 25: True}
        assert ("W101", 21) in codes(self.LATE_DIVERGENCE)

    def test_taint_solves_each_cfg_once(self, monkeypatch):
        from repro.analysis import pe_taint

        solved = []
        real = pe_taint.run_forward

        def counting(cfg, analysis):
            solved.append(cfg)
            return real(cfg, analysis)

        monkeypatch.setattr(pe_taint, "run_forward", counting)
        prog = parse(self.LATE_DIVERGENCE)
        taint = analyze_taint(prog, summarize(prog))
        assert len(taint.cfgs) == 2
        assert solved == [cfg for _func, cfg in taint.cfgs]


# ---------------------------------------------------------------------------
# Barrier matching (W101)
# ---------------------------------------------------------------------------


class TestBarriers:
    def test_uniform_branch_barrier_is_clean(self):
        src = (
            "HAI 1.2\n"
            "I HAS A n ITZ A NUMBR AN ITZ 4\n"
            "BOTH SAEM n AN 4\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    HUGZ\n"
            "OIC\n"
            "KTHXBYE\n"
        )
        assert just_codes(src) == []

    def test_divergent_aligned_arms_are_clean(self):
        src = (
            "HAI 1.2\n"
            "BOTH SAEM ME AN 0\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    HUGZ\n"
            "  NO WAI\n"
            "    HUGZ\n"
            "OIC\n"
            "KTHXBYE\n"
        )
        assert just_codes(src) == []

    def test_divergent_mismatch_flags_w101(self):
        src = (
            "HAI 1.2\n"
            "BOTH SAEM ME AN 0\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    HUGZ\n"
            "OIC\n"
            "KTHXBYE\n"
        )
        assert ("W101", 5) in codes(src)

    def test_divergent_loop_with_barrier_flags(self):
        src = (
            "HAI 1.2\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN ME\n"
            "  HUGZ\n"
            "IM OUTTA YR l\n"
            "KTHXBYE\n"
        )
        assert "W101" in just_codes(src)

    def test_uniform_loop_with_barrier_is_clean(self):
        src = (
            "HAI 1.2\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4\n"
            "  HUGZ\n"
            "IM OUTTA YR l\n"
            "KTHXBYE\n"
        )
        assert just_codes(src) == []


# ---------------------------------------------------------------------------
# Epoch partitioning / races (W102)
# ---------------------------------------------------------------------------


RACE = (
    "HAI 1.2\n"
    "WE HAS A x ITZ SRSLY A NUMBR\n"
    "I HAS A nxt ITZ A NUMBR AN ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
    "TXT MAH BFF nxt, UR x R ME\n"
    "I HAS A y ITZ A NUMBR AN ITZ x\n"
    "KTHXBYE\n"
)


class TestRaces:
    def test_figure2_race_flags_with_fixit(self):
        diags = analyze_program(parse(RACE))
        w102 = [d for d in diags if d.code == "W102"]
        assert len(w102) == 1
        assert w102[0].pos.line == 5
        assert w102[0].fixit is not None
        assert w102[0].fixit.text == "HUGZ"

    def test_hugz_partitions_the_epoch(self):
        fixed = RACE.replace(
            "I HAS A y", "HUGZ\nI HAS A y"
        )
        assert just_codes(fixed) == []

    def test_epoch_state_join_unions_writes(self):
        a = EpochState(frozenset({("x", "rw", -1)}))
        b = EpochState(frozenset({("y", "lw", -1)}))
        prog = parse(RACE)
        from repro.analysis import analyze_bounds

        summary = summarize(prog)
        checker = RaceChecker(
            analyze_taint(prog, summary), analyze_bounds(prog, summary)
        )
        joined = RaceAnalysis(checker).join(a, b)
        assert joined.writes == a.writes | b.writes

    def test_disjoint_indices_do_not_race(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A u ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
            "I HAS A nxt ITZ A NUMBR AN ITZ "
            "MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF nxt, UR u'Z 3 R ME\n"
            "I HAS A y ITZ A NUMBR AN ITZ u'Z 0\n"
            "KTHXBYE\n"
        )
        assert just_codes(src) == []

    def test_overlapping_indices_race(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A u ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
            "I HAS A nxt ITZ A NUMBR AN ITZ "
            "MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF nxt, UR u'Z 3 R ME\n"
            "I HAS A y ITZ A NUMBR AN ITZ u'Z 3\n"
            "KTHXBYE\n"
        )
        assert "W102" in just_codes(src)

    def test_remote_read_then_local_write_is_allowed(self):
        # the tree-reduction shape: read the buddy's previous-epoch
        # value, then update your own copy
        src = (
            "HAI 1.2\n"
            "WE HAS A val ITZ SRSLY A NUMBR\n"
            "I HAS A buddy ITZ A NUMBR AN ITZ "
            "MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "I HAS A theirs ITZ A NUMBR AN ITZ 0\n"
            "TXT MAH BFF buddy, theirs R UR val\n"
            "val R SUM OF val AN theirs\n"
            "KTHXBYE\n"
        )
        assert just_codes(src) == []

    def test_lock_held_accesses_do_not_race(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A c ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "IM SRSLY MESIN WIF c\n"
            "TXT MAH BFF 0, UR c R SUM OF UR c AN 1\n"
            "I HAS A y ITZ A NUMBR AN ITZ c\n"
            "DUN MESIN WIF c\n"
            "KTHXBYE\n"
        )
        assert just_codes(src) == []


# ---------------------------------------------------------------------------
# Locks (W103 / W105 / W106)
# ---------------------------------------------------------------------------


class TestLocks:
    def test_released_on_every_path_is_clean(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A k ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "IM SRSLY MESIN WIF k\n"
            "I HAS A n ITZ A NUMBR AN ITZ 1\n"
            "BOTH SAEM n AN 1\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    DUN MESIN WIF k\n"
            "  NO WAI\n"
            "    DUN MESIN WIF k\n"
            "OIC\n"
            "KTHXBYE\n"
        )
        assert just_codes(src) == []

    def test_missed_path_flags_w103(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A k ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "IM SRSLY MESIN WIF k\n"
            "I HAS A n ITZ A NUMBR AN ITZ 1\n"
            "BOTH SAEM n AN 1\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    DUN MESIN WIF k\n"
            "OIC\n"
            "KTHXBYE\n"
        )
        # reported at the acquire site, line 3
        assert ("W103", 3) in codes(src)

    def test_double_acquire_flags_w105(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A k ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "IM SRSLY MESIN WIF k\n"
            "IM SRSLY MESIN WIF k\n"
            "DUN MESIN WIF k\n"
            "KTHXBYE\n"
        )
        assert ("W105", 4) in codes(src)

    def test_divergent_arm_acquire_flags_w106(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A k ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "BOTH SAEM ME AN 0\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    IM SRSLY MESIN WIF k\n"
            "OIC\n"
            "DUN MESIN WIF k\n"
            "KTHXBYE\n"
        )
        assert "W106" in just_codes(src)

    def test_trylock_spin_verifies_released(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A k ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "IM IN YR spin\n"
            "  IM MESIN WIF k\n"
            "  O RLY?\n"
            "    YA RLY\n"
            "      DUN MESIN WIF k\n"
            "      GTFO\n"
            "  OIC\n"
            "IM OUTTA YR spin\n"
            "KTHXBYE\n"
        )
        assert just_codes(src) == []

    def test_no_lock_statement_no_lock_solve(self, monkeypatch):
        from repro.analysis import locks

        def refuse(cfg, analysis):
            raise AssertionError("solved a program with no lock statement")

        monkeypatch.setattr(locks, "run_forward", refuse)
        assert just_codes(TestTaint.LATE_DIVERGENCE) == ["W101"]

    def test_an_unreachable_divergent_acquire_still_flags_w106(self):
        # The acquire after GTFO is in no CFG, but W106 reads the arm.
        src = (
            "HAI 1.2\n"
            "WE HAS A k ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "IM IN YR lp\n"
            "  BOTH SAEM ME AN 0\n"
            "  O RLY?\n"
            "    YA RLY\n"
            "      GTFO\n"
            "      IM SRSLY MESIN WIF k\n"
            "  OIC\n"
            "IM OUTTA YR lp\n"
            "KTHXBYE\n"
        )
        assert codes(src) == [("W106", 8)]

    def test_dynamic_unlock_releases_everything(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A k ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "I HAS A nm ITZ A YARN AN ITZ \"k\"\n"
            "IM SRSLY MESIN WIF k\n"
            "DUN MESIN WIF SRS nm\n"
            "KTHXBYE\n"
        )
        assert just_codes(src) == []


# ---------------------------------------------------------------------------
# Bounds (E008 / W107)
# ---------------------------------------------------------------------------


class TestBounds:
    def test_definite_out_of_range_is_e008(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A arr ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
            "arr'Z 9 R 1\n"
            "KTHXBYE\n"
        )
        assert ("E008", 3) in codes(src)

    def test_definitely_negative_is_e008(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A arr ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
            "I HAS A i ITZ A NUMBR AN ITZ DIFF OF 0 AN 2\n"
            "arr'Z i R 1\n"
            "KTHXBYE\n"
        )
        assert ("E008", 4) in codes(src)

    def test_possibly_out_of_range_is_w107(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A arr ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
            "arr'Z ME R 1\n"
            "KTHXBYE\n"
        )
        assert ("W107", 3) in codes(src)

    def test_counted_loop_index_verifies_in_range(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A arr ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4\n"
            "  arr'Z i R i\n"
            "IM OUTTA YR l\n"
            "KTHXBYE\n"
        )
        assert just_codes(src) == []

    def test_pe_target_past_world_is_e008(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "I HAS A tgt ITZ A NUMBR AN ITZ SUM OF MAH FRENZ AN 1\n"
            "TXT MAH BFF tgt, UR x R 1\n"
            "KTHXBYE\n"
        )
        assert ("E008", 4) in codes(src)

    def test_me_guarded_neighbor_is_clean(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "BIGGR OF ME AN 0\n"
            "BOTH SAEM IT AN ME\n"
            "O RLY?\n"
            "  YA RLY\n"
            "    I HAS A up ITZ A NUMBR AN ITZ DIFF OF ME AN 0\n"
            "    TXT MAH BFF up, UR x R 1\n"
            "OIC\n"
            "KTHXBYE\n"
        )
        assert just_codes(src) == []

    def test_loop_body_shadow_keeps_the_outer_value(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
            "I HAS A i ITZ 9\n"
            "IM IN YR l UPPIN YR k TIL BOTH SAEM k AN 2\n"
            "  I HAS A i ITZ k\n"
            "  a'Z i R 1\n"
            "IM OUTTA YR l\n"
            "VISIBLE a'Z i\n"
            "KTHXBYE\n"
        )
        assert codes(src) == [("E008", 8)]


# ---------------------------------------------------------------------------
# The access table
# ---------------------------------------------------------------------------


class TestAccesses:
    def test_a_shadowing_declaration_is_another_binding(self):
        import repro.lang.ast as ast

        prog = parse(
            "HAI 1.2\n"
            "I HAS A x ITZ ME\n"
            "WIN, O RLY?\n"
            "  YA RLY\n"
            "    I HAS A x ITZ 0\n"
            "    x R 1\n"
            "OIC\n"
            "x R 2\n"
            "KTHXBYE\n"
        )
        accesses = summarize(prog).accesses
        outer, arm = (
            s for s in ast.walk_statements(prog.body)
            if isinstance(s, ast.VarDecl)
        )
        inner_store, outer_store = (
            s for s in ast.walk_statements(prog.body)
            if isinstance(s, ast.Assign)
        )
        assert accesses.of(inner_store).writes[0].binding is (
            accesses.of(arm).writes[0].binding
        )
        assert accesses.of(outer_store).writes[0].binding is (
            accesses.of(outer).writes[0].binding
        )
        assert accesses.of(arm).writes[0].binding is not (
            accesses.of(outer).writes[0].binding
        )

    def test_a_cast_reads_then_writes(self):
        prog = parse(
            "HAI 1.2\n"
            "I HAS A x ITZ 1\n"
            "x IS NOW A NUMBAR\n"
            "KTHXBYE\n"
        )
        uses = summarize(prog).accesses.of(prog.body[1])
        read, write = uses.events
        assert not read.write and write.write
        assert read.binding is write.binding

    def test_a_nested_call_puts_for_its_caller(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "HOW IZ I put YR dst\n"
            "  TXT MAH BFF dst, UR x R ME\n"
            "IF U SAY SO\n"
            "HOW IZ I send YR dst\n"
            "  I IZ put YR dst MKAY\n"
            "IF U SAY SO\n"
            "I HAS A nxt ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "I IZ send YR nxt MKAY\n"
            "VISIBLE x\n"
            "KTHXBYE\n"
        )
        assert codes(src) == [("W102", 11)]

    def test_a_call_that_takes_and_releases_a_lock_is_clean(self):
        src = (
            "HAI 1.2\n"
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "HOW IZ I bump\n"
            "  IM SRSLY MESIN WIF x\n"
            "  x R SUM OF x AN 1\n"
            "  DUN MESIN WIF x\n"
            "IF U SAY SO\n"
            "I IZ bump MKAY\n"
            "VISIBLE x\n"
            "KTHXBYE\n"
        )
        assert just_codes(src) == []


# ---------------------------------------------------------------------------
# ProgramFacts
# ---------------------------------------------------------------------------


class TestFacts:
    def test_remote_unwritten(self):
        prog = parse(
            "HAI 1.2\n"
            "WE HAS A n ITZ SRSLY A NUMBR\n"
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "n R 8\n"
            "I HAS A nxt ITZ A NUMBR AN ITZ "
            "MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF nxt, UR x R ME\n"
            "KTHXBYE\n"
        )
        facts = summarize(prog)
        assert facts.remote_unwritten == {"n"}

    def test_remote_write_kills_the_fact(self):
        prog = parse(
            "HAI 1.2\n"
            "WE HAS A n ITZ SRSLY A NUMBR\n"
            "TXT MAH BFF 0, UR n R 8\n"
            "KTHXBYE\n"
        )
        facts = summarize(prog)
        assert "n" not in facts.remote_unwritten


# ---------------------------------------------------------------------------
# Analysis-driven LOOP_VEC admission
# ---------------------------------------------------------------------------


#: a counted loop whose trip count is a symmetric scalar — bailed
#: before ProgramFacts, vectorizes now (no peer ever writes ``n``)
SYM_LIMIT_LOOP = (
    "HAI 1.2\n"
    "WE HAS A n ITZ SRSLY A NUMBR\n"
    "n R 1000\n"
    "I HAS A acc ITZ A NUMBR AN ITZ 0\n"
    "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN n\n"
    "  acc R SUM OF acc AN i\n"
    "IM OUTTA YR l\n"
    "VISIBLE acc\n"
    "KTHXBYE\n"
)

#: same loop, but a peer may store the trip count — must keep bailing
SYM_LIMIT_WRITTEN = SYM_LIMIT_LOOP.replace(
    "n R 1000\n", "n R 1000\nTXT MAH BFF 0, UR n R 1000\n"
)


class TestFactsVectorize:
    def test_symmetric_limit_now_vectorizes(self):
        from repro.vm import disassemble_source

        assert "LOOP_VEC" in disassemble_source(SYM_LIMIT_LOOP)

    def test_remote_written_limit_still_bails(self):
        from repro.vm import disassemble_source

        assert "LOOP_VEC" not in disassemble_source(SYM_LIMIT_WRITTEN)

    def test_four_way_differential(self):
        from repro.compiler.native import find_cc
        from repro.launcher import run_lolcode

        engines = ["ast", "vm"]
        results = {
            e: run_lolcode(
                SYM_LIMIT_LOOP, 2, engine=e, seed=3
            ).outputs
            for e in engines
        }
        if find_cc() is not None:
            results["c"] = run_lolcode(
                SYM_LIMIT_LOOP, 2, engine="c", seed=3
            ).outputs
        baseline = results["ast"]
        assert baseline == ["499500\n", "499500\n"]
        for engine, outputs in results.items():
            assert outputs == baseline, f"{engine} diverged"


# ---------------------------------------------------------------------------
# Diagnostic plumbing
# ---------------------------------------------------------------------------


class TestPlumbing:
    def test_all_positions_are_real(self):
        for src in (RACE,):
            for d in analyze_program(parse(src)):
                assert d.pos.line > 0 and d.pos.col > 0

    def test_sarif_shape(self):
        import json

        from repro.analysis import render_sarif
        from repro.lang.checker import check_source

        doc = json.loads(render_sarif(check_source(RACE, "race.lol")))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "lollint"
        races = [r for r in run["results"] if r["ruleId"] == "W102"]
        assert races
        loc = races[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "race.lol"
        assert loc["region"]["startLine"] == 5

    def test_json_shape(self):
        import json

        from repro.analysis import render_json
        from repro.lang.checker import check_source

        doc = json.loads(render_json(check_source(RACE, "race.lol")))
        races = [d for d in doc if d["code"] == "W102"]
        assert races and races[0]["line"] == 5
        assert races[0]["fixit"]


# ---------------------------------------------------------------------------
# check= plumbed through the launcher
# ---------------------------------------------------------------------------


class TestLauncherCheck:
    def test_check_error_refuses_static_errors(self):
        from repro.lang.errors import LolStaticError
        from repro.launcher import run_lolcode

        bad = (
            "HAI 1.2\n"
            "WE HAS A arr ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
            "arr'Z 9 R 1\n"
            "KTHXBYE\n"
        )
        with pytest.raises(LolStaticError) as exc_info:
            run_lolcode(bad, 1, check="error")
        assert any(
            d.code == "E008" for d in exc_info.value.diagnostics
        )

    def test_check_warn_runs_and_prints(self, capsys):
        from repro.launcher import run_lolcode

        result = run_lolcode(RACE, 2, check="warn", seed=1)
        assert result.outputs is not None
        assert "W102" in capsys.readouterr().err

    def test_bad_check_mode_is_rejected(self):
        from repro.lang.errors import LolParallelError
        from repro.launcher import run_lolcode

        with pytest.raises(LolParallelError):
            run_lolcode("HAI 1.2\nKTHXBYE\n", 1, check="loud")
