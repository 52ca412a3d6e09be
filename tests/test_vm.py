"""Register-bytecode VM engine tests.

Covers the pieces that make ``engine="vm"`` the fastest pure-Python
path and keep it honest:

* superinstruction fusion (``INC_JMP``, fused compare-branches,
  ``ORLY_*``, ``TXT_GET``) and the typed ``QUOSHUNT OF``/``MOD OF``
  opcodes, each at parity with the tree-walker;
* remote gets feeding an operator and puts followed by ``HUGZ`` inside
  ``TXT MAH BFF`` blocks, at parity with the tree-walker;
* jump patching (no unresolved labels, all targets in range);
* symmetric-access inline caches (hit on repeat access);
* ``LOOP_VEC`` — the guarded loop vectorizer: it runs where legal,
  bails to bit-identical scalar execution where not, and never
  mis-vectorizes a loop-carried recurrence; draw loops (``WHATEVR``/
  ``WHATEVAR`` columns, if-converted ``O RLY?`` arms, scatter
  increments) consume the PE's generator exactly as the scalar loop
  does, and every bail hands it back untouched;
* ``loldis`` golden snapshot (the disassembly is deterministic).
"""

from __future__ import annotations

import pathlib
import random

import pytest

from repro.interp.interpreter import Interpreter
from repro.lang import parse
from repro.lang.errors import LolError
from repro.launcher import plan_from_program, run_lolcode
from repro.shmem.api import serial_context
from repro.vm import Machine, compile_program_vm, disassemble_source
from repro.vm import isa
from repro.vm.isa import Label
from repro.workloads import get_workload

from .conftest import lol

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _compile(src: str, **kwargs):
    return compile_program_vm(parse(src), **kwargs)


def _ops(co) -> list:
    return [ins[0] for ins in co.code]


# ---------------------------------------------------------------------------
# Superinstruction fusion and jump patching.
# ---------------------------------------------------------------------------


class TestCompile:
    def test_counter_loop_fuses_inc_jmp_and_compare_branch(self):
        prog = _compile(
            lol(
                "I HAS A acc ITZ 0\n"
                "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\n"
                "  acc R SUM OF acc AN i\n"
                "IM OUTTA YR l\n"
                "VISIBLE acc"
            )
        )
        ops = _ops(prog.co)
        assert isa.INC_JMP in ops, "loop back-edge must fuse incr+jump"
        assert isa.BR_EQ_SC in ops, (
            "TIL BOTH SAEM i AN <const> must fuse to a compare-branch"
        )

    def test_jump_targets_patched_and_in_range(self):
        prog = _compile(
            lol(
                "I HAS A n ITZ 0\n"
                "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 5\n"
                "  BOTH SAEM i AN 3, O RLY?\n"
                "    YA RLY, n R SUM OF n AN 10\n"
                "    NO WAI, n R SUM OF n AN 1\n"
                "  OIC\n"
                "IM OUTTA YR l\n"
                "VISIBLE n"
            )
        )
        n = len(prog.co.code)
        for pc, ins in enumerate(prog.co.code):
            for i, kind in enumerate(isa.OPFIELDS[ins[0]], start=1):
                if kind == "j":
                    target = ins[i]
                    assert not isinstance(target, Label), (
                        f"unpatched label at pc {pc}"
                    )
                    assert 0 <= target < n, (
                        f"jump target {target} out of range at pc {pc}"
                    )

    def test_count_steps_disables_vectorization(self):
        src = lol(
            "I HAS A u ITZ LOTZ A NUMBARS AN THAR IZ 8\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8\n"
            "  u'Z i R PRODUKT OF 2.5 AN i\n"
            "IM OUTTA YR l"
        )
        assert isa.LOOP_VEC in _ops(_compile(src).co)
        assert isa.LOOP_VEC not in _ops(_compile(src, count_steps=True).co)
        assert isa.STEP in _ops(_compile(src, count_steps=True).co)


# ---------------------------------------------------------------------------
# Symmetric-access inline caches.
# ---------------------------------------------------------------------------


class TestInlineCaches:
    # VISIBLE in the body keeps the loop un-vectorizable, so the
    # symmetric load actually executes once per iteration.
    CACHED_LOOP = lol(
        "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
        "x R 2\n"
        "I HAS A acc ITZ 0\n"
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\n"
        "  VISIBLE x\n"
        "  acc R SUM OF acc AN x\n"
        "IM OUTTA YR l\n"
        "VISIBLE acc"
    )

    def test_repeat_access_hits_cache(self):
        ctx = serial_context(plan_from_program(parse(self.CACHED_LOOP), 1))
        m = _compile(self.CACHED_LOOP).run(ctx)
        # 3 distinct access sites (one store, two loads), 21 dynamic
        # accesses: each site misses exactly once, then hits.
        assert m.sym_misses == 3
        assert ctx.output.endswith("20\n")


# ---------------------------------------------------------------------------
# LOOP_VEC: the guarded loop vectorizer.
# ---------------------------------------------------------------------------


VEC_FILL = lol(
    "I HAS A u ITZ LOTZ A NUMBARS AN THAR IZ 8\n"
    "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8\n"
    "  u'Z i R PRODUKT OF 2.5 AN i\n"
    "IM OUTTA YR l\n"
    "VISIBLE u'Z 7"
)


class TestLoopVec:
    def test_vectorized_loop_runs(self):
        ctx = serial_context()
        m = _compile(VEC_FILL).run(ctx)
        assert m.vec_runs == 1
        assert m.vec_bails == 0
        # Output identical to scalar semantics.
        assert ctx.output == "17.50\n"

    def test_runtime_bail_falls_back_to_identical_scalar(self):
        # fast_sym off (what a race-detection world sets) forces every
        # plan to bail at run time; the scalar path must produce the
        # same output.
        prog = _compile(VEC_FILL)
        ctx = serial_context()
        m = Machine(ctx)
        m.fast_sym = False
        m.run(prog)
        assert m.vec_runs == 0
        assert m.vec_bails == 1
        assert ctx.output == "17.50\n"

    def test_nonvectorizable_loop_gets_no_plan(self):
        # VISIBLE inside the body can't be batched: no LOOP_VEC emitted.
        prog = _compile(
            lol(
                "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\n"
                "  VISIBLE i\n"
                "IM OUTTA YR l"
            )
        )
        assert isa.LOOP_VEC not in _ops(prog.co)

    def test_zero_trip_loop(self):
        ctx = serial_context()
        m = _compile(
            lol(
                "I HAS A u ITZ LOTZ A NUMBRS AN THAR IZ 4\n"
                "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 0\n"
                "  u'Z i R 9\n"
                "IM OUTTA YR l\n"
                "VISIBLE u'Z 0"
            )
        ).run(ctx)
        assert ctx.output == "0\n"

    @pytest.mark.parametrize("n_pes", [1, 4])
    def test_accumulator_fold_matches_ast(self, n_pes):
        # The nbody inner-loop shape: element read-modify-write of a
        # private array at an invariant index — a sequential fold, not
        # a broadcast.  Regression for the mis-vectorization the
        # differential harness caught during development.
        src = lol(
            "I HAS A acc ITZ LOTZ A NUMBARS AN THAR IZ 2\n"
            "I HAS A d ITZ LOTZ A NUMBARS AN THAR IZ 8\n"
            "IM IN YR init UPPIN YR j TIL BOTH SAEM j AN 8\n"
            "  d'Z j R SUM OF j AN 0.5\n"
            "IM OUTTA YR init\n"
            "IM IN YR l UPPIN YR j TIL BOTH SAEM j AN 8\n"
            "  acc'Z 0 R SUM OF acc'Z 0 AN d'Z j\n"
            "IM OUTTA YR l\n"
            "VISIBLE acc'Z 0"
        )
        vm = run_lolcode(src, n_pes, seed=3, engine="vm")
        ref = run_lolcode(src, n_pes, seed=3, engine="ast")
        assert vm.outputs == ref.outputs

    def test_self_referential_recurrence_not_mis_vectorized(self):
        # a[0] doubling each iteration is a loop-carried recurrence on
        # both sides of the assignment; hoisting the read would turn
        # geometric growth into linear.  Whether the vectorizer folds
        # or bails, the result must match the tree-walker.
        src = lol(
            "I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 1\n"
            "a'Z 0 R 1\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\n"
            "  a'Z 0 R SUM OF a'Z 0 AN a'Z 0\n"
            "IM OUTTA YR l\n"
            "VISIBLE a'Z 0"
        )
        vm = run_lolcode(src, 1, engine="vm")
        assert vm.output == "1024\n"
        assert vm.output == run_lolcode(src, 1, engine="ast").output

    def test_stencil_matches_ast(self):
        # 3-point stencil over a symmetric array (the heat1d shape):
        # reads at i-1/i/i+1 must come from the pre-iteration array.
        src = lol(
            "WE HAS A u ITZ LOTZ A NUMBARS AN THAR IZ 10 AN IM SHARIN IT\n"
            "I HAS A w ITZ LOTZ A NUMBARS AN THAR IZ 10\n"
            "IM IN YR init UPPIN YR i TIL BOTH SAEM i AN 10\n"
            "  u'Z i R PRODUKT OF i AN i\n"
            "IM OUTTA YR init\n"
            "IM IN YR s UPPIN YR i TIL BOTH SAEM i AN 8\n"
            "  I HAS A c ITZ SUM OF i AN 1\n"
            "IM OUTTA YR s\n"
            "IM IN YR l UPPIN YR k TIL BOTH SAEM k AN 8\n"
            "  I HAS A mid ITZ SUM OF k AN 1\n"
            "  w'Z mid R QUOSHUNT OF SUM OF SUM OF u'Z k AN u'Z mid AN "
            "u'Z SUM OF k AN 2 AN 3.0\n"
            "IM OUTTA YR l\n"
            "VISIBLE w'Z 5"
        )
        vm = run_lolcode(src, 1, engine="vm")
        ref = run_lolcode(src, 1, engine="ast")
        assert vm.output == ref.output


    @pytest.mark.parametrize(
        "body",
        [
            # a read of the outer s, then a body declaration shadowing it
            "  u'Z i R PRODUKT OF s AN i\n"
            "  I HAS A s ITZ SUM OF i AN 0.5\n"
            "  w'Z i R s",
            # the initializer reads the enclosing binding of its own name
            "  I HAS A s ITZ SUM OF s AN i\n"
            "  u'Z i R s",
        ],
        ids=["read-before-shadow", "initializer-reads-outer"],
    )
    def test_body_declarations_vectorize(self, body):
        # A body declaration lives for one iteration, so the vectorizer
        # binds it privately and the loop still batches.
        src = lol(
            "I HAS A u ITZ LOTZ A NUMBARS AN THAR IZ 8\n"
            "I HAS A w ITZ LOTZ A NUMBARS AN THAR IZ 8\n"
            "I HAS A s ITZ 2\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8\n"
            f"{body}\n"
            "IM OUTTA YR l\n"
            "VISIBLE s\nVISIBLE u'Z 7\nVISIBLE w'Z 7"
        )
        ctx = serial_context()
        m = _compile(src).run(ctx)
        assert m.vec_runs == 1 and m.vec_bails == 0
        assert ctx.output == run_lolcode(src, 1, engine="ast").output

    def test_registry_vectorizer_coverage(self):
        # LOOP_VEC sites per registry workload at default sizes: a
        # change to the analysis must not cost the kernels their
        # vectorized loops (pi_montecarlo's and histogram's draw loops
        # count; nbody's 8-trip init draws and bfs's 8-trip tally stay
        # under the draw/mask trip floor).
        from repro.workloads import all_workloads

        def sites(co) -> int:
            n = 0
            for ins in co.code:
                if ins[0] == isa.LOOP_VEC:
                    n += 1
                elif ins[0] == isa.DEF:
                    n += sites(ins[2][0].co)
            return n

        got = {
            w.name: sites(_compile(w.source()).co) for w in all_workloads()
        }
        want = {name: 0 for name in got}
        want.update(
            transpose=2, bfs=1, sample_sort=2, spmv=1, pi_montecarlo=2,
            histogram=1, nbody=6, nbody_racy=6, heat1d=3, heat2d=8, heat3d=11,
        )
        assert got == want


# ---------------------------------------------------------------------------
# Int-lane ops: QUOSHUNT OF, MOD OF, BIGGR OF, SMALLR OF.
# ---------------------------------------------------------------------------


def _same_error(src: str, n_pes: int) -> str:
    """The error ``src`` raises, asserted identical on vm and ast."""
    errors = []
    for engine in ("vm", "ast"):
        with pytest.raises(LolError) as info:
            run_lolcode(src, n_pes, engine=engine)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    return errors[0]


INT_OPS = lol(
    "I HAS A u ITZ LOTZ A NUMBRS AN THAR IZ 20\n"
    "I HAS A w ITZ LOTZ A NUMBRS AN THAR IZ 20\n"
    "I HAS A k ITZ -3\n"
    "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 20\n"
    "  I HAS A a ITZ DIFF OF i AN 9\n"
    "  u'Z i R SUM OF QUOSHUNT OF a AN k AN MOD OF a AN 4\n"
    "  w'Z i R PRODUKT OF BIGGR OF a AN -2 AN SMALLR OF MOD OF -7 AN SUM OF a AN 10 AN 3\n"
    "IM OUTTA YR l\n"
    "IM IN YR p UPPIN YR i TIL BOTH SAEM i AN 20\n"
    '  VISIBLE u\'Z i " " w\'Z i\n'
    "IM OUTTA YR p"
)


class TestIntLaneOps:
    def test_truncating_ops_match_ast_with_negative_operands(self):
        m, got, want = _both(INT_OPS)
        assert (m.vec_runs, m.vec_bails) == (1, 0)
        assert got == want
        # a = -7: -7 mod 4 is -3; a = 8: 8 / -3 is -2 and -7 mod 18 is
        # -7 (numpy's flooring // and % give 1, -3 and 11)
        lines = got.splitlines()
        assert (lines[2], lines[17]) == ("-1 2", "-2 -56")

    def test_zero_divisor_bails_and_scalar_raises(self):
        src = INT_OPS.replace("ITZ -3", "ITZ 0")
        assert "QUOSHUNT OF: division by zero" in _same_error(src, 1)

    def test_float_lanes_bail_to_identical_scalar(self):
        src = INT_OPS.replace("ITZ -3", "ITZ -3.5").replace(
            "LOTZ A NUMBRS", "LOTZ A NUMBARS"
        )
        m, got, want = _both(src)
        assert (m.vec_runs, m.vec_bails) == (0, 1)
        assert got == want

    def test_constant_operands_fold_before_the_check(self):
        src = lol(
            "I HAS A u ITZ LOTZ A NUMBRS AN THAR IZ 8\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8\n"
            "  u'Z i R SUM OF i AN MOD OF 5 AN BIGGR OF 3 AN -1\n"
            "IM OUTTA YR l\n"
            "VISIBLE u'Z 7"
        )
        m, got, want = _both(src)
        assert (m.vec_runs, m.vec_bails) == (1, 0)
        assert got == want == "9\n"


BIG_READS = lol(
    "I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 8\n"
    "I HAS A b ITZ LOTZ A NUMBRS AN THAR IZ 8\n"
    "I HAS A s ITZ 0\n"
    "a'Z 5 R 3000000000\n"
    "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8\n"
    "  {body}\n"
    "IM OUTTA YR l\n"
    'VISIBLE b\'Z 5 " " s'
)


class TestReadGuard:
    """An int read skips the 2**30 guard only when every consumer is
    exact on int64: an int64 element store or a fold."""

    @pytest.mark.parametrize(
        "body", ["b'Z i R a'Z i", "s R SUM OF s AN a'Z i"]
    )
    def test_big_values_into_exact_consumers_vectorize(self, body):
        m, got, want = _both(BIG_READS.format(body=body))
        assert (m.vec_runs, m.vec_bails) == (1, 0)
        assert got == want

    @pytest.mark.parametrize(
        "body",
        [
            "b'Z i R SUM OF a'Z i AN 1",
            "b'Z i R PRODUKT OF a'Z i AN a'Z i",
            "I HAS A f ITZ A NUMBAR AN ITZ a'Z i\n  s R SUM OF s AN f",
        ],
    )
    def test_big_values_into_arithmetic_bail(self, body):
        m, got, want = _both(BIG_READS.format(body=body))
        assert (m.vec_runs, m.vec_bails) == (0, 1)
        assert got == want

    def test_float_lanes_get_no_cast_op(self):
        src = lol(
            "I HAS A u ITZ LOTZ A NUMBARS AN THAR IZ 8\n"
            "I HAS A v ITZ LOTZ A NUMBRS AN THAR IZ 8\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8\n"
            "  u'Z i R PRODUKT OF 2.5 AN i\n"
            "  v'Z i R SUM OF i AN 1\n"
            "IM OUTTA YR l\n"
            "VISIBLE u'Z 7 v'Z 7"
        )
        plan = next(ins[1] for ins in _compile(src).co.code if ins[0] == isa.LOOP_VEC)
        assert not [op for op in plan.prog if op[0] == "cast"]
        m, got, want = _both(src)
        assert (m.vec_runs, got) == (1, want)


# ---------------------------------------------------------------------------
# Loop nests, segmented folds and remote slices in one plan.
# ---------------------------------------------------------------------------


@pytest.fixture
def plan_runs(monkeypatch):
    """``(depth, remote, done)`` for every ``LOOP_VEC`` the vm runs."""
    from repro.vm import machine, vecrun

    seen: list = []

    def spy(m, frame, plan, pos):
        done = vecrun.run_vec(m, frame, plan, pos)
        with lock:
            seen.append((len(plan.levels), "remote" in plan.shapes, done))
        return done

    import threading

    lock = threading.Lock()
    monkeypatch.setattr(machine, "run_vec", spy)
    return seen


NEST = lol(
    "I HAS A a ITZ LOTZ A NUMBARS AN THAR IZ 40\n"
    "I HAS A b ITZ LOTZ A NUMBARS AN THAR IZ 40\n"
    "I HAS A acc ITZ LOTZ A NUMBARS AN THAR IZ 4\n"
    "I HAS A s ITZ 0.5\n"
    "IM IN YR f UPPIN YR i TIL BOTH SAEM i AN 40\n"
    "  a'Z i R PRODUKT OF SUM OF i AN 1 AN 0.375\n"
    "IM OUTTA YR f\n"
    "IM IN YR o UPPIN YR i TIL BOTH SAEM i AN 4\n"
    "  I HAS A row ITZ PRODUKT OF i AN 10\n"
    "  I HAS A x ITZ a'Z i\n"
    "  IM IN YR n UPPIN YR j TIL BOTH SAEM j AN 6\n"
    "    I HAS A at ITZ SUM OF row AN SUM OF j AN 2\n"
    "    b'Z at R SUM OF a'Z at AN PRODUKT OF x AN a'Z DIFF OF at AN 1\n"
    "    acc'Z i R SUM OF acc'Z i AN PRODUKT OF x AN a'Z at\n"
    "    s R SUM OF s AN a'Z at\n"
    "  IM OUTTA YR n\n"
    "IM OUTTA YR o\n"
    "VISIBLE s\n"
    "IM IN YR p UPPIN YR i TIL BOTH SAEM i AN 40\n"
    '  VISIBLE b\'Z i " " a\'Z i\n'
    "IM OUTTA YR p\n"
    'VISIBLE acc\'Z 0 " " acc\'Z 1 " " acc\'Z 2 " " acc\'Z 3'
)


class TestNests:
    def test_nest_is_one_plan_run(self, plan_runs):
        m, got, want = _both(NEST)
        assert got == want
        assert (m.vec_runs, m.vec_bails) == (2, 0)  # the fill and the nest
        assert (2, False, True) in plan_runs

    def test_frame_matches_the_scalar_nest(self):
        # No body declarations: every slot the nest touches is a frame
        # slot the scalar loops leave behind, both counters included.
        src = lol(
            "I HAS A b ITZ LOTZ A NUMBRS AN THAR IZ 24\n"
            "I HAS A t ITZ 0\n"
            "IM IN YR o UPPIN YR i TIL BOTH SAEM i AN 4\n"
            "  IM IN YR n UPPIN YR j WILE SMALLR j AN 6\n"
            "    b'Z SUM OF PRODUKT OF i AN 6 AN j R PRODUKT OF i AN j\n"
            "    t R SUM OF t AN j\n"
            "    SUM OF i AN j\n"
            "  IM OUTTA YR n\n"
            "IM OUTTA YR o"
        )
        from repro.vm.compile import VMCompiler

        frames = []
        for count_steps in (False, True):  # step counting stays scalar
            compiler = VMCompiler(parse(src), count_steps=count_steps)
            m = compiler.compile().run(serial_context())
            slots = {b.name: info.slot for b, info in compiler.infos.items()}
            frames.append({name: m.gframe[slot] for name, slot in slots.items()})
            frames[-1]["IT"] = m.gframe[0]
            frames[-1]["b"] = frames[-1]["b"].data.tolist()
        assert (m.vec_runs, m.vec_bails) == (0, 0)  # the scalar run
        assert frames[0] == frames[1]
        assert frames[0]["j"] == 6 and frames[0]["i"] == 4

    @pytest.mark.parametrize(
        "outer, inner",
        [
            # a barrier or VISIBLE in the outer body
            ("  HUGZ\n", "    b'Z SUM OF row AN j R 1.5\n"),
            ('  VISIBLE "row"\n', "    b'Z SUM OF row AN j R 1.5\n"),
            # a non-rectangular inner limit
            ("", "    b'Z SUM OF row AN j R 1.5\n"),
            # a write at a'Z i read back at a'Z SUM OF i AN 1 across outer
            # iterations
            (
                "",
                "    a'Z i R SUM OF a'Z SUM OF i AN 1 AN j\n",
            ),
        ],
        ids=["barrier", "visible", "non-rectangular", "cross-row"],
    )
    def test_outside_the_nest_model_gets_no_nest_plan(self, outer, inner, plan_runs):
        limit = "i" if not outer and "row" in inner else "4"
        src = lol(
            "I HAS A a ITZ LOTZ A NUMBARS AN THAR IZ 12\n"
            "I HAS A b ITZ LOTZ A NUMBARS AN THAR IZ 12\n"
            "IM IN YR o UPPIN YR i TIL BOTH SAEM i AN 3\n"
            f"{outer}"
            "  I HAS A row ITZ PRODUKT OF i AN 4\n"
            f"  IM IN YR n UPPIN YR j TIL BOTH SAEM j AN {limit}\n"
            f"{inner}"
            "  IM OUTTA YR n\n"
            "IM OUTTA YR o\n"
            'VISIBLE a\'Z 0 " " a\'Z 2 " " b\'Z 5 " " b\'Z 9'
        )
        got = run_lolcode(src, 2, engine="vm").outputs
        assert got == run_lolcode(src, 2, engine="ast").outputs
        assert all(depth == 1 for depth, _, _ in plan_runs)
        # the inner loop keeps its own plan (the cross-row read-back is a
        # recurrence of the inner loop too)
        assert bool(plan_runs) == ("a'Z i" not in inner)

    def test_index_out_of_range_at_a_later_row_raises_like_ast(self, plan_runs):
        src = NEST.replace("AN SUM OF j AN 2\n", "AN SUM OF j AN 5\n")
        assert "out of range" in _same_error(src, 1)
        assert (2, False, False) in plan_runs  # the nest bailed whole

    def test_segmented_int_fold_matches_ast(self):
        src = lol(
            "I HAS A h ITZ LOTZ A NUMBRS AN THAR IZ 5\n"
            "IM IN YR o UPPIN YR i TIL BOTH SAEM i AN 5\n"
            "  IM IN YR n UPPIN YR j TIL BOTH SAEM j AN 7\n"
            "    h'Z i R DIFF OF h'Z i AN PRODUKT OF SUM OF i AN 1 AN j\n"
            "  IM OUTTA YR n\n"
            "IM OUTTA YR o\n"
            'VISIBLE h\'Z 0 " " h\'Z 4'
        )
        m, got, want = _both(src)
        assert (m.vec_runs, m.vec_bails) == (1, 0)
        assert got == want == "-21 -105\n"


REMOTE = lol(
    "WE HAS A g ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 12\n"
    "I HAS A t ITZ LOTZ A NUMBARS AN THAR IZ 12\n"
    "I HAS A nxt ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
    "IM IN YR f UPPIN YR i TIL BOTH SAEM i AN 12\n"
    "  g'Z i R SUM OF PRODUKT OF ME AN 100 AN i\n"
    "IM OUTTA YR f\n"
    "HUGZ\n"
    "TXT MAH BFF nxt AN STUFF,\n"
    "  IM IN YR get UPPIN YR j TIL BOTH SAEM j AN 5\n"
    "    t'Z SUM OF j AN 2 R UR g'Z PRODUKT OF j AN 2\n"
    "  IM OUTTA YR get\n"
    "TTYL\n"
    "HUGZ\n"
    "TXT MAH BFF nxt AN STUFF,\n"
    "  IM IN YR put UPPIN YR j TIL BOTH SAEM j AN 4\n"
    "    UR g'Z SUM OF j AN 8 R PRODUKT OF t'Z SUM OF j AN 2 AN 0.5\n"
    "  IM OUTTA YR put\n"
    "TTYL\n"
    "HUGZ\n"
    'VISIBLE t\'Z 2 " " t\'Z 6 " " g\'Z 8 " " g\'Z 11'
)


class TestRemoteSlices:
    @pytest.mark.parametrize("n_pes", [2, 4])
    def test_remote_slices_match_ast(self, n_pes, plan_runs):
        got = run_lolcode(REMOTE, n_pes, engine="vm").outputs
        assert got == run_lolcode(REMOTE, n_pes, engine="ast").outputs
        remote = [done for _, is_remote, done in plan_runs if is_remote]
        assert remote == [True] * 2 * n_pes

    def test_comm_counters_count_every_element(self):
        from repro import obs

        counts = {}
        obs.arm("metrics")
        try:
            registry = obs.get_registry()
            for engine in ("vm", "ast"):
                before = registry.snapshot(collect=False)
                run_lolcode(REMOTE, 2, engine=engine)
                delta = obs.diff_snapshots(before, registry.snapshot(collect=False))
                counts[engine] = {
                    k: v for k, v in delta.items() if k.startswith("lol_comm")
                }
        finally:
            obs.disarm()
        assert counts["vm"] == counts["ast"]
        assert counts["vm"]["lol_comm_ops_total"]["series"] == {
            '[["op", "get"]]': 10, '[["op", "put"]]': 8,
        }

    def test_remote_slice_under_race_detection_stays_scalar(self, plan_runs):
        got = run_lolcode(REMOTE, 2, engine="vm", race_detection=True)
        want = run_lolcode(REMOTE, 2, engine="ast", race_detection=True)
        assert got.outputs == want.outputs
        assert len(got.races) == len(want.races)
        assert plan_runs and not any(done for _, _, done in plan_runs)

    def test_remote_slice_under_the_span_tracer_stays_scalar(self, plan_runs):
        from repro import obs

        obs.arm("trace")
        try:
            got = run_lolcode(REMOTE, 2, engine="vm").outputs
        finally:
            obs.disarm()
        assert got == run_lolcode(REMOTE, 2, engine="ast").outputs
        remote = [done for _, is_remote, done in plan_runs if is_remote]
        assert remote and not any(remote)

    def test_self_target_bails(self, plan_runs):
        src = REMOTE.replace("TXT MAH BFF nxt", "TXT MAH BFF ME")
        got = run_lolcode(src, 2, engine="vm").outputs
        assert got == run_lolcode(src, 2, engine="ast").outputs
        assert not any(done for _, remote, done in plan_runs if remote)

    def test_bad_txt_target_raises_like_ast(self):
        src = REMOTE.replace("TXT MAH BFF nxt", "TXT MAH BFF SUM OF nxt AN 5")
        assert "out of range" in _same_error(src, 2)


@pytest.mark.parametrize("n_pes", [1, 2, 4])
@pytest.mark.parametrize("name", ["heat2d", "heat3d", "nbody"])
def test_nested_kernels_match_ast(plan_runs, name, n_pes):
    src = get_workload(name).source(smoke=True)
    for seed in range(25):
        got = run_lolcode(src, n_pes, engine="vm", seed=seed).outputs
        want = run_lolcode(src, n_pes, engine="ast", seed=seed).outputs
        assert got == want, seed
    ran = {(depth > 1, remote) for depth, remote, done in plan_runs if done}
    assert (True, False) in ran  # a nest ran as one plan
    assert ((False, True) in ran) == (n_pes > 1)  # so did the halo slices


# ---------------------------------------------------------------------------
# Draw loops: WHATEVR/WHATEVAR columns, if-converted arms, scatter folds.
# ---------------------------------------------------------------------------


def _both(src: str, prime=None):
    """Run ``src`` serially on vm and ast from the same generator state;
    ``prime(rng)`` may rewrite that state first."""
    vm_ctx, ast_ctx = serial_context(), serial_context()
    if prime is not None:
        prime(vm_ctx.rng)
        prime(ast_ctx.rng)
    m = _compile(src).run(vm_ctx)
    Interpreter(parse(src), ast_ctx).run()
    return m, vm_ctx.output, ast_ctx.output


def _untemper(y: int) -> int:
    """Invert MT19937's output tempering (``y`` is one 32-bit output)."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680 & 0xFFFFFFFF)
    y = x
    for _ in range(3):
        x = y ^ (x >> 11)
    return x


def _next_word_all_ones(rng: random.Random) -> None:
    """Make the generator's next 32-bit output ``0xFFFFFFFF``, which
    ``randrange(0, 2**31 - 1)`` rejects."""
    version, internal, gauss = rng.getstate()
    key = list(internal[:624])
    key[0] = _untemper(0xFFFFFFFF)
    rng.setstate((version, tuple(key) + (0,), gauss))


VEC_DRAW_CASES = {
    # pi's body: two WHATEVAR columns, a comparison, a masked int fold.
    "darts": lol(
        "I HAS A hits ITZ A NUMBR AN ITZ 0\n"
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 300\n"
        "  I HAS A x ITZ WHATEVAR\n"
        "  I HAS A y ITZ WHATEVAR\n"
        "  SMALLR SUM OF SQUAR OF x AN SQUAR OF y AN 1.0, O RLY?\n"
        "  YA RLY,\n"
        "    hits R SUM OF hits AN 1\n"
        "  OIC\n"
        "IM OUTTA YR l\n"
        'VISIBLE hits " " IT " " WHATEVAR'
    ),
    # Both arms: float folds over the selected lanes in lane order, a
    # plain store of the last selected lane, NO WAI as the negated mask.
    "two_arms": lol(
        "I HAS A lo ITZ 0.25\n"
        "I HAS A hi ITZ 0.5\n"
        "I HAS A at ITZ A NUMBR AN ITZ -1\n"
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 64\n"
        "  I HAS A x ITZ WHATEVAR\n"
        "  BIGGER x AN 0.5, O RLY?\n"
        "  YA RLY,\n"
        "    hi R SUM OF hi AN x\n"
        "    at R i\n"
        "  NO WAI,\n"
        "    lo R DIFF OF lo AN PRODUKT OF x AN 0.1\n"
        "  OIC\n"
        "IM OUTTA YR l\n"
        'VISIBLE lo " " hi " " at'
    ),
    # No lane selected: the plain store leaves the value alone.
    "no_lane_selected": lol(
        "I HAS A seen ITZ 7\n"
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 40\n"
        "  BIGGER WHATEVAR AN 2.0, O RLY?\n"
        "  YA RLY,\n"
        "    seen R i\n"
        "  OIC\n"
        "IM OUTTA YR l\n"
        'VISIBLE seen " " IT'
    ),
    # histogram's body: a cast of a draw, a scatter increment.
    "scatter": lol(
        "I HAS A h ITZ LOTZ A NUMBRS AN THAR IZ 6\n"
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 120\n"
        "  I HAS A b ITZ A NUMBR AN ITZ MAEK PRODUKT OF WHATEVAR AN 6 A NUMBR\n"
        "  h'Z b R SUM OF h'Z b AN SUM OF 1 AN 1\n"
        "IM OUTTA YR l\n"
        "VISIBLE h'Z 0 \" \" h'Z 1 \" \" h'Z 2 \" \" h'Z 3 \" \" h'Z 4 "
        "\" \" h'Z 5"
    ),
    # WHATEVR columns, DIFFRINT/BOTH SAEM on int lanes, IT from a sum.
    "whatevr": lol(
        "I HAS A odd ITZ 0\n"
        "I HAS A big ITZ 0\n"
        "I HAS A at7 ITZ 0\n"
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 50\n"
        "  I HAS A r ITZ WHATEVR\n"
        "  BIGGER r AN 1073741823, O RLY?\n"
        "  YA RLY,\n"
        "    big R SUM OF big AN 1\n"
        "  OIC\n"
        "  I HAS A half ITZ PRODUKT OF r AN 0.5\n"
        "  DIFFRINT half AN MAEK MAEK half A NUMBR A NUMBAR, O RLY?\n"
        "  YA RLY,\n"
        "    odd R SUM OF odd AN 1\n"
        "  OIC\n"
        "  BOTH SAEM i AN 7, O RLY?\n"
        "  YA RLY,\n"
        "    at7 R r\n"
        "  OIC\n"
        "  SUM OF i AN 0.5\n"
        "IM OUTTA YR l\n"
        'VISIBLE big " " odd " " at7 " " IT " " WHATEVR'
    ),
}


class TestDrawLoops:
    @pytest.mark.parametrize("case", sorted(VEC_DRAW_CASES))
    def test_draw_loop_vectorizes_bit_identically(self, case):
        m, got, want = _both(VEC_DRAW_CASES[case])
        assert (m.vec_runs, m.vec_bails) == (1, 0)
        assert got == want

    def test_it_commits_a_python_bool(self):
        m, _, _ = _both(VEC_DRAW_CASES["darts"])
        assert m.vec_runs == 1
        assert type(m.gframe[0]) is bool

    def test_scatter_guard_bail_restores_the_generator(self):
        # The addend fails the magnitude guard only after the draws were
        # taken: the bail must hand the scalar loop the same stream.
        src = VEC_DRAW_CASES["scatter"].replace(
            "SUM OF 1 AN 1", "1073741825"
        ).replace("KTHXBYE", "VISIBLE WHATEVAR\nKTHXBYE")
        m, got, want = _both(src)
        assert (m.vec_runs, m.vec_bails) == (0, 1)
        assert got == want

    def test_whatevr_rejection_bail_restores_the_generator(self):
        probe = random.Random(5)
        _next_word_all_ones(probe)
        assert probe.getrandbits(32) == 0xFFFFFFFF
        m, got, want = _both(VEC_DRAW_CASES["whatevr"], _next_word_all_ones)
        assert (m.vec_runs, m.vec_bails) == (0, 1)
        assert got == want

    def test_short_draw_loops_stay_scalar(self):
        short = VEC_DRAW_CASES["darts"].replace("AN 300", "AN 8")
        assert isa.LOOP_VEC not in _ops(_compile(short).co)
        runtime = short.replace(
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8",
            "I HAS A lim ITZ 8\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN lim",
        )
        m, got, want = _both(runtime)
        assert (m.vec_runs, m.vec_bails) == (0, 1)
        assert got == want

    @pytest.mark.parametrize(
        "body",
        [
            # a draw per selected lane only
            "  BIGGER WHATEVAR AN 0.5, O RLY?\n"
            "  YA RLY,\n    s R SUM OF s AN WHATEVAR\n  OIC",
            # MEBBE
            "  BIGGER WHATEVAR AN 0.5, O RLY?\n  YA RLY,\n    s R 1\n"
            "  MEBBE BOTH SAEM i AN 3\n    s R 2\n  OIC",
            # the arm's variable is read elsewhere in the body
            "  BIGGER WHATEVAR AN 0.5, O RLY?\n  YA RLY,\n    s R i\n"
            "  OIC\n  I HAS A t ITZ s",
            # O RLY? on an IT the loop did not compute
            "  O RLY?\n  YA RLY,\n    s R SUM OF s AN 1\n  OIC",
            # IT as an arithmetic operand
            "  BIGGER WHATEVAR AN 0.5\n  I HAS A t ITZ SUM OF IT AN 1",
            # a scatter whose array the body also reads
            "  I HAS A b ITZ MAEK PRODUKT OF WHATEVAR AN 4 A NUMBR\n"
            "  h'Z b R SUM OF h'Z b AN 1\n  I HAS A t ITZ h'Z 0",
        ],
    )
    def test_outside_the_model_gets_no_plan(self, body):
        src = lol(
            "I HAS A s ITZ 0\n"
            "I HAS A h ITZ LOTZ A NUMBRS AN THAR IZ 4\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 40\n"
            f"{body}\n"
            "IM OUTTA YR l\n"
            "VISIBLE s"
        )
        assert isa.LOOP_VEC not in _ops(_compile(src).co)


def _check_draw_kernel(machines, name, n_pes, seeds):
    src = get_workload(name).source(smoke=True)
    for seed in seeds:
        machines.clear()
        got = run_lolcode(src, n_pes, engine="vm", seed=seed).outputs
        want = run_lolcode(src, n_pes, engine="ast", seed=seed).outputs
        assert got == want, seed
        assert len(machines) == n_pes
        assert all(m.vec_runs >= 1 for m in machines), seed


@pytest.mark.parametrize("n_pes", [1, 2, 4])
@pytest.mark.parametrize("name", ["pi_montecarlo", "histogram"])
def test_draw_kernels_match_ast(vm_machines, name, n_pes):
    _check_draw_kernel(vm_machines, name, n_pes, range(25))


@pytest.mark.slow
@pytest.mark.parametrize("n_pes", [1, 2, 4])
@pytest.mark.parametrize("name", ["pi_montecarlo", "histogram"])
def test_draw_kernels_match_ast_100_seeds(vm_machines, name, n_pes):
    _check_draw_kernel(vm_machines, name, n_pes, range(100))


# ---------------------------------------------------------------------------
# Typed QUOSHUNT OF / MOD OF opcodes, one-dispatch remote gets and
# fused ``<comparison>, O RLY?`` branches.
# ---------------------------------------------------------------------------


def _parity(src: str, n_pes: int = 1, **kwargs):
    """vm and ast give the same outputs, or raise the same error class,
    message and position; returns the vm result (or the error)."""
    results = []
    for engine in ("vm", "ast"):
        try:
            results.append(run_lolcode(src, n_pes, engine=engine, **kwargs))
        except LolError as exc:
            results.append(exc)
    got, want = results
    if isinstance(want, LolError):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        assert got.pos == want.pos
    else:
        assert not isinstance(got, LolError), got
        assert got.outputs == want.outputs
    return got


_OPERANDS = [
    ("7", "2"), ("-7", "2"), ("7", "-2"), ("-7", "-2"),
    ("7.5", "2.0"), ("-7.5", "2.0"), ("7", "2.5"), ("7.5", "2"),
    ('"7"', "2"), ("7", '"2"'), ('"7.5"', "2"),
    ("WIN", "2"), ("7", "WIN"), ("NOOB", "2"), ("7", "NOOB"),
    ("7", "0"), ("7.0", "0.0"), ("7", "0.0"), ("0", "-0.0"),
]


@pytest.mark.parametrize(
    "op", ["QUOSHUNT OF", "MOD OF", "BIGGR OF", "SMALLR OF"]
)
@pytest.mark.parametrize("lhs,rhs", _OPERANDS)
def test_int_float_ops_match_ast(op, lhs, rhs):
    # register/register, register/constant and constant/register forms
    _parity(lol(f"I HAS A a ITZ {lhs}\nI HAS A b ITZ {rhs}\nVISIBLE {op} a AN b"))
    _parity(lol(f"I HAS A a ITZ {lhs}\nVISIBLE {op} a AN {rhs}"))
    _parity(lol(f"I HAS A b ITZ {rhs}\nVISIBLE {op} {lhs} AN b"))


def test_quoshunt_and_mod_get_typed_opcodes():
    ops = _ops(
        _compile(
            lol(
                "I HAS A a ITZ 7\nI HAS A b ITZ 2\n"
                "VISIBLE QUOSHUNT OF a AN b MOD OF a AN b "
                "QUOSHUNT OF a AN 3 MOD OF a AN 3"
            )
        ).co
    )
    for code in (isa.DIV_SS, isa.MOD_SS, isa.DIV_SC, isa.MOD_SC):
        assert code in ops
    assert isa.BINOP not in ops and isa.BINOP_SC not in ops


TXT_GETS = lol(
    "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
    "WE HAS A f ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4\n"
    "WE HAS A s ITZ SRSLY A NUMBR\n"
    "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4\n"
    "  a'Z i R SUM OF PRODUKT OF ME AN 10 AN i\n"
    "  f'Z i R QUOSHUNT OF a'Z i AN 4.0\n"
    "IM OUTTA YR l\n"
    "s R PRODUKT OF ME AN 100\n"
    "HUGZ\n"
    "I HAS A pe ITZ {pe}\n"
    "I HAS A i ITZ {i}\n"
    "I HAS A x ITZ 0\n"
    "I HAS A y ITZ A NUMBAR AN ITZ 0.0\n"
    "I HAS A z ITZ A NUMBR AN ITZ 0\n"
    "TXT MAH BFF pe, x R UR a'Z MOD OF SUM OF i AN ME AN 4\n"
    "TXT MAH BFF pe, y R UR a'Z i\n"
    "TXT MAH BFF pe, z R UR f'Z i\n"
    "TXT MAH BFF pe, i R UR s\n"
    'VISIBLE x " " y " " z " " i\n'
    "IM IN YR p UPPIN YR q TIL BOTH SAEM q AN MAH FRENZ\n"
    "  TXT MAH BFF q, x R UR a'Z 3\n"
    "  VISIBLE x\n"
    "IM OUTTA YR p\n"
    "HUGZ"
)


class TestTxtGet:
    def test_one_statement_txt_get_is_one_instruction(self):
        ops = _ops(_compile(TXT_GETS.format(pe=0, i=1)).co)
        assert ops.count(isa.TXT_GET) == 4
        # an index of two operators keeps the push, the get and the pop
        assert ops.count(isa.TXT_PUSH) == ops.count(isa.GETX) == 1

    @pytest.mark.parametrize(
        "pe", ["MOD OF SUM OF ME AN 1 AN MAH FRENZ", '"1"', "1.0", "WIN"]
    )
    @pytest.mark.parametrize("n_pes", [2, 4])
    def test_matches_ast(self, pe, n_pes):
        _parity(TXT_GETS.format(pe=pe, i=2), n_pes)

    @pytest.mark.parametrize("pe,shown", [("7", "7"), ('"-1"', "-1")])
    def test_out_of_range_pe_raises_like_ast(self, pe, shown):
        err = _parity(TXT_GETS.format(pe=pe, i=2), 2)
        assert isinstance(err, LolError)
        assert f"TXT MAH BFF {shown}: PE out of range [0, 2)" in str(err)

    @pytest.mark.parametrize("i", ["4", "-1", '"x"', "NOOB"])
    def test_bad_index_raises_like_ast(self, i):
        assert isinstance(_parity(TXT_GETS.format(pe=1, i=i), 2), LolError)

    def test_a_call_keeps_push_and_pop(self):
        src = lol(
            "WE HAS A s ITZ SRSLY A NUMBR\n"
            "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 2\n"
            "HOW IZ I peek\n"
            "  FOUND YR UR s\n"
            "IF U SAY SO\n"
            "HOW IZ I nxt\n"
            "  FOUND YR MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "IF U SAY SO\n"
            "s R 1\n"
            "a'Z 1 R SUM OF ME AN 5\n"
            "HUGZ\n"
            "I HAS A x ITZ 0\n"
            "TXT MAH BFF 1, x R UR a'Z I IZ peek MKAY\n"
            "VISIBLE x\n"
            "TXT MAH BFF I IZ nxt MKAY, x R UR a'Z 1\n"
            "VISIBLE x\n"
            "HUGZ"
        )
        ops = _ops(_compile(src).co)
        assert isa.TXT_GET not in ops and ops.count(isa.TXT_PUSH) == 2
        _parity(src, 2)

    def test_comm_counters_match_ast(self):
        from repro import obs

        src = get_workload("bfs").source(smoke=True)
        counts = {}
        obs.arm("metrics")
        try:
            registry = obs.get_registry()
            for engine in ("vm", "ast"):
                before = registry.snapshot(collect=False)
                run_lolcode(src, 4, engine=engine)
                delta = obs.diff_snapshots(before, registry.snapshot(collect=False))
                counts[engine] = {
                    k: v for k, v in delta.items() if k.startswith("lol_comm")
                }
        finally:
            obs.disarm()
        assert counts["vm"] == counts["ast"]
        ops = counts["vm"]["lol_comm_ops_total"]["series"]
        assert ops['[["op", "get"]]'] > 0

    def test_race_detector_sees_the_fused_get(self):
        src = lol(
            "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 2\n"
            "I HAS A x ITZ 0\n"
            "BOTH SAEM ME AN 0, O RLY?\n"
            "YA RLY, a'Z 0 R 5\n"
            "NO WAI, TXT MAH BFF 0, x R UR a'Z 0\n"
            "OIC\n"
            "HUGZ"
        )
        assert isa.TXT_GET in _ops(_compile(src).co)
        got = run_lolcode(src, 2, engine="vm", race_detection=True)
        want = run_lolcode(src, 2, engine="ast", race_detection=True)
        assert got.races and len(got.races) == len(want.races)
        assert {r.symbol for r in got.races} == {"a"}

    def test_flop_counts_match_ast(self):
        for name in ("bfs", "spmv", "sample_sort"):
            src = get_workload(name).source(smoke=True)
            a = run_lolcode(src, 2, engine="ast", trace=True)
            v = run_lolcode(src, 2, engine="vm", trace=True)
            assert a.outputs == v.outputs
            assert a.trace.total_flops() == v.trace.total_flops() > 0
            assert a.trace.summary() == v.trace.summary()

    def test_max_steps_cut_off_points_match_ast(self):
        src = TXT_GETS.format(pe="MOD OF SUM OF ME AN 1 AN MAH FRENZ", i=2)
        for limit in range(1, 80):
            _parity(src.replace("HUGZ\nKTHXBYE", "KTHXBYE"), 1, max_steps=limit)


#: Remote gets feeding every arithmetic operator on either side, stored
#: into a typed NUMBR, a typed NUMBAR and an untyped local, then a
#: scalar and an element put each followed by ``HUGZ``.
REMOTE_OPERANDS = lol(
    "WE HAS A s ITZ SRSLY A NUMBR\n"
    "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
    "s R DIFF OF PRODUKT OF ME AN 3 AN 7\n"
    "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4\n"
    "  a'Z i R DIFF OF SUM OF i AN 1 AN PRODUKT OF ME AN 10\n"
    "IM OUTTA YR l\n"
    "HUGZ\n"
    "I HAS A k ITZ -3\n"
    "I HAS A i ITZ 2\n"
    "I HAS A n ITZ A NUMBR AN ITZ 0\n"
    "I HAS A f ITZ A NUMBAR AN ITZ 0.0\n"
    "I HAS A u ITZ 0\n"
    "I HAS A nxt ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
    "TXT MAH BFF nxt AN STUFF,\n"
    "{gets}"
    "TTYL\n"
    "HUGZ\n"
    "TXT MAH BFF nxt AN STUFF,\n"
    "  UR s R PRODUKT OF ME AN 2.5\n"
    "  HUGZ\n"
    "  UR a'Z i R SUM OF ME AN 0.5\n"
    "  HUGZ\n"
    "TTYL\n"
    "VISIBLE s \" \" a'Z i"
)


def _remote_gets(op: str) -> str:
    lines = []
    for remote in ("UR s", "UR a'Z i"):
        for other in ("k", "2.5"):
            for dst in ("n", "f", "u"):
                for lhs, rhs in ((remote, other), (other, remote)):
                    lines.append(f"  {dst} R {op} {lhs} AN {rhs}\n  VISIBLE {dst}\n")
    return "".join(lines)


#: Declarations for the error table: ``j`` is out of range for ``a``,
#: ``y`` is a YARN index and ``z`` holds NOOB on every PE.
REMOTE_ERRORS = lol(
    "WE HAS A s ITZ SRSLY A NUMBR\n"
    "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
    "WE HAS A z ITZ SRSLY A NOOB\n"
    "I HAS A k ITZ 3\n"
    "I HAS A j ITZ 9\n"
    "I HAS A y ITZ \"x\"\n"
    "I HAS A n ITZ A NUMBR AN ITZ 0\n"
    "I HAS A f ITZ A NUMBAR AN ITZ 0.0\n"
    "I HAS A u ITZ 0\n"
    "HUGZ\n"
    "{body}"
)


class TestRemoteOperands:
    """The remote shapes every registry kernel compiles the same way: a
    cached ``GET``/``GETX`` into the operator and the store, and
    ``PUT``/``PUTX`` then ``BARRIER``."""

    OPS = [
        "SUM OF", "DIFF OF", "PRODUKT OF", "QUOSHUNT OF", "MOD OF",
        "BIGGR OF", "SMALLR OF",
    ]

    def test_gets_and_puts_compile_to_the_cached_paths(self):
        ops = _ops(_compile(REMOTE_OPERANDS.format(gets=_remote_gets("SUM OF"))).co)
        assert ops.count(isa.GET) == ops.count(isa.GETX) == 12
        assert ops.count(isa.PUT) == ops.count(isa.PUTX) == 1
        assert ops.count(isa.BARRIER) == 4

    @pytest.mark.parametrize("n_pes", [2, 4])
    @pytest.mark.parametrize("op", OPS)
    def test_matches_ast(self, op, n_pes):
        got = _parity(REMOTE_OPERANDS.format(gets=_remote_gets(op)), n_pes)
        assert not isinstance(got, LolError), got

    @pytest.mark.parametrize("n_pes", [2, 4])
    @pytest.mark.parametrize("op", OPS)
    def test_traced_flops_match_ast(self, op, n_pes):
        src = REMOTE_OPERANDS.format(gets=_remote_gets(op))
        a = run_lolcode(src, n_pes, engine="ast", trace=True)
        v = run_lolcode(src, n_pes, engine="vm", trace=True)
        assert a.outputs == v.outputs
        assert a.trace.total_flops() == v.trace.total_flops() > 0
        assert a.trace.summary() == v.trace.summary()

    @pytest.mark.parametrize("n_pes", [2, 4])
    @pytest.mark.parametrize("op", OPS)
    def test_max_steps_cut_off_points_match_ast(self, op, n_pes):
        src = REMOTE_OPERANDS.format(gets=_remote_gets(op))
        for limit in range(1, 80):
            _parity(src, n_pes, max_steps=limit)

    @pytest.mark.parametrize(
        "stmt",
        [
            "u R SUM OF UR a'Z j AN k",
            "n R PRODUKT OF k AN UR a'Z y",
            "f R DIFF OF UR z AN k",
            "UR a'Z j R k\n  HUGZ",
            "UR a'Z y R k\n  HUGZ",
        ],
        ids=["get-range", "get-yarn-index", "get-noob", "put-range", "put-yarn-index"],
    )
    @pytest.mark.parametrize("in_txt", [True, False], ids=["txt", "no-txt"])
    def test_errors_raise_like_ast(self, stmt, in_txt):
        body = f"TXT MAH BFF 1 AN STUFF,\n  {stmt}\nTTYL" if in_txt else stmt
        assert isinstance(_parity(REMOTE_ERRORS.format(body=body), 2), LolError)

    @pytest.mark.parametrize("stmt", ["u R SUM OF UR s AN k", "UR s R k\nHUGZ"])
    def test_no_txt_target_raises_like_ast(self, stmt):
        err = _parity(REMOTE_ERRORS.format(body=stmt), 2)
        assert "used outside a TXT MAH BFF" in str(err)


class TestOrly:
    SRC = lol(
        "I HAS A a ITZ {a}\n"
        "I HAS A b ITZ {b}\n"
        "{cmp}, O RLY?\n"
        "YA RLY, VISIBLE \"ya \" IT\n"
        "NO WAI, VISIBLE \"no \" IT\n"
        "OIC\n"
        "VISIBLE IT"
    )

    @pytest.mark.parametrize(
        "cmp",
        [
            "BOTH SAEM a AN b", "DIFFRINT a AN b", "BIGGER a AN b",
            "SMALLR a AN b", "BOTH SAEM a AN 3", "BIGGER a AN 3",
            "SMALLR 3 AN a", "DIFFRINT 3.0 AN a",
        ],
    )
    @pytest.mark.parametrize(
        "a,b", [("3", "4"), ("4", "3"), ("3", "3.0"), ('"3"', "3"), ("NOOB", "3")]
    )
    def test_sets_it_and_branches_like_ast(self, cmp, a, b):
        src = self.SRC.format(a=a, b=b, cmp=cmp)
        ops = _ops(_compile(src).co)
        assert any(isa.ORLY_EQ_SS <= op <= isa.ORLY_LT_SC for op in ops)
        assert isa.JF not in ops
        _parity(src)

    def test_jumps_never_land_on_a_jmp(self):
        prog = _compile(get_workload("sample_sort").source())
        code = prog.co.code
        for ins in code:
            for i, kind in enumerate(isa.OPFIELDS[ins[0]], start=1):
                if kind == "j":
                    assert code[ins[i]][0] != isa.JMP


@pytest.mark.parametrize("n_pes", [1, 2, 4])
@pytest.mark.parametrize("name", ["bfs", "sample_sort", "spmv"])
def test_irregular_kernels_match_ast(name, n_pes):
    src = get_workload(name).source(smoke=True)
    for seed in range(25):
        got = run_lolcode(src, n_pes, engine="vm", seed=seed).outputs
        want = run_lolcode(src, n_pes, engine="ast", seed=seed).outputs
        assert got == want, seed


# ---------------------------------------------------------------------------
# loldis golden snapshot.
# ---------------------------------------------------------------------------


DIS_KERNEL = (
    "HAI 1.2\n"
    "WE HAS A slot ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
    "I HAS A u ITZ LOTZ A NUMBARS AN THAR IZ 8\n"
    "IM IN YR fill UPPIN YR i TIL BOTH SAEM i AN 8\n"
    "  u'Z i R PRODUKT OF 2.5 AN i\n"
    "IM OUTTA YR fill\n"
    "I HAS A nxt ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
    "I HAS A got ITZ 0\n"
    "TXT MAH BFF nxt AN STUFF,\n"
    "  UR slot R ME\n"
    "  HUGZ\n"
    "  got R SUM OF UR slot AN nxt\n"
    "TTYL\n"
    "VISIBLE got\n"
    "KTHXBYE\n"
)


class TestDisassembler:
    def test_golden_snapshot(self):
        out = disassemble_source(DIS_KERNEL, filename="vm_kernel.lol")
        golden = (GOLDEN / "vm_kernel.dis").read_text()
        assert out + "\n" == golden, (
            "disassembly drifted from tests/golden/vm_kernel.dis; if the "
            "change is intentional, regenerate the golden file"
        )

    def test_deterministic_across_compiles(self):
        a = disassemble_source(DIS_KERNEL, filename="vm_kernel.lol")
        b = disassemble_source(DIS_KERNEL, filename="vm_kernel.lol")
        assert a == b

    def test_kernel_actually_runs(self):
        # The golden program is a live ring exchange, not a parse-only
        # fixture: each PE publishes ME to its left neighbour then adds
        # its own successor id to what it received.
        r = run_lolcode(DIS_KERNEL, 4, seed=0, engine="vm")
        ref = run_lolcode(DIS_KERNEL, 4, seed=0, engine="ast")
        assert r.outputs == ref.outputs
