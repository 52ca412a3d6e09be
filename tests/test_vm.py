"""Register-bytecode VM engine tests.

Covers the pieces that make ``engine="vm"`` the fastest pure-Python
path and keep it honest:

* superinstruction fusion (``INC_JMP``, fused compare-branches,
  ``PUT_BARRIER``, ``GET_BIN``);
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

    def test_put_hugz_fuses_to_put_barrier(self):
        prog = _compile(
            lol(
                "WE HAS A s ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
                "TXT MAH BFF 0 AN STUFF,\n"
                "  UR s R ME\n"
                "  HUGZ\n"
                "TTYL"
            )
        )
        ops = _ops(prog.co)
        assert isa.PUT_BARRIER in ops
        assert isa.PUT not in ops, "the put must be consumed by the fusion"

    def test_remote_get_feeding_binop_fuses_to_get_bin(self):
        prog = _compile(
            lol(
                "WE HAS A s ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
                "I HAS A nxt ITZ 0\n"
                "I HAS A got ITZ 0\n"
                "TXT MAH BFF nxt AN STUFF,\n"
                "  got R SUM OF UR s AN nxt\n"
                "TTYL"
            )
        )
        assert isa.GET_BIN in _ops(prog.co)

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
            transpose=2, bfs=1, sample_sort=1, pi_montecarlo=2, histogram=1,
            nbody=4, nbody_racy=4, heat1d=3, heat2d=3, heat3d=3,
        )
        assert got == want


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
