"""Register-bytecode VM engine tests.

Covers the pieces that make ``engine="vm"`` the fastest pure-Python
path and keep it honest:

* superinstruction fusion (``INC_JMP``, fused compare-branches,
  ``PUT_BARRIER``, ``GET_BIN``);
* jump patching (no unresolved labels, all targets in range);
* symmetric-access inline caches (hit on repeat access);
* ``LOOP_VEC`` — the guarded loop vectorizer: it runs where legal,
  bails to bit-identical scalar execution where not, and never
  mis-vectorizes a loop-carried recurrence;
* ``loldis`` golden snapshot (the disassembly is deterministic).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.lang import parse
from repro.launcher import plan_from_program, run_lolcode
from repro.shmem.api import serial_context
from repro.vm import Machine, compile_program_vm, disassemble_source
from repro.vm import isa
from repro.vm.isa import Label

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
        # LOOP_VEC sites per registry workload at default sizes: the
        # scope rule must not cost the kernels their vectorized loops.
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
            transpose=2, bfs=1, sample_sort=1, pi_montecarlo=1, nbody=4,
            nbody_racy=4, heat1d=3, heat2d=3, heat3d=3,
        )
        assert got == want


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
