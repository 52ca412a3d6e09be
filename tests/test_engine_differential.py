"""Differential tests: every engine against the reference tree-walker.

The bytecode VM must be observationally identical to the reference tree-walker (and, where the
program is compilable, so must the native C engine) — same VISIBLE
output per PE, same FLOP/op accounting, same RNG draw sequence (the
native prelude draws ``WHATEVR``/``WHATEVAR`` from the interpreters'
per-PE Mersenne Twister, in source order).  This suite checks that
property on

* every bundled paper example at 1/2/4 PEs,
* hand-written programs covering each construct, serial and SPMD,
* every workload in the registry, full-matrix at 1 and 4 PEs on the
  thread executor — including ``engine="c"`` when a host C compiler
  exists (compile-time-restricted workloads and toolchain-less hosts
  must be *explicitly* skipped, never silently dropped),
* the same registry on the pool executor, both the warm default pool
  and a freshly spawned private one (Python engines only there: the
  native engine has exactly one execution vehicle — OS processes —
  whichever executor is named, so re-running it per executor re-tests
  the identical code path),
* randomized arithmetic/loop/predication programs (seeded, so failures
  reproduce),
* the ``HUGZ`` barrier and ``IM SRSLY MESIN WIF`` lock paths at 4 PEs.
"""

import random

import pytest

from repro import run_lolcode
from repro.compiler import CompileError
from repro.compiler.native import find_cc
from repro.launcher import ENGINES
from repro.workloads import all_workloads

from .conftest import EXAMPLES_LOL, lol

EXAMPLES = ["ring.lol", "locks.lol", "barrier.lol", "nbody2d_fixed.lol"]

WORKLOAD_NAMES = [w.name for w in all_workloads()]


def both_engines(src: str, n_pes: int, **kwargs):
    a = run_lolcode(src, n_pes, engine="ast", **kwargs)
    v = run_lolcode(src, n_pes, engine="vm", **kwargs)
    return a, v


def assert_engines_agree(src: str, n_pes: int, **kwargs):
    a, v = both_engines(src, n_pes, **kwargs)
    assert a.outputs == v.outputs, (
        f"VM engine diverged from tree-walker at {n_pes} PEs"
    )
    return a, v


class TestPaperExamples:
    @pytest.mark.parametrize("name", EXAMPLES)
    @pytest.mark.parametrize("n_pes", [1, 2, 4])
    def test_outputs_identical_all_three_engines(self, name, n_pes):
        src = (EXAMPLES_LOL / name).read_text()
        assert_engines_agree(src, n_pes, seed=42)

    def test_racy_nbody_single_pe(self):
        # The racy listing is only deterministic at 1 PE; that is enough
        # to pin the VM to the tree-walker on it too.
        src = (EXAMPLES_LOL / "nbody2d.lol").read_text()
        assert_engines_agree(src, 1, seed=7)

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_trace_accounting_identical(self, name):
        src = (EXAMPLES_LOL / name).read_text()
        a, v = both_engines(src, 2, seed=42, trace=True)
        assert a.trace.total_flops() == v.trace.total_flops()
        assert a.trace.total_remote_bytes() == v.trace.total_remote_bytes()
        assert a.trace.summary() == v.trace.summary()


# ---------------------------------------------------------------------------
# Hand-written programs, one construct at a time: tree-walker vs VM.
# ---------------------------------------------------------------------------


def ast_vs_vm(body: str, n_pes: int = 1, seed: int = 5, **kwargs):
    """Run ``body`` on the tree-walker and the VM; outputs must match."""
    src = lol(body)
    a = run_lolcode(src, n_pes, engine="ast", seed=seed, **kwargs)
    v = run_lolcode(src, n_pes, engine="vm", seed=seed, **kwargs)
    assert a.outputs == v.outputs, (
        f"VM diverged from tree-walker:\n{a.outputs!r}\n{v.outputs!r}"
    )
    return v


class TestDifferentialSerial:
    """Tree-walker and VM must agree exactly (1 PE)."""

    CASES = [
        'VISIBLE "HAI" 42 3.14 WIN',
        "I HAS A x ITZ 5\nx R SUM OF x AN 2\nVISIBLE x",
        "I HAS A x ITZ SRSLY A NUMBR\nx R 3.9\nVISIBLE x",
        "VISIBLE QUOSHUNT OF -7 AN 2\nVISIBLE MOD OF -7 AN 3",
        "VISIBLE BIGGR OF 3 AN 9\nVISIBLE SMALLR OF 3 AN 9",
        'VISIBLE SMOOSH "a" AN 1 AN 2.5 AN FAIL MKAY',
        "VISIBLE MAEK 3.99 A NUMBR\nVISIBLE MAEK 2 A NUMBAR\nVISIBLE MAEK 0 A TROOF",
        'VISIBLE ALL OF WIN AN 1 AN "x" MKAY\nVISIBLE ANY OF FAIL AN 0 MKAY',
        "VISIBLE SQUAR OF 7\nVISIBLE UNSQUAR OF 81\nVISIBLE FLIP OF 8",
        "VISIBLE BOTH SAEM 2 AN 2.0\nVISIBLE DIFFRINT 2 AN 3",
        "VISIBLE BIGGER 4 AN 2\nVISIBLE SMALLR 4 AN 2",
        "VISIBLE WON OF WIN AN WIN\nVISIBLE NOT FAIL",
        "I HAS A x ITZ 2\nBOTH SAEM x AN 2, O RLY?\nYA RLY,\n  VISIBLE 1\nNO WAI\n  VISIBLE 0\nOIC",
        "I HAS A x ITZ 3\nBOTH SAEM x AN 1, O RLY?\nYA RLY,\n  VISIBLE 1\nMEBBE BOTH SAEM x AN 3\n  VISIBLE 3\nNO WAI\n  VISIBLE 0\nOIC",
        "2\nWTF?\nOMG 1\n  VISIBLE 1\nOMG 2\n  VISIBLE 2\nOMG 3\n  VISIBLE 3\n  GTFO\nOMGWTF\n  VISIBLE 9\nOIC",
        "7\nWTF?\nOMG 1\n  VISIBLE 1\nOMGWTF\n  VISIBLE 9\nOIC",
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 5\n  VISIBLE i\nIM OUTTA YR l",
        "IM IN YR l NERFIN YR i WILE BIGGER i AN -4\n  VISIBLE i\nIM OUTTA YR l",
        "IM IN YR a UPPIN YR i TIL BOTH SAEM i AN 3\n  IM IN YR b UPPIN YR j TIL BOTH SAEM j AN 2\n    VISIBLE SUM OF PRODUKT OF i AN 10 AN j\n  IM OUTTA YR b\nIM OUTTA YR a",
        "I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 5\na'Z 2 R 42\nVISIBLE a'Z 2 a'Z 0",
        "I HAS A a ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 3\na'Z 0 R 1.5\nVISIBLE a'Z 0",
        "HOW IZ I fact YR n\n  BOTH SAEM n AN 0, O RLY?\n  YA RLY,\n    FOUND YR 1\n  OIC\n  FOUND YR PRODUKT OF n AN I IZ fact YR DIFF OF n AN 1 MKAY\nIF U SAY SO\nVISIBLE I IZ fact YR 6 MKAY",
        "HOW IZ I f\n  SUM OF 40 AN 2\nIF U SAY SO\nVISIBLE I IZ f MKAY",
        "I HAS A g ITZ 1\nHOW IZ I bump\n  g R SUM OF g AN 1\n  FOUND YR g\nIF U SAY SO\nVISIBLE I IZ bump MKAY\nVISIBLE g",
        'I HAS A pe ITZ 7\nVISIBLE "id=:{pe}."',
        "I HAS A x ITZ 3.5\nx IS NOW A NUMBR\nVISIBLE x",
        "SUM OF 1 AN 2\nVISIBLE IT",
        'VISIBLE SUM OF "3" AN "4"\nVISIBLE SUM OF "1.5" AN 1',
        'VISIBLE "a:)b:>c"',
        "VISIBLE NOT 0\nVISIBLE NOT 0.0\nVISIBLE NOT \"\"",
    ]

    @pytest.mark.parametrize("body", CASES, ids=range(len(CASES)))
    def test_case(self, body):
        ast_vs_vm(body)


class TestDifferentialParallel:
    """Tree-walker and VM must agree exactly on SPMD programs."""

    def test_identity(self):
        ast_vs_vm('VISIBLE ME "/" MAH FRENZ', n_pes=4)

    def test_ring_put(self):
        body = (
            "WE HAS A a ITZ SRSLY A NUMBR\n"
            "WE HAS A b ITZ SRSLY A NUMBR\n"
            "a R SUM OF ME AN 1\nHUGZ\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF k, UR b R MAH a\nHUGZ\n"
            "VISIBLE SUM OF a AN b"
        )
        ast_vs_vm(body, n_pes=4)

    def test_whole_array_transfer(self):
        body = (
            "WE HAS A array ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8\n"
            "  array'Z i R SUM OF PRODUKT OF ME AN 100 AN i\n"
            "IM OUTTA YR l\nHUGZ\n"
            "I HAS A local ITZ LOTZ A NUMBRS AN THAR IZ 8\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF k, MAH local R UR array\n"
            "VISIBLE local'Z 0 \" \" local'Z 7"
        )
        ast_vs_vm(body, n_pes=3)

    def test_locks(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\nHUGZ\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\n"
            "  IM SRSLY MESIN WIF x\n"
            "  TXT MAH BFF 0, UR x R SUM OF UR x AN 1\n"
            "  DUN MESIN WIF x\n"
            "IM OUTTA YR l\nHUGZ\n"
            "BOTH SAEM ME AN 0, O RLY?\nYA RLY,\n  VISIBLE x\nOIC"
        )
        v = ast_vs_vm(body, n_pes=4)
        assert v.outputs[0] == "40\n"

    def test_trylock_sets_it(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "IM MESIN WIF x\nVISIBLE IT\nDUN MESIN WIF x"
        )
        ast_vs_vm(body, n_pes=1)

    def test_random_streams_match(self):
        # Both engines draw from ctx.rng, so seeded streams agree.
        ast_vs_vm("VISIBLE WHATEVR\nVISIBLE WHATEVAR", n_pes=3, seed=11)

    def test_block_predication(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "WE HAS A y ITZ SRSLY A NUMBR\n"
            "x R ME\ny R PRODUKT OF ME AN 2\nHUGZ\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "I HAS A s ITZ A NUMBR\n"
            "TXT MAH BFF k AN STUFF\n"
            "  s R SUM OF UR x AN UR y\n"
            "TTYL\n"
            "VISIBLE s"
        )
        ast_vs_vm(body, n_pes=4)

    @pytest.mark.procs
    def test_pool_executor(self):
        body = (
            "WE HAS A a ITZ SRSLY A NUMBR\n"
            "a R PRODUKT OF ME AN 3\nHUGZ\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "I HAS A got ITZ A NUMBR\n"
            "TXT MAH BFF k, got R UR a\n"
            "VISIBLE got"
        )
        v = ast_vs_vm(body, n_pes=3, executor="pool", barrier_timeout=60)
        assert v.outputs == ["3\n", "6\n", "0\n"]


# ---------------------------------------------------------------------------
# Full workload registry, every engine, thread and pool executors.
# ---------------------------------------------------------------------------


def _engine_outputs(
    src: str, n_pes: int, executor: str, seed: int, *, native: bool = False
):
    """Run the engine matrix; returns ``({engine: outputs}, skips)``.

    A C-backend ``CompileError`` is a *documented* restriction
    (SRS computed identifiers, nested/symmetric declarations in
    functions); it is recorded in ``skips`` so the caller can still
    assert interpreter agreement before skip-reporting the missing
    comparison — an *interpreter* engine raising is a real failure.
    ``native=True`` additionally runs ``engine="c"`` (native PEs are OS
    processes whichever executor is named) when a host C compiler
    exists; without one the engine lands in ``skips``.
    """
    outputs = {}
    skips = {}
    kwargs = {"executor": executor, "seed": seed}
    for engine in ENGINES:
        ekw = dict(kwargs)
        if engine == "c":
            if not native:
                continue
            if find_cc() is None:
                skips[engine] = "no C compiler on host"
                continue
            ekw["barrier_timeout"] = 120
        try:
            outputs[engine] = run_lolcode(src, n_pes, engine=engine, **ekw).outputs
        except CompileError as exc:
            assert engine == "c", (
                f"interpreter engine {engine!r} raised CompileError: {exc}"
            )
            skips[engine] = f"{engine}-engine restriction: {exc}"
    return outputs, skips


def _assert_registry_agreement(workload, outputs, skips, n_pes, where):
    """Shared assertion block for the registry matrix tests."""
    if not workload.deterministic and n_pes > 1:
        return  # engines ran; outputs legitimately vary (racy kernel)
    assert outputs["vm"] == outputs["ast"], (
        f"{workload.name}: VM engine diverged from tree-walker at "
        f"{n_pes} PEs {where}"
    )
    if "c" in outputs:
        assert outputs["c"] == outputs["ast"], (
            f"{workload.name}: native engine diverged from tree-walker "
            f"at {n_pes} PEs {where}"
        )
    if skips:
        pytest.skip("; ".join(f"{e}: {r}" for e, r in sorted(skips.items())))


@pytest.mark.workload
class TestWorkloadRegistryMatrix:
    """Every registered workload runs bit-identically on ast, vm, and —
    where a C toolchain exists — the native C engine (or is skipped with
    an explicit reason) — the same guarantee ``lolbench`` enforces per
    sweep cell."""

    @pytest.mark.parametrize("n_pes", [1, 4])
    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_thread_executor(self, workload, n_pes):
        from repro.workloads import get_workload

        w = get_workload(workload)
        if n_pes < w.min_pes:
            pytest.skip(f"{workload} needs >= {w.min_pes} PEs")
        src = w.source(smoke=True)
        outputs, skips = _engine_outputs(
            src, n_pes, "thread", seed=42, native=True
        )
        _assert_registry_agreement(w, outputs, skips, n_pes, "")

    @pytest.mark.procs
    @pytest.mark.slow
    @pytest.mark.parametrize("n_pes", [1, 4])
    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_process_executor(self, workload, n_pes):
        """Process worlds built cold: every Python engine runs on a
        private, freshly spawned :class:`WorkerPool` sized to the cell,
        so the first job on new worker processes (world build, segment
        creation, lock bank at spawn) must agree with the thread
        executor too, not only jobs on the long-lived default pool."""
        from functools import partial

        from repro.lang.parser import parse
        from repro.launcher.spmd import _pe_main, plan_from_program
        from repro.service.pool import WorkerPool
        from repro.workloads import get_workload

        w = get_workload(workload)
        if n_pes < w.min_pes:
            pytest.skip(f"{workload} needs >= {w.min_pes} PEs")
        src = w.source(smoke=True)
        plan = plan_from_program(parse(src), n_pes)
        outputs = {}
        with WorkerPool(n_pes) as pool:
            for engine in ENGINES:
                if engine == "c":
                    continue
                outputs[engine] = pool.run(
                    partial(_pe_main, src, "<string>", None, engine),
                    n_pes,
                    plan,
                    seed=42,
                    barrier_timeout=120,
                ).outputs
        if w.deterministic or n_pes == 1:
            threaded = run_lolcode(
                src, n_pes, engine="ast", executor="thread", seed=42
            ).outputs
            assert outputs["ast"] == threaded, (
                f"{workload}: cold process world diverged from thread "
                f"executor at {n_pes} PEs"
            )
        _assert_registry_agreement(
            w, outputs, {}, n_pes, "on a cold worker pool"
        )

    @pytest.mark.procs
    @pytest.mark.service
    @pytest.mark.parametrize("n_pes", [1, 4])
    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_pool_executor(self, workload, n_pes):
        """The warm worker pool must be observationally identical to the
        thread executor on every registered workload: engine agreement
        *within* the pool, and pool-vs-thread agreement for the
        reference engine.  (Not marked slow: the pool's whole point is
        that repeated jobs cost milliseconds.)"""
        from repro.workloads import get_workload

        w = get_workload(workload)
        if n_pes < w.min_pes:
            pytest.skip(f"{workload} needs >= {w.min_pes} PEs")
        src = w.source(smoke=True)
        outputs, skips = _engine_outputs(src, n_pes, "pool", seed=42)
        if w.deterministic or n_pes == 1:
            threaded = run_lolcode(
                src, n_pes, engine="ast", executor="thread", seed=42
            ).outputs
            assert outputs["ast"] == threaded, (
                f"{workload}: pool executor diverged from thread executor "
                f"at {n_pes} PEs"
            )
        _assert_registry_agreement(
            w, outputs, skips, n_pes, "on the pool executor"
        )


# ---------------------------------------------------------------------------
# Randomized program generation (seeded — failures reproduce exactly).
# ---------------------------------------------------------------------------

_BINOPS = ("SUM OF", "DIFF OF", "PRODUKT OF", "BIGGR OF", "SMALLR OF")
_CMPOPS = ("BOTH SAEM", "DIFFRINT", "BIGGER", "SMALLR")


def _expr(rng: random.Random, names: list[str], depth: int = 0) -> str:
    choices = ["int", "var", "me", "frenz"]
    if depth < 2:
        choices += ["bin", "bin", "mod", "square"]
    kind = rng.choice(choices)
    if kind == "int" or (kind == "var" and not names):
        return str(rng.randrange(-20, 100))
    if kind == "var":
        return rng.choice(names)
    if kind == "me":
        return "ME"
    if kind == "frenz":
        return "MAH FRENZ"
    if kind == "mod":
        # constant, non-zero modulus so no division-by-zero aborts
        return (
            f"MOD OF {_expr(rng, names, depth + 1)} AN {rng.randrange(2, 9)}"
        )
    if kind == "square":
        return f"SQUAR OF {_expr(rng, names, depth + 1)}"
    op = rng.choice(_BINOPS)
    return f"{op} {_expr(rng, names, depth + 1)} AN {_expr(rng, names, depth + 1)}"


def _random_program(seed: int) -> str:
    """A random straight-line/loop/branch program over NUMBR locals."""
    rng = random.Random(seed)
    lines: list[str] = []
    names: list[str] = []
    for i in range(rng.randrange(2, 5)):
        name = f"v{i}"
        lines.append(f"I HAS A {name} ITZ {_expr(rng, names)}")
        names.append(name)
    n_iters = rng.randrange(2, 8)
    body: list[str] = []
    for _ in range(rng.randrange(1, 4)):
        body.append(f"  {rng.choice(names)} R {_expr(rng, names + ['i'])}")
    # a data-dependent branch through IT and O RLY?
    body.append(f"  {rng.choice(_CMPOPS)} MOD OF i AN 2 AN 0")
    body.append("  O RLY?")
    body.append(f"    YA RLY, {rng.choice(names)} R {_expr(rng, names)}")
    body.append(f"    NO WAI, {rng.choice(names)} R {_expr(rng, names + ['i'])}")
    body.append("  OIC")
    lines.append(f"IM IN YR looper UPPIN YR i TIL BOTH SAEM i AN {n_iters}")
    lines.extend(body)
    lines.append("IM OUTTA YR looper")
    for name in names:
        lines.append(f"VISIBLE {name}")
    return lol("\n".join(lines))


@pytest.mark.parametrize("seed", range(25))
def test_random_arithmetic_loop_programs(seed):
    src = _random_program(seed)
    for n_pes in (1, 2):
        assert_engines_agree(src, n_pes, seed=seed)


def _random_predication_program(seed: int) -> str:
    """Random SPMD program exercising TXT MAH BFF / UR / HUGZ at 4 PEs."""
    rng = random.Random(seed)
    size = rng.randrange(4, 9)
    shift = rng.randrange(1, 4)
    lines = [
        f"WE HAS A shard ITZ SRSLY LOTZ A NUMBRS AN THAR IZ {size}",
        "WE HAS A tag ITZ SRSLY A NUMBR",
        f"tag R PRODUKT OF ME AN {rng.randrange(2, 30)}",
        f"IM IN YR fill UPPIN YR i TIL BOTH SAEM i AN {size}",
        f"  shard'Z i R SUM OF PRODUKT OF ME AN 100 AN {_expr(rng, ['i'])}",
        "IM OUTTA YR fill",
        "HUGZ",
        f"I HAS A nekst ITZ MOD OF SUM OF ME AN {shift} AN MAH FRENZ",
        "I HAS A got ITZ A NUMBR",
        "I HAS A gotag ITZ A NUMBR",
        "TXT MAH BFF nekst AN STUFF",
        f"  got R UR shard'Z {rng.randrange(0, size)}",
        "  gotag R UR tag",
        "TTYL",
        "HUGZ",
        'VISIBLE "PE :{nekst} GAVE :{got} TAGGED :{gotag}"',
    ]
    return lol("\n".join(lines))


@pytest.mark.parametrize("seed", range(12))
def test_random_predication_programs_4pes(seed):
    src = _random_predication_program(seed)
    assert_engines_agree(src, 4, seed=seed)


def test_lock_path_4pes():
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
    a, v = both_engines(src, 4, seed=3)
    assert a.outputs == v.outputs
    assert a.outputs[0] == "100\n"


def test_trylock_path_4pes():
    # IM MESIN WIF stores WIN/FAIL into IT; both engines must agree on
    # the *final* state even though interleavings differ, so serialize
    # with a barrier and have only PE 0 trylock.
    src = lol(
        "WE HAS A gate ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
        "BOTH SAEM ME AN 0\n"
        "O RLY?\n"
        "  YA RLY\n"
        "    IM MESIN WIF gate\n"
        "    O RLY?\n"
        '      YA RLY, VISIBLE "PE0 GOT TEH LOCK"\n'
        '      NO WAI, VISIBLE "PE0 MISSED"\n'
        "    OIC\n"
        "    DUN MESIN WIF gate\n"
        "OIC\n"
        "HUGZ\n"
        'VISIBLE "DUN ITZ :{gate}"'
    )
    a, v = both_engines(src, 4, seed=3)
    assert a.outputs == v.outputs
    assert "PE0 GOT TEH LOCK" in a.outputs[0]


def test_functions_and_it_semantics():
    src = lol(
        "HOW IZ I twice YR x\n"
        "  FOUND YR PRODUKT OF x AN 2\n"
        "IF U SAY SO\n"
        "HOW IZ I fallthru YR x\n"
        "  SUM OF x AN 1\n"
        "IF U SAY SO\n"
        "I HAS A a ITZ I IZ twice YR 21 MKAY\n"
        "I HAS A b ITZ I IZ fallthru YR 41 MKAY\n"
        "VISIBLE a \" \" b\n"
        "SUM OF a AN b\n"
        "VISIBLE IT"
    )
    a, v = both_engines(src, 2, seed=1)
    assert a.outputs == v.outputs
    assert a.outputs[0] == "42 42\n84\n"


def test_switch_fallthrough_and_gtfo():
    src = lol(
        "IM IN YR outer UPPIN YR i TIL BOTH SAEM i AN 4\n"
        "  i\n"
        "  WTF?\n"
        "    OMG 0\n"
        '      VISIBLE "ZERO"\n'
        "    OMG 1\n"
        '      VISIBLE "ONE"\n'
        "      GTFO\n"
        "    OMG 2\n"
        '      VISIBLE "TWO"\n'
        "    OMGWTF\n"
        '      VISIBLE "OTHER"\n'
        "  OIC\n"
        "IM OUTTA YR outer"
    )
    a, v = both_engines(src, 1, seed=1)
    assert a.outputs == v.outputs


def test_srs_computed_identifiers():
    src = lol(
        "I HAS A abc ITZ 7\n"
        'I HAS A namez ITZ "abc"\n'
        "SRS namez R 9\n"
        "VISIBLE SRS namez\n"
        "VISIBLE abc"
    )
    a, v = both_engines(src, 1, seed=1)
    assert a.outputs == v.outputs
    assert a.outputs[0] == "9\n9\n"


LOOP3 = "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\n"

#: One scope rule on every engine: a declaration is visible from the
#: next statement to the end of the run of its block (each loop
#: iteration is a new run of the body), and its initializer and extent
#: still see the enclosing binding.  case -> (body, VISIBLE output).
SCOPE_TABLE = {
    "read-before-redeclaration": (
        "I HAS A x ITZ 1\n" + LOOP3 + "  VISIBLE x\n"
        "  I HAS A x ITZ SUM OF i AN 5\nIM OUTTA YR l\nVISIBLE x",
        "1 1 1 1",
    ),
    "accumulator": (
        "I HAS A x ITZ 1\n" + LOOP3 + "  I HAS A x ITZ SUM OF x AN 10\n"
        "  VISIBLE x\nIM OUTTA YR l\nVISIBLE x",
        "11 11 11 1",
    ),
    "nested-fresh-env": (
        "I HAS A a ITZ 2\n"
        "IM IN YR o UPPIN YR i TIL BOTH SAEM i AN 2\n"
        "  IM IN YR n UPPIN YR j TIL BOTH SAEM j AN 2\n"
        "    I HAS A a ITZ SUM OF a AN 1\n    VISIBLE a\n"
        "  IM OUTTA YR n\nIM OUTTA YR o\nVISIBLE a",
        "3 3 3 3 2",
    ),
    "loop-array": (
        "I HAS A a ITZ 7\n" + LOOP3 + "  VISIBLE a\n"
        "  I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 2\nIM OUTTA YR l",
        "7 7 7",
    ),
    "typed": (
        "I HAS A x ITZ 0.5\n" + LOOP3 + "  x R SUM OF x AN 1\n  VISIBLE x\n"
        "  I HAS A x ITZ A NUMBR AN ITZ i\nIM OUTTA YR l\nVISIBLE x",
        "1.50 2.50 3.50 3.50",
    ),
    "txt-in-loop": (
        "I HAS A y ITZ 0\n" + LOOP3 + "  TXT MAH BFF ME AN STUFF,\n"
        "    I HAS A y ITZ SUM OF y AN 100\n    VISIBLE y\n"
        "  TTYL\nIM OUTTA YR l",
        "100 100 100",
    ),
    "arm-shadow": (
        "I HAS A x ITZ 3\nWIN, O RLY?\nYA RLY\n"
        "  I HAS A x ITZ SUM OF x AN 1\n  VISIBLE x\nOIC\nVISIBLE x",
        "4 3",
    ),
    "self-referencing-array-extent": (
        "I HAS A n ITZ 2\nWIN, O RLY?\nYA RLY\n"
        "  I HAS A n ITZ LOTZ A NUMBRS AN THAR IZ n\n"
        "  VISIBLE n'Z 0\n  VISIBLE n'Z 1\nOIC",
        "0 0",
    ),
    "same-block-redeclaration": (
        "WIN, O RLY?\nYA RLY\n  I HAS A x ITZ 10\n  VISIBLE x\n"
        "  I HAS A x ITZ SUM OF x AN 1\n  VISIBLE x\nOIC",
        "10 11",
    ),
    "counter-shadow": (
        LOOP3 + "  I HAS A i ITZ PRODUKT OF i AN 10\n  VISIBLE i\n"
        "IM OUTTA YR l",
        "0 10 20",
    ),
    # parameters live in the function body's outermost block
    "parameter-redeclaration": (
        "HOW IZ I f YR n\n  I HAS A n ITZ SUM OF n AN 1\n  FOUND YR n\n"
        "IF U SAY SO\nVISIBLE I IZ f YR 4 MKAY",
        "5",
    ),
    # a TXT MAH BFF body is part of the enclosing block
    "txt-redeclare": (
        "I HAS A y ITZ 0\nTXT MAH BFF ME AN STUFF,\n  I HAS A y ITZ 5\n"
        "TTYL\nVISIBLE y",
        "5",
    ),
    "txt-new-name": (
        "TXT MAH BFF ME AN STUFF,\n  I HAS A y ITZ 5\nTTYL\nVISIBLE y",
        "5",
    ),
    # WE HAS A binds in the root block, wherever it is written
    "symmetric-in-arm": (
        "WIN, O RLY?\nYA RLY\n  WE HAS A s ITZ SRSLY A NUMBR AN ITZ 3\n"
        "OIC\nVISIBLE s",
        "3",
    ),
    "symmetric-in-function": (
        "HOW IZ I f\n  WE HAS A s ITZ SRSLY A NUMBR AN ITZ 4\nIF U SAY SO\n"
        "I IZ f MKAY\nVISIBLE s",
        "4",
    ),
    # a local in scope hides the symmetric name; the declaration's
    # initializer still reaches the symmetric object
    "symmetric-under-local": (
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 2\n  I HAS A s ITZ 10\n"
        "  WE HAS A s ITZ SRSLY A NUMBR AN ITZ 5\n  VISIBLE s\n"
        "IM OUTTA YR l\nVISIBLE s",
        "10 10 5",
    ),
    # a symmetric initializer reads the top-level bindings
    "symmetric-init-in-function": (
        "I HAS A n ITZ 3\nHOW IZ I f YR n\n"
        "  WE HAS A t ITZ SRSLY A NUMBR AN ITZ n\n  FOUND YR n\n"
        "IF U SAY SO\nVISIBLE I IZ f YR 9 MKAY\nVISIBLE t",
        "9 3",
    ),
    "symmetric-named-by-parameter": (
        "WE HAS A n ITZ SRSLY A NUMBR AN ITZ 1\nHOW IZ I f YR n\n"
        "  WE HAS A n ITZ SRSLY A NUMBR AN ITZ 8\n  FOUND YR n\n"
        "IF U SAY SO\nVISIBLE I IZ f YR 3 MKAY\nVISIBLE n",
        "3 8",
    ),
    # UR and locks name the symmetric object, whatever is in scope
    "remote-past-local": (
        "WE HAS A x ITZ SRSLY A NUMBR AN ITZ 7\nI HAS A r ITZ 0\n"
        "WIN, O RLY?\nYA RLY\n  I HAS A x ITZ 1\n"
        "  TXT MAH BFF 0, r R UR x\n  VISIBLE x\nOIC\nVISIBLE r",
        "1 7",
    ),
    "remote-before-declaration": (
        "HOW IZ I f\n  TXT MAH BFF 0, FOUND YR UR s\nIF U SAY SO\n"
        "WE HAS A s ITZ SRSLY A NUMBR AN ITZ 3\nVISIBLE I IZ f MKAY",
        "3",
    ),
    "lock-declared-in-arm": (
        "WIN, O RLY?\nYA RLY\n"
        "  WE HAS A k ITZ SRSLY A NUMBR AN IM SHARIN IT\nOIC\n"
        'IM SRSLY MESIN WIF k\nDUN MESIN WIF k\nVISIBLE "ok"',
        "ok",
    ),
    "txt-self-reference": (
        "I HAS A y ITZ 2\nWIN, O RLY?\nYA RLY\n"
        "  TXT MAH BFF ME AN STUFF,\n    I HAS A y ITZ SUM OF y AN 1\n"
        "  TTYL\n  VISIBLE y\nOIC\nVISIBLE y",
        "3 2",
    ),
    "txt-in-function": (
        "WE HAS A s ITZ SRSLY A NUMBR AN ITZ 6\nHOW IZ I f\n"
        "  TXT MAH BFF 0 AN STUFF,\n    I HAS A got ITZ UR s\n  TTYL\n"
        "  FOUND YR got\nIF U SAY SO\nVISIBLE I IZ f MKAY",
        "6",
    ),
    # function bodies resolve against the final root block
    "late-global": (
        "HOW IZ I f\n  FOUND YR g\nIF U SAY SO\nI HAS A g ITZ 7\n"
        "VISIBLE I IZ f MKAY",
        "7",
    ),
    "late-global-in-txt": (
        "HOW IZ I f\n  FOUND YR z\nIF U SAY SO\n"
        "TXT MAH BFF ME AN STUFF,\n  I HAS A z ITZ 4\nTTYL\n"
        "VISIBLE I IZ f MKAY",
        "4",
    ),
    # a repeated declaration without initializer resets the value
    "top-level-redeclaration": (
        "I HAS A x ITZ A NUMBR AN ITZ 5\nI HAS A x ITZ A NUMBR\nVISIBLE x",
        "0",
    ),
}

ALL_ENGINES = ["ast", "vm", pytest.param("c", marks=pytest.mark.requires_cc)]


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("case", list(SCOPE_TABLE))
def test_block_scope_table(case, engine):
    body, want = SCOPE_TABLE[case]
    # A counter that the body's declaration rebinds would never reach
    # its limit: bound the interpreters' steps so that fails, not hangs.
    limit = {} if engine == "c" else {"max_steps": 10_000}
    result = run_lolcode(lol(body), 1, engine=engine, **limit)
    assert result.output.split() == want.split()


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize(
    "body",
    [
        # iteration 0 declares z, but iteration 1's read precedes its
        # own declaration: no engine may hand it iteration 0's binding
        LOOP3 + "  DIFFRINT i AN 0, O RLY?\n  YA RLY\n    VISIBLE z\n"
        "  OIC\n  I HAS A z ITZ 0\nIM OUTTA YR l",
        "HOW IZ I f\n  VISIBLE z\n  I HAS A z ITZ 1\nIF U SAY SO\n"
        "I IZ f MKAY",
    ],
    ids=["loop", "function"],
)
def test_read_of_a_later_declaration_is_an_error(body, engine):
    from repro.lang.checker import check_source
    from repro.lang.errors import LolNameError, LolParallelError

    src = lol(body)
    assert "E001" in {d.code for d in check_source(src)}
    if engine == "c":
        with pytest.raises(CompileError, match="'z' is not declared"):
            run_lolcode(src, 1, engine="c", fallback_engine="vm")
        return
    with pytest.raises(LolParallelError) as excinfo:
        run_lolcode(src, 1, engine=engine)
    assert isinstance(excinfo.value.__cause__, LolNameError)


@pytest.mark.requires_cc
def test_same_block_redeclaration_is_not_degraded():
    # C rejects a second declarator in one block; the backend turns a
    # same-shape redeclaration into an assignment instead of handing cc
    # a unit it refuses (a build failure would fall back to vm).
    body, want = SCOPE_TABLE["same-block-redeclaration"]
    result = run_lolcode(lol(body), 1, engine="c", fallback_engine="vm")
    assert not result.degraded
    assert result.output.split() == want.split()
    with pytest.raises(CompileError, match="re-declared in the same block"):
        run_lolcode(
            lol("WIN, O RLY?\nYA RLY\n  I HAS A x ITZ 1\n"
                "  I HAS A x ITZ A NUMBR AN ITZ 2\nOIC"),
            1,
            engine="c",
            fallback_engine="vm",
        )


@pytest.mark.parametrize(
    "case",
    [
        "late-global",
        "late-global-in-txt",
        "symmetric-in-arm",
        "symmetric-in-function",
        "symmetric-under-local",
        "symmetric-init-in-function",
        "remote-before-declaration",
        "lock-declared-in-arm",
    ],
)
def test_lint_resolves_like_the_engines(case):
    # lollint reads the binder the engines run on: a name every engine
    # resolves is no E001 (check="error" would refuse to launch it).
    from repro.lang.checker import check_source

    body, want = SCOPE_TABLE[case]
    assert not [d for d in check_source(lol(body)) if d.is_error]
    result = run_lolcode(lol(body), 1, check="error")
    assert result.output.split() == want.split()


#: A same-block redeclaration that changes type or array-ness.
RETYPES = {
    "top-level": (
        "I HAS A g ITZ 1\nHOW IZ I f\n  FOUND YR g\nIF U SAY SO\n"
        "VISIBLE I IZ f MKAY\nI HAS A g ITZ A NUMBAR AN ITZ 2.5\n"
        "VISIBLE I IZ f MKAY"
    ),
    "block": (
        "WIN, O RLY?\nYA RLY\n  I HAS A x ITZ 1\n"
        "  I HAS A x ITZ A NUMBAR AN ITZ 2.5\n  VISIBLE x\nOIC"
    ),
    "parameter": (
        "HOW IZ I f YR n\n  I HAS A n ITZ LOTZ A NUMBRS AN THAR IZ 2\n"
        "  FOUND YR n'Z 0\nIF U SAY SO\nVISIBLE I IZ f YR 4 MKAY"
    ),
}


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("case", list(RETYPES))
def test_retype_is_refused_on_every_engine(case, engine):
    from repro.lang.checker import check_source
    from repro.lang.errors import LolTypeError

    src = lol(RETYPES[case])
    assert "E009" in {d.code for d in check_source(src)}
    error = CompileError if engine == "c" else LolTypeError
    with pytest.raises(error, match="re-declared in the same block") as excinfo:
        run_lolcode(src, 1, engine=engine)
    assert type(excinfo.value) is error


def test_symmetric_retype_is_e009():
    # every engine refuses the launch (the plan's conflicting-declaration
    # error); lollint names the redeclaration
    from repro.lang.checker import check_source
    from repro.lang.errors import LolParallelError

    src = lol(
        "WE HAS A s ITZ SRSLY A NUMBR\nWIN, O RLY?\nYA RLY\n"
        "  WE HAS A s ITZ SRSLY A NUMBAR\nOIC"
    )
    e009 = [d for d in check_source(src) if d.code == "E009"]
    assert [d.pos.line for d in e009] == [5]
    for engine in ("ast", "vm"):
        with pytest.raises(LolParallelError, match="conflicting symmetric"):
            run_lolcode(src, 1, engine=engine)


CALL_AFTER_READ = (
    "I HAS A g ITZ 0\n"
    "HOW IZ I f YR n\n  g R SUM OF g AN 1\n  FOUND YR n\nIF U SAY SO\n"
    "HOW IZ I h YR a AN YR b\n  FOUND YR DIFF OF a AN b\nIF U SAY SO\n"
    "VISIBLE SUM OF g AN I IZ f YR 4 MKAY\ng R 0\n"
    'VISIBLE SMOOSH g AN "-" AN I IZ f YR 4 MKAY MKAY\ng R 0\n'
    "VISIBLE I IZ h YR g AN YR I IZ f YR 4 MKAY MKAY\ng R 0\n"
    "VISIBLE BOTH SAEM g AN I IZ f YR 0 MKAY\ng R 0\n"
    "VISIBLE BIGGR OF g AN I IZ f YR 0 MKAY\ng R 0\n"
    "BOTH SAEM g AN I IZ f YR 0 MKAY, O RLY?\n"
    '  YA RLY, VISIBLE "same"\n  NO WAI, VISIBLE "moved"\nOIC\ng R 0\n'
    "I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 3\n"
    "a'Z I IZ f YR 2 MKAY R g\n"
    "VISIBLE a'Z 2"
)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_operand_read_before_a_later_call(engine):
    # Every operand is read in source order: a variable left of a call
    # that stores to it keeps the value it had before the call.
    result = run_lolcode(lol(CALL_AFTER_READ), 1, engine=engine)
    assert result.output.split() == [
        "4", "0-4", "-4", "WIN", "0", "same", "0"
    ]


def test_txt_block_declarations_stay_visible():
    # The tree-walker executes TXT MAH BFF bodies in the *enclosing*
    # environment, so declarations inside the predicated block survive
    # past TTYL; the VM must not scope them away.
    src = lol(
        "WE HAS A s ITZ SRSLY A NUMBR\n"
        "s R PRODUKT OF ME AN 10\n"
        "HUGZ\n"
        "TXT MAH BFF MOD OF SUM OF ME AN 1 AN MAH FRENZ AN STUFF,\n"
        "  I HAS A fetched ITZ UR s\n"
        "TTYL\n"
        "VISIBLE fetched"
    )
    a, v = assert_engines_agree(src, 4, seed=1)
    assert a.outputs[3] == "0\n"  # PE 3 fetched PE 0's s


def test_global_redeclaration_visible_to_functions():
    # A function reads a global that is redeclared (same shape) after
    # the call site; slot reuse must keep the first declaration's value
    # visible to the early call, exactly like the tree-walker.
    src = lol(
        "I HAS A x ITZ 1\n"
        "HOW IZ I peek\n"
        "  FOUND YR x\n"
        "IF U SAY SO\n"
        "VISIBLE I IZ peek MKAY\n"
        "I HAS A x ITZ 2\n"
        "VISIBLE I IZ peek MKAY"
    )
    a, v = both_engines(src, 1, seed=1)
    assert a.outputs == v.outputs
    assert a.outputs[0] == "1\n2\n"


def test_error_parity_undeclared_variable():
    from repro.lang.errors import LolError

    src = lol("VISIBLE never_declared")
    for engine in ("ast", "vm"):
        with pytest.raises(LolError, match="never_declared"):
            run_lolcode(src, 1, engine=engine)


def test_engine_validation_and_max_steps_fallback():
    from repro.lang.errors import LolError, LolParallelError

    with pytest.raises(LolParallelError, match="unknown engine"):
        run_lolcode(lol("VISIBLE 1"), 1, engine="jit")
    # Retired engines are unknown, not aliased to a surviving one.
    for retired in ("closure", "compiled"):
        with pytest.raises(LolParallelError, match="unknown engine"):
            run_lolcode(lol("VISIBLE 1"), 1, engine=retired)
    # The default engine (the VM) counts statement steps natively in its
    # dispatch loop: the limit fires on a spin without naming an engine,
    # and a program well under the limit runs.
    spin = lol("IM IN YR forever UPPIN YR i\nVISIBLE i\nIM OUTTA YR forever")
    with pytest.raises(LolError, match="statement steps"):
        run_lolcode(spin, 1, max_steps=50)
    ok = run_lolcode(lol("VISIBLE 1"), 1, max_steps=50)
    assert ok.output == "1\n"
    # The reference tree-walker enforces the same limit.
    with pytest.raises(LolError, match="statement steps"):
        run_lolcode(spin, 1, max_steps=50, engine="ast")


def test_compiled_program_cache_shared_across_runs():
    from repro.interp import compile_vm_cached

    compile_vm_cached.cache_clear()
    src = lol("VISIBLE SUM OF ME AN 1")
    run_lolcode(src, 4, seed=1)
    info = compile_vm_cached.cache_info()
    assert info.misses == 1  # compiled once...
    assert info.hits >= 3  # ...shared by the other PEs
    run_lolcode(src, 4, seed=1)
    assert compile_vm_cached.cache_info().misses == 1
