"""Instruction-set definition for the register-bytecode VM engine.

The VM (:mod:`repro.vm.machine`) executes flat tuples instead of walking
the AST: one program compiles (:mod:`repro.vm.compile`) to a
:class:`CodeObject` holding a ``code`` tuple of instruction tuples, a
parallel ``positions`` tuple (one :class:`~repro.lang.errors.SourcePos`
per pc, for error reporting), a frame size, and an inline-cache count.

Instruction encoding
--------------------

An instruction is a plain Python tuple ``(opcode, field, field, ...)``.
``ins[0]`` is always the integer opcode; the remaining fields are
described per-opcode by :data:`OPFIELDS` using one letter per field:

========= ==================================================================
kind      meaning
========= ==================================================================
``r``     register (frame slot index; slot 0 is ``IT``)
``c``     inline constant (int/float/str/bool/None — the constant pool)
``j``     jump target (a pc; a :class:`Label` until the encoder patches it)
``n``     a name (str) or other opaque identifier
``f``     a Python callable resolved at compile time (operator kernels)
``m``     metadata tuple (names+types, part lists, scope snapshots, …)
``v``     a :class:`repro.vm.vectorize.VecPlan`
========= ==================================================================

Registers are frame slots: the compiler allocates expression temporaries
from the *same* slot counter as named variables, so a "register" and a
variable slot are interchangeable and most operands address user
variables directly (no load/store traffic for the common
``SUM OF x AN 1`` shapes).

Opcode numbering is the dispatch order: the interpreter loop inlines the
hot half (``op < _COLD_BASE``) in a nested if-chain grouped by opcode
ranges and routes everything else through a handler table, so hot
opcodes get small numbers.  Superinstructions are ordinary opcodes
emitted by the compiler's peephole rules:

* ``INC_JMP`` — counter increment and loop back-edge;
* ``BR_*`` — fused compare-branches for loop and ``MEBBE`` conditions;
* ``ORLY_*`` — ``<comparison>, O RLY?``: the comparison's TROOF goes to
  ``IT`` and the branch to the arm after ``YA RLY`` in one dispatch;
* ``TXT_GET`` — a one-statement ``TXT MAH BFF pe, x R UR a'Z i``: the
  PE range check, the index, the get and the store in one dispatch;
* ``LOOP_VEC`` — a whole counted loop run as a numpy plan.

Typed ("quickened") opcodes inline the int/float case and fall back to
the operator kernels of :mod:`repro.interp.values` for everything else:
``ADD``/``SUB``/``MUL``/``DIV``/``MOD`` in ``_SS`` (two registers) and
``_SC`` (register, constant) forms, ``ADD``/``SUB``/``MUL`` also in
``_CS``.  ``GET``, ``GETX`` and ``TXT_GET`` carry an inline cache over
the symbol's per-PE storage (see :mod:`repro.vm.machine`).

A tracing JIT would hook in here: the green key of a trace is
``(CodeObject, pc)`` — loop headers are exactly the targets of
``INC_JMP``/``JMP`` back-edges, so a recording interpreter can be layered
on :meth:`~repro.vm.machine.Machine._exec` without changing the encoding.
"""

from __future__ import annotations

from typing import Optional

from ..lang.errors import SourcePos

_opcodes: list[str] = []
OPFIELDS: dict[int, str] = {}


def _op(name: str, fields: str) -> int:
    code = len(_opcodes)
    _opcodes.append(name)
    OPFIELDS[code] = fields
    return code


# -- hot: constants, moves, arithmetic --------------------------------------
LOADC = _op("LOADC", "rc")          # d <- const
MOVE = _op("MOVE", "rr")            # d <- reg
ADD_SS = _op("ADD_SS", "rrr")       # d <- a + b
ADD_SC = _op("ADD_SC", "rrc")       # d <- a + const
ADD_CS = _op("ADD_CS", "rcr")       # d <- const + b
SUB_SS = _op("SUB_SS", "rrr")
SUB_SC = _op("SUB_SC", "rrc")
SUB_CS = _op("SUB_CS", "rcr")
DIV_SS = _op("DIV_SS", "rrr")       # d <- a QUOSHUNT b   (C truncation)
DIV_SC = _op("DIV_SC", "rrc")
MOD_SS = _op("MOD_SS", "rrr")       # d <- a MOD b        (C remainder)
MOD_SC = _op("MOD_SC", "rrc")
MUL_SS = _op("MUL_SS", "rrr")
MUL_SC = _op("MUL_SC", "rrc")
MUL_CS = _op("MUL_CS", "rcr")
SQUARE_S = _op("SQUARE_S", "rr")    # d <- a * a          (UNSQUAR arg)
SQRT_S = _op("SQRT_S", "rr")        # d <- sqrt(a)        (UNSQUAR OF)
RECIP_S = _op("RECIP_S", "rr")      # d <- 1.0 / a        (FLIP OF)

# -- hot: control flow ------------------------------------------------------
INC_JMP = _op("INC_JMP", "rcj")     # counter += step; jump (loop back-edge)
JMP = _op("JMP", "j")
JF = _op("JF", "rj")                # jump if to_troof(reg) is FAIL
JT = _op("JT", "rj")                # jump if to_troof(reg) is WIN
JEQ = _op("JEQ", "rrj")             # jump if equals(a, b)   (WTF? dispatch)
# Fused compare-branches (cond + branch in one dispatch).  _SC variants
# hold a numeric literal; const-on-the-left comparisons are canonicalised
# by swapping the relation (safe: numeric literals never fail coercion).
BR_EQ_SS = _op("BR_EQ_SS", "rrj")
BR_EQ_SC = _op("BR_EQ_SC", "rcj")
BR_NE_SS = _op("BR_NE_SS", "rrj")
BR_NE_SC = _op("BR_NE_SC", "rcj")
BR_LT_SS = _op("BR_LT_SS", "rrj")
BR_LT_SC = _op("BR_LT_SC", "rcj")
BR_LE_SS = _op("BR_LE_SS", "rrj")
BR_LE_SC = _op("BR_LE_SC", "rcj")
BR_GT_SS = _op("BR_GT_SS", "rrj")
BR_GT_SC = _op("BR_GT_SC", "rcj")
BR_GE_SS = _op("BR_GE_SS", "rrj")
BR_GE_SC = _op("BR_GE_SC", "rcj")
# ``<comparison>, O RLY?``: IT <- the comparison's TROOF, then jump to
# the NO WAI / MEBBE / OIC target when it is FAIL (one dispatch for the
# bare-expression statement and the branch).
ORLY_EQ_SS = _op("ORLY_EQ_SS", "rrj")
ORLY_EQ_SC = _op("ORLY_EQ_SC", "rcj")
ORLY_NE_SS = _op("ORLY_NE_SS", "rrj")
ORLY_NE_SC = _op("ORLY_NE_SC", "rcj")
ORLY_GT_SS = _op("ORLY_GT_SS", "rrj")
ORLY_GT_SC = _op("ORLY_GT_SC", "rcj")
ORLY_LT_SS = _op("ORLY_LT_SS", "rrj")
ORLY_LT_SC = _op("ORLY_LT_SC", "rcj")

# -- hot: array / symmetric access ------------------------------------------
LDX = _op("LDX", "rrrn")            # d <- localarray[slot a].read(i)
STX = _op("STX", "rrrm")            # localarray[slot].write(i, v); m=(name, elem_t)
SYM_LD = _op("SYM_LD", "rnm")       # d <- local_read(name); m=(cache_idx,)
SYM_ST = _op("SYM_ST", "nrm")       # local_write(name, v);  m=(cache_idx,)
SYM_LDX = _op("SYM_LDX", "rnrm")    # d <- local_read(name, i)
SYM_STX = _op("SYM_STX", "nrrm")    # local_write(name, v, i)

# -- hot: stores, coercions, misc -------------------------------------------
ST_TYPED = _op("ST_TYPED", "rrm")   # slot <- coerce_static(v); m=(type, name)
ST_DYN = _op("ST_DYN", "rrn")       # slot <- v (scalar-checked)
BINOP = _op("BINOP", "rfrr")        # d <- fn(a, b)      (cold operators)
BINOP_SC = _op("BINOP_SC", "rfrc")
BINOP_CS = _op("BINOP_CS", "rfcr")
UNOP = _op("UNOP", "rfr")
LOAD_ME = _op("LOAD_ME", "r")
LOAD_NPES = _op("LOAD_NPES", "r")
STEP = _op("STEP", "")              # max_steps accounting (count_steps only)
FLOPS = _op("FLOPS", "c")           # ctx.add_flops(n)    (count_flops only)
LOOP_VEC = _op("LOOP_VEC", "vj")    # try vectorized loop; on success jump exit

#: Opcodes below this value are inlined in the dispatch loop's if-chain;
#: the rest go through the handler table.
_COLD_BASE = _op("HALT", "")
HALT = _COLD_BASE

RET = _op("RET", "r")
RETC = _op("RETC", "c")
RAISE_BREAK = _op("RAISE_BREAK", "")   # GTFO outside any loop/switch
NOLOOP = _op("NOLOOP", "n")            # loop with no counter/cond/GTFO
RAISE_ERR = _op("RAISE_ERR", "f")      # compile-time-known error site
RAISE_RETURN = _op("RAISE_RETURN", "r")  # FOUND YR outside any function

DISPLAY = _op("DISPLAY", "rr")         # d <- display_value(a)  (VISIBLE arg)
VISIBLE = _op("VISIBLE", "mc")         # m=(str|reg, ...); c=end
INTERP = _op("INTERP", "rm")           # d <- interpolated YARN; m=(parts,)
NARY = _op("NARY", "rfm")              # d <- fn([regs...]); m=(regs,)
CAST = _op("CAST", "rrm")              # d <- cast(a, type); m=(type,)
RANDOM = _op("RANDOM", "rc")           # d <- rng; c: 0=WHATEVR 1=WHATEVAR
READLINE = _op("READLINE", "r")        # d <- ctx.read_line()
CANHAS = _op("CANHAS", "n")

CHECK_FUNC = _op("CHECK_FUNC", "rnc")  # d <- checked function (before args)
CALL = _op("CALL", "rrm")              # d <- call frame[a]; m=(arg_regs,)
DEF = _op("DEF", "nm")                 # functions[name] = m[0]

BARRIER = _op("BARRIER", "")
LOCKOP = _op("LOCKOP", "cn")           # c: 0=lock 1=trylock 2=unlock
LOCKOPD = _op("LOCKOPD", "cr")         # dynamic (SRS) lock target
TXT_PUSH = _op("TXT_PUSH", "r")        # enter TXT MAH BFF <pe>
TXT_POP = _op("TXT_POP", "")

GET = _op("GET", "rnm")                # d <- ctx.get(name, target); m=(cache_idx,)
GETX = _op("GETX", "rnrm")             # m=(cache_idx,)
TXT_GET = _op("TXT_GET", "rrm")        # one-statement TXT get; see compile.py
PUT = _op("PUT", "nr")                 # ctx.put(name, v, target)
PUTX = _op("PUTX", "nrr")
GETD = _op("GETD", "rr")               # SRS UR variants (dynamic name)
GETXD = _op("GETXD", "rrr")
PUTD = _op("PUTD", "rr")
PUTXD = _op("PUTXD", "rrr")

DYN_LD = _op("DYN_LD", "rrm")          # SRS local; m=(snapshot,)
DYN_ST = _op("DYN_ST", "rrm")
DYN_LDX = _op("DYN_LDX", "rrrm")
DYN_STX = _op("DYN_STX", "rrrm")

GLD = _op("GLD", "rcn")                # global scalar read (from a function)
GST = _op("GST", "crm")                # m=(static_type|None, name)
GLDX = _op("GLDX", "rcrn")
GSTX = _op("GSTX", "crrm")             # m=(elem_t, name)
ST_ARR = _op("ST_ARR", "crn")          # whole local array assignment
GST_ARR = _op("GST_ARR", "crn")
ARRDECL = _op("ARRDECL", "crm")        # m=(elem_t, name)
SYMDECL = _op("SYMDECL", "m")          # m=(name, type, is_array, lock, extent, init_co)
GCHK = _op("GCHK", "cn")               # raise unless gframe[slot] is declared

OPNAMES = tuple(_opcodes)
N_OPCODES = len(_opcodes)

#: Lock kind codes for LOCKOP/LOCKOPD.
LOCK_SET, LOCK_TEST, LOCK_CLEAR = 0, 1, 2


class Label:
    """A forward-reference jump target; resolved by :meth:`Assembler.finish`."""

    __slots__ = ("pc",)

    def __init__(self) -> None:
        self.pc: int = -1


class CodeObject:
    """One flat code unit: the program top level, a function body, or a
    symmetric-declaration size/init mini-expression."""

    __slots__ = ("name", "code", "positions", "n_slots", "n_caches")

    def __init__(
        self,
        name: str,
        code: tuple,
        positions: tuple,
        n_slots: int,
        n_caches: int,
    ) -> None:
        self.name = name
        self.code = code
        self.positions = positions
        self.n_slots = n_slots
        self.n_caches = n_caches

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CodeObject {self.name!r} ({len(self.code)} ops)>"


class VMFunction:
    """A compiled ``HOW IZ I`` body (the VM analogue of CompiledFunction)."""

    __slots__ = ("name", "n_params", "param_slots", "co", "pos")

    def __init__(
        self,
        name: str,
        n_params: int,
        param_slots: tuple[int, ...],
        co: Optional[CodeObject],
        pos: SourcePos,
    ) -> None:
        self.name = name
        self.n_params = n_params
        self.param_slots = param_slots
        self.co = co
        self.pos = pos


class VMProgram:
    """A whole program compiled to bytecode; shareable across PEs."""

    __slots__ = ("co", "hoisted", "count_flops", "count_steps")

    def __init__(
        self,
        co: CodeObject,
        hoisted: dict[str, VMFunction],
        count_flops: bool,
        count_steps: bool,
    ) -> None:
        self.co = co
        self.hoisted = hoisted
        self.count_flops = count_flops
        self.count_steps = count_steps

    def run(self, ctx, max_steps: Optional[int] = None):
        """Execute on one PE; returns the Machine (stats are inspectable).

        With metrics armed, the machine's per-run counters (symbol-cache
        misses, vectorizer runs/bails, step count) are flushed into the
        central registry after the run — one counter batch per PE run,
        nothing on the dispatch hot path, and ``machine.py`` itself
        stays instrumentation-free.
        """
        from .. import obs as _obs
        from .machine import Machine

        # Armed observability records every get, so it turns the
        # machine's remote-get caches off for this run.
        machine = Machine(
            ctx, max_steps=max_steps, remote_cache=_obs.ACTIVE is None
        )
        try:
            machine.run(self)
        finally:
            rt = _obs.ACTIVE
            if rt is not None and rt.metrics_on:
                reg = rt.registry
                reg.counter(
                    "lol_vm_runs_total", "VM executions (one per PE run)"
                ).inc()
                vm_events = reg.counter(
                    "lol_vm_events_total",
                    "VM engine events: symbol-cache misses, vectorized "
                    "loop runs, vectorizer bails, executed steps",
                )
                if machine.sym_misses:
                    vm_events.inc(machine.sym_misses, event="sym_misses")
                if machine.vec_runs:
                    vm_events.inc(machine.vec_runs, event="vec_runs")
                if machine.vec_bails:
                    vm_events.inc(machine.vec_bails, event="vec_bails")
                if machine.steps:
                    vm_events.inc(machine.steps, event="steps")
        return machine


def patch_jumps(code: list) -> tuple:
    """Resolve :class:`Label` jump fields into integer pcs, and thread
    each jump whose target is an unconditional ``JMP`` to where that
    ``JMP`` goes (a ``JMP`` does nothing else, so skipping it is exact).

    Field positions come from :data:`OPFIELDS`, so new opcodes with jump
    operands are patched without touching the encoder.
    """

    def resolve(target) -> int:
        if isinstance(target, Label):
            if target.pc < 0:
                raise AssertionError("unresolved jump label")
            return target.pc
        return target

    n = len(code)
    out = []
    for ins in code:
        fields = OPFIELDS[ins[0]]
        if "j" in fields:
            ins = list(ins)
            for i, kind in enumerate(fields):
                if kind == "j":
                    target = resolve(ins[1 + i])
                    for _ in range(n):  # bounded: a JMP cycle stops here
                        if target >= n or code[target][0] != JMP:
                            break
                        target = resolve(code[target][1])
                    ins[1 + i] = target
            ins = tuple(ins)
        out.append(ins)
    return tuple(out)
