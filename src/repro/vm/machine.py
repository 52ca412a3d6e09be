"""Dispatch-loop interpreter for the register-bytecode VM engine.

One Python ``while`` loop executes the flat instruction tuples emitted
by :mod:`repro.vm.compile`.  The hot half of the ISA (arithmetic, fused
compare-branches, slot moves, array/symmetric access) is inlined in a
nested if-chain ordered by opcode number; everything else dispatches
through the handler table of :mod:`repro.vm.handlers`.  Operator fallbacks and coercions are shared
with the tree-walker (:mod:`repro.interp.interpreter` and
:mod:`repro.interp.values`) and error messages match its own, so results
are bit-identical.

Inline caches
-------------

Symmetric-heap access (``SYM_LD``/``SYM_ST``/``SYM_LDX``/``SYM_STX``)
would otherwise pay a heap name lookup per access.  The VM caches the
resolved per-PE cell per *site*: each site gets an index into a
per-activation cache list.  A world's heap is laid out from its plan
before any PE runs and never changes, so a filled entry never goes
stale.  An entry is filled only once the name's ``WE HAS A`` has run on
this PE (:attr:`Machine.declared`); before that, the miss path raises
the tree-walker's ``LolNameError``.  Caches are disabled while a race
detector is attached, because ``local_read``/``local_write`` must keep
reporting accesses to it.

Remote gets (``GET``/``GETX``/``TXT_GET``) cache the symbol's storage on
*every* PE, one element reader per PE, so a site whose target PE changes
from one execution to the next still hits.  The first execution goes
through ``ShmemContext.get``, which checks the symbol, and fills the
entry; an index outside the array takes that path again, so it raises
``get``'s own error.  A cached get skips ``get``'s bookkeeping, so the
entries are filled only when that bookkeeping records nothing: no race
detector, no op trace and no observability plane
(:attr:`Machine.fast_remote`, set by :meth:`VMProgram.run`).

A tracing JIT would record from :meth:`Machine._exec`: the green key of
a trace is ``(CodeObject, pc)`` and the hot back-edges are ``INC_JMP``
/ ``JMP`` targets, so a recorder only needs to wrap the loop body.
"""

from __future__ import annotations

from typing import Optional

from ..lang.errors import LolParallelError, LolRuntimeError, LolTypeError
from ..lang.types import (
    LolType,
    cast as cast_value,
    coerce_static,
    to_numbr,
    to_troof,
)
from ..shmem.heap import ScalarCell, SymmetricObject
from ..interp.env import new_frame
from ..interp.interpreter import (
    coerce_element,
    coerce_symmetric,
    is_scalar_value,
)
from ..interp.values import (
    _op_add,
    _op_div,
    _op_gt,
    _op_lt,
    _op_mod,
    _op_mul,
    _op_recip,
    _op_sqrt,
    _op_square,
    _op_sub,
    equals,
)
from . import isa
from .handlers import _HANDLERS, _as_index, _require_target, _undeclared
from .isa import CodeObject, VMProgram
from .vecrun import run_vec

_NUMBR = LolType.NUMBR
_NUMBAR = LolType.NUMBAR


class Machine:
    """Per-PE execution state plus the dispatch loop."""

    __slots__ = (
        "ctx",
        "gframe",
        "functions",
        "target_pe",
        "libraries",
        "max_steps",
        "steps",
        "declared",
        "fast_sym",
        "fast_remote",
        "sym_misses",
        "vec_runs",
        "vec_bails",
        "txt_saves",
    )

    def __init__(
        self, ctx, max_steps: Optional[int] = None, remote_cache: bool = False
    ) -> None:
        self.ctx = ctx
        self.gframe: list = []
        self.functions: dict = {}
        self.target_pe: Optional[int] = None
        self.libraries: set = set()
        self.max_steps = max_steps
        self.steps = 0
        #: name -> heap object, for each symmetric name whose ``WE HAS A``
        #: has run on this PE (the tree-walker's global bindings).
        self.declared: dict = {}
        # Inline caches bypass local_read/local_write, which are the race
        # detector's observation points — so only cache when it is off.
        self.fast_sym = ctx.world.race_detector is None
        # Cached remote gets also skip the op trace, so the caller states
        # whether anything else observes a get (``remote_cache``).
        self.fast_remote = remote_cache and self.fast_sym and ctx.trace is None
        self.sym_misses = 0
        self.vec_runs = 0
        self.vec_bails = 0
        #: target_pe values saved by TXT_PUSH and not yet popped; CALL
        #: unwinds these when a FOUND YR (RET) skips the TXT_POPs.
        self.txt_saves: list = []

    def run(self, program: VMProgram) -> None:
        self.functions.update(program.hoisted)
        co = program.co
        self.gframe = new_frame(co.n_slots)
        self._exec(co, self.gframe)

    # -- symmetric-access slow paths (populate the inline caches) ---------

    def declared_object(self, name: str, pos) -> SymmetricObject:
        """The heap object of ``name``, once its ``WE HAS A`` has run."""
        obj = self.declared.get(name)
        if obj is None:
            raise _undeclared(name, pos)
        return obj

    def _sym_ld_slow(self, caches: list, name: str, ci: int, pos) -> object:
        self.sym_misses += 1
        obj = self.declared_object(name, pos)
        value = self.ctx.local_read(name)
        if self.fast_sym and not obj.is_array:
            cell = obj.cell(self.ctx.my_pe)
            caches[ci] = (cell, type(cell) is ScalarCell)
        return value

    def _sym_st_slow(
        self, caches: list, name: str, value: object, ci: int, pos
    ) -> None:
        self.sym_misses += 1
        obj = self.declared_object(name, pos)
        ctx = self.ctx
        ctx.local_write(name, coerce_symmetric(ctx, name, value, pos))
        if (
            self.fast_sym
            and not obj.is_array
            and (obj.lol_type is _NUMBR or obj.lol_type is _NUMBAR)
        ):
            cell = obj.cell(ctx.my_pe)
            caches[ci] = (cell, type(cell) is ScalarCell, obj.lol_type)

    def _sym_ldx_slow(
        self, caches: list, name: str, index: int, ci: int, pos
    ) -> object:
        self.sym_misses += 1
        obj = self.declared_object(name, pos)
        value = self.ctx.local_read(name, index=index)
        if self.fast_sym and obj.is_array:
            cell = obj.cell(self.ctx.my_pe)
            caches[ci] = (cell.data, cell._conv, len(cell.data))
        return value

    def _sym_stx_slow(
        self, caches: list, name: str, index: int, value: object, ci: int, pos
    ) -> None:
        self.sym_misses += 1
        obj = self.declared_object(name, pos)
        ctx = self.ctx
        ctx.local_write(
            name, coerce_element(value, obj.lol_type, name, pos), index=index
        )
        if self.fast_sym and obj.is_array:
            cell = obj.cell(ctx.my_pe)
            caches[ci] = (cell.data, obj.lol_type, len(cell.data))

    # -- remote-get slow path (populates the inline caches) ---------------

    def _get_slow(
        self, caches: list, ci: int, name: str, pe: int, index: Optional[int]
    ) -> object:
        ctx = self.ctx
        if index is None:
            value = ctx.get(name, pe)
        else:
            value = ctx.get(name, pe, index=index)
        if self.fast_remote:
            obj = ctx.world.heap.lookup(name)
            if index is None:
                if not obj.is_array:
                    caches[ci] = tuple(cell.read for cell in obj.per_pe)
            else:
                # ``get`` checked that the symbol is an array.
                datas = [cell.data for cell in obj.per_pe]
                caches[ci] = (
                    tuple(
                        d.__getitem__ if type(d) is list else d.item
                        for d in datas
                    ),
                    len(datas[0]),
                )
        return value

    def _count_step(self, pos) -> None:
        s = self.steps + 1
        self.steps = s
        if self.max_steps is not None and s > self.max_steps:
            raise LolRuntimeError(
                f"program exceeded {self.max_steps} statement steps", pos
            )

    # -- the dispatch loop -------------------------------------------------

    def _exec(
        self,
        co: CodeObject,
        frame: list,
        # Opcode numbers as default args: LOAD_FAST instead of LOAD_GLOBAL
        # on every dispatch.
        LOADC=isa.LOADC,
        MOVE=isa.MOVE,
        ADD_SS=isa.ADD_SS,
        ADD_SC=isa.ADD_SC,
        ADD_CS=isa.ADD_CS,
        SUB_SS=isa.SUB_SS,
        SUB_SC=isa.SUB_SC,
        SUB_CS=isa.SUB_CS,
        DIV_SS=isa.DIV_SS,
        DIV_SC=isa.DIV_SC,
        MOD_SS=isa.MOD_SS,
        MOD_SC=isa.MOD_SC,
        MUL_SS=isa.MUL_SS,
        MUL_SC=isa.MUL_SC,
        MUL_CS=isa.MUL_CS,
        SQUARE_S=isa.SQUARE_S,
        SQRT_S=isa.SQRT_S,
        RECIP_S=isa.RECIP_S,
        INC_JMP=isa.INC_JMP,
        JMP=isa.JMP,
        JF=isa.JF,
        JT=isa.JT,
        JEQ=isa.JEQ,
        BR_EQ_SS=isa.BR_EQ_SS,
        BR_EQ_SC=isa.BR_EQ_SC,
        BR_NE_SS=isa.BR_NE_SS,
        BR_NE_SC=isa.BR_NE_SC,
        BR_LT_SS=isa.BR_LT_SS,
        BR_LT_SC=isa.BR_LT_SC,
        BR_LE_SS=isa.BR_LE_SS,
        BR_LE_SC=isa.BR_LE_SC,
        BR_GT_SS=isa.BR_GT_SS,
        BR_GT_SC=isa.BR_GT_SC,
        BR_GE_SS=isa.BR_GE_SS,
        BR_GE_SC=isa.BR_GE_SC,
        ORLY_EQ_SS=isa.ORLY_EQ_SS,
        ORLY_EQ_SC=isa.ORLY_EQ_SC,
        ORLY_NE_SS=isa.ORLY_NE_SS,
        ORLY_NE_SC=isa.ORLY_NE_SC,
        ORLY_GT_SS=isa.ORLY_GT_SS,
        ORLY_GT_SC=isa.ORLY_GT_SC,
        ORLY_LT_SS=isa.ORLY_LT_SS,
        LDX=isa.LDX,
        STX=isa.STX,
        SYM_LD=isa.SYM_LD,
        SYM_ST=isa.SYM_ST,
        SYM_LDX=isa.SYM_LDX,
        SYM_STX=isa.SYM_STX,
        ST_TYPED=isa.ST_TYPED,
        ST_DYN=isa.ST_DYN,
        BINOP=isa.BINOP,
        BINOP_SC=isa.BINOP_SC,
        BINOP_CS=isa.BINOP_CS,
        UNOP=isa.UNOP,
        LOAD_ME=isa.LOAD_ME,
        LOAD_NPES=isa.LOAD_NPES,
        STEP=isa.STEP,
        FLOPS=isa.FLOPS,
        LOOP_VEC=isa.LOOP_VEC,
        HALT=isa.HALT,
        RET=isa.RET,
        RETC=isa.RETC,
        BARRIER=isa.BARRIER,
        GET=isa.GET,
        GETX=isa.GETX,
        TXT_GET=isa.TXT_GET,
        PUT=isa.PUT,
        PUTX=isa.PUTX,
        RANDOM=isa.RANDOM,
        TXT_PUSH=isa.TXT_PUSH,
        TXT_POP=isa.TXT_POP,
        CAST=isa.CAST,
        NUMBR=_NUMBR,
        NUMBAR=_NUMBAR,
    ):
        code = co.code
        positions = co.positions
        caches = [None] * co.n_caches if co.n_caches else ()
        ctx = self.ctx
        fast = self.fast_sym
        my_pe = ctx.my_pe
        n_pes = ctx.n_pes
        max_steps = self.max_steps
        rng = None  # ctx.rng, loaded on the first RANDOM (seeding is lazy)
        pc = 0
        while True:
            ins = code[pc]
            op = ins[0]
            # -- constants, moves, arithmetic --------------------------------
            if op < INC_JMP:
                if op == LOADC:
                    frame[ins[1]] = ins[2]
                    pc += 1
                    continue
                if op == MOVE:
                    frame[ins[1]] = frame[ins[2]]
                    pc += 1
                    continue
                if op == ADD_SS:
                    x = frame[ins[2]]
                    y = frame[ins[3]]
                    tx = type(x)
                    ty = type(y)
                    if (tx is int or tx is float) and (ty is int or ty is float):
                        frame[ins[1]] = x + y
                    else:
                        frame[ins[1]] = _op_add(x, y, positions[pc])
                    pc += 1
                    continue
                if op == ADD_SC:
                    x = frame[ins[2]]
                    tx = type(x)
                    if tx is int or tx is float:
                        frame[ins[1]] = x + ins[3]
                    else:
                        frame[ins[1]] = _op_add(x, ins[3], positions[pc])
                    pc += 1
                    continue
                if op == ADD_CS:
                    y = frame[ins[3]]
                    ty = type(y)
                    if ty is int or ty is float:
                        frame[ins[1]] = ins[2] + y
                    else:
                        frame[ins[1]] = _op_add(ins[2], y, positions[pc])
                    pc += 1
                    continue
                if op == MUL_SS:
                    x = frame[ins[2]]
                    y = frame[ins[3]]
                    tx = type(x)
                    ty = type(y)
                    if (tx is int or tx is float) and (ty is int or ty is float):
                        frame[ins[1]] = x * y
                    else:
                        frame[ins[1]] = _op_mul(x, y, positions[pc])
                    pc += 1
                    continue
                if op == MUL_SC:
                    x = frame[ins[2]]
                    tx = type(x)
                    if tx is int or tx is float:
                        frame[ins[1]] = x * ins[3]
                    else:
                        frame[ins[1]] = _op_mul(x, ins[3], positions[pc])
                    pc += 1
                    continue
                if op == MUL_CS:
                    y = frame[ins[3]]
                    ty = type(y)
                    if ty is int or ty is float:
                        frame[ins[1]] = ins[2] * y
                    else:
                        frame[ins[1]] = _op_mul(ins[2], y, positions[pc])
                    pc += 1
                    continue
                if op == SUB_SS:
                    x = frame[ins[2]]
                    y = frame[ins[3]]
                    tx = type(x)
                    ty = type(y)
                    if (tx is int or tx is float) and (ty is int or ty is float):
                        frame[ins[1]] = x - y
                    else:
                        frame[ins[1]] = _op_sub(x, y, positions[pc])
                    pc += 1
                    continue
                if op == SUB_SC:
                    x = frame[ins[2]]
                    tx = type(x)
                    if tx is int or tx is float:
                        frame[ins[1]] = x - ins[3]
                    else:
                        frame[ins[1]] = _op_sub(x, ins[3], positions[pc])
                    pc += 1
                    continue
                if op == SUB_CS:
                    y = frame[ins[3]]
                    ty = type(y)
                    if ty is int or ty is float:
                        frame[ins[1]] = ins[2] - y
                    else:
                        frame[ins[1]] = _op_sub(ins[2], y, positions[pc])
                    pc += 1
                    continue
                if op == MOD_SS:
                    x = frame[ins[2]]
                    y = frame[ins[3]]
                    if type(x) is int and type(y) is int and x >= 0 and y > 0:
                        frame[ins[1]] = x % y
                    else:
                        frame[ins[1]] = _op_mod(x, y, positions[pc])
                    pc += 1
                    continue
                if op == MOD_SC:
                    x = frame[ins[2]]
                    y = ins[3]
                    if type(x) is int and type(y) is int and x >= 0 and y > 0:
                        frame[ins[1]] = x % y
                    else:
                        frame[ins[1]] = _op_mod(x, y, positions[pc])
                    pc += 1
                    continue
                if op == DIV_SS:
                    x = frame[ins[2]]
                    y = frame[ins[3]]
                    if type(x) is int and type(y) is int and x >= 0 and y > 0:
                        frame[ins[1]] = x // y
                    else:
                        frame[ins[1]] = _op_div(x, y, positions[pc])
                    pc += 1
                    continue
                if op == DIV_SC:
                    x = frame[ins[2]]
                    y = ins[3]
                    if type(x) is int and type(y) is int and x >= 0 and y > 0:
                        frame[ins[1]] = x // y
                    else:
                        frame[ins[1]] = _op_div(x, y, positions[pc])
                    pc += 1
                    continue
                if op == SQUARE_S:
                    x = frame[ins[2]]
                    tx = type(x)
                    if tx is int or tx is float:
                        frame[ins[1]] = x * x
                    else:
                        frame[ins[1]] = _op_square(x, positions[pc])
                    pc += 1
                    continue
                if op == SQRT_S:
                    x = frame[ins[2]]
                    frame[ins[1]] = _op_sqrt(x, positions[pc])
                    pc += 1
                    continue
                # RECIP_S
                x = frame[ins[2]]
                if type(x) is float and x != 0.0:
                    frame[ins[1]] = 1.0 / x
                else:
                    frame[ins[1]] = _op_recip(x, positions[pc])
                pc += 1
                continue
            # -- control flow -----------------------------------------------
            if op < LDX:
                if op < BR_EQ_SS:
                    if op == INC_JMP:
                        v = frame[ins[1]]
                        if type(v) is int:
                            frame[ins[1]] = v + ins[2]
                        else:
                            frame[ins[1]] = to_numbr(v, positions[pc]) + ins[2]
                        pc = ins[3]
                        continue
                    if op == JMP:
                        pc = ins[1]
                        continue
                    if op == JF:
                        v = frame[ins[1]]
                        if v is False:
                            pc = ins[2]
                        elif v is True or to_troof(v):
                            pc += 1
                        else:
                            pc = ins[2]
                        continue
                    if op == JT:
                        v = frame[ins[1]]
                        if v is True:
                            pc = ins[2]
                        elif v is not False and to_troof(v):
                            pc = ins[2]
                        else:
                            pc += 1
                        continue
                    # JEQ
                    pc = ins[3] if equals(frame[ins[1]], frame[ins[2]]) else pc + 1
                    continue
                if op < ORLY_EQ_SS:
                    if op == BR_EQ_SS:
                        x = frame[ins[1]]
                        y = frame[ins[2]]
                        tx = type(x)
                        ty = type(y)
                        if (tx is int or tx is float) and (ty is int or ty is float):
                            pc = ins[3] if x == y else pc + 1
                        else:
                            pc = ins[3] if equals(x, y) else pc + 1
                        continue
                    if op == BR_EQ_SC:
                        x = frame[ins[1]]
                        tx = type(x)
                        if tx is int or tx is float:
                            pc = ins[3] if x == ins[2] else pc + 1
                        else:
                            pc = ins[3] if equals(x, ins[2]) else pc + 1
                        continue
                    if op == BR_NE_SS:
                        x = frame[ins[1]]
                        y = frame[ins[2]]
                        tx = type(x)
                        ty = type(y)
                        if (tx is int or tx is float) and (ty is int or ty is float):
                            pc = ins[3] if x != y else pc + 1
                        else:
                            pc = pc + 1 if equals(x, y) else ins[3]
                        continue
                    if op == BR_NE_SC:
                        x = frame[ins[1]]
                        tx = type(x)
                        if tx is int or tx is float:
                            pc = ins[3] if x != ins[2] else pc + 1
                        else:
                            pc = pc + 1 if equals(x, ins[2]) else ins[3]
                        continue
                    if op == BR_LT_SS:
                        x = frame[ins[1]]
                        y = frame[ins[2]]
                        tx = type(x)
                        ty = type(y)
                        if (tx is int or tx is float) and (ty is int or ty is float):
                            pc = ins[3] if x < y else pc + 1
                        else:
                            pc = ins[3] if _op_lt(x, y, positions[pc]) else pc + 1
                        continue
                    if op == BR_LT_SC:
                        x = frame[ins[1]]
                        tx = type(x)
                        if tx is int or tx is float:
                            pc = ins[3] if x < ins[2] else pc + 1
                        else:
                            pc = ins[3] if _op_lt(x, ins[2], positions[pc]) else pc + 1
                        continue
                    if op == BR_LE_SS:
                        x = frame[ins[1]]
                        y = frame[ins[2]]
                        tx = type(x)
                        ty = type(y)
                        if (tx is int or tx is float) and (ty is int or ty is float):
                            pc = ins[3] if x <= y else pc + 1
                        else:
                            pc = pc + 1 if _op_gt(x, y, positions[pc]) else ins[3]
                        continue
                    if op == BR_LE_SC:
                        x = frame[ins[1]]
                        tx = type(x)
                        if tx is int or tx is float:
                            pc = ins[3] if x <= ins[2] else pc + 1
                        else:
                            pc = pc + 1 if _op_gt(x, ins[2], positions[pc]) else ins[3]
                        continue
                    if op == BR_GT_SS:
                        x = frame[ins[1]]
                        y = frame[ins[2]]
                        tx = type(x)
                        ty = type(y)
                        if (tx is int or tx is float) and (ty is int or ty is float):
                            pc = ins[3] if x > y else pc + 1
                        else:
                            pc = ins[3] if _op_gt(x, y, positions[pc]) else pc + 1
                        continue
                    if op == BR_GT_SC:
                        x = frame[ins[1]]
                        tx = type(x)
                        if tx is int or tx is float:
                            pc = ins[3] if x > ins[2] else pc + 1
                        else:
                            pc = ins[3] if _op_gt(x, ins[2], positions[pc]) else pc + 1
                        continue
                    if op == BR_GE_SS:
                        x = frame[ins[1]]
                        y = frame[ins[2]]
                        tx = type(x)
                        ty = type(y)
                        if (tx is int or tx is float) and (ty is int or ty is float):
                            pc = ins[3] if x >= y else pc + 1
                        else:
                            pc = pc + 1 if _op_lt(x, y, positions[pc]) else ins[3]
                        continue
                    # BR_GE_SC
                    x = frame[ins[1]]
                    tx = type(x)
                    if tx is int or tx is float:
                        pc = ins[3] if x >= ins[2] else pc + 1
                    else:
                        pc = pc + 1 if _op_lt(x, ins[2], positions[pc]) else ins[3]
                    continue
                # <comparison>, O RLY?: IT <- the TROOF; jump when FAIL
                if op == ORLY_EQ_SS:
                    x = frame[ins[1]]
                    y = frame[ins[2]]
                    tx = type(x)
                    ty = type(y)
                    if (tx is int or tx is float) and (ty is int or ty is float):
                        v = x == y
                    else:
                        v = equals(x, y)
                elif op == ORLY_EQ_SC:
                    x = frame[ins[1]]
                    tx = type(x)
                    if tx is int or tx is float:
                        v = x == ins[2]
                    else:
                        v = equals(x, ins[2])
                elif op == ORLY_GT_SS:
                    x = frame[ins[1]]
                    y = frame[ins[2]]
                    tx = type(x)
                    ty = type(y)
                    if (tx is int or tx is float) and (ty is int or ty is float):
                        v = x > y
                    else:
                        v = _op_gt(x, y, positions[pc])
                elif op == ORLY_GT_SC:
                    x = frame[ins[1]]
                    tx = type(x)
                    if tx is int or tx is float:
                        v = x > ins[2]
                    else:
                        v = _op_gt(x, ins[2], positions[pc])
                elif op == ORLY_LT_SS:
                    x = frame[ins[1]]
                    y = frame[ins[2]]
                    tx = type(x)
                    ty = type(y)
                    if (tx is int or tx is float) and (ty is int or ty is float):
                        v = x < y
                    else:
                        v = _op_lt(x, y, positions[pc])
                elif op == ORLY_NE_SS:
                    x = frame[ins[1]]
                    y = frame[ins[2]]
                    tx = type(x)
                    ty = type(y)
                    if (tx is int or tx is float) and (ty is int or ty is float):
                        v = x != y
                    else:
                        v = not equals(x, y)
                elif op == ORLY_NE_SC:
                    x = frame[ins[1]]
                    tx = type(x)
                    if tx is int or tx is float:
                        v = x != ins[2]
                    else:
                        v = not equals(x, ins[2])
                else:  # ORLY_LT_SC
                    x = frame[ins[1]]
                    tx = type(x)
                    if tx is int or tx is float:
                        v = x < ins[2]
                    else:
                        v = _op_lt(x, ins[2], positions[pc])
                frame[0] = v
                pc = pc + 1 if v else ins[3]
                continue
            # -- array / symmetric access ------------------------------------
            if op < ST_TYPED:
                if op == LDX:
                    i = frame[ins[3]]
                    if type(i) is not int:
                        i = to_numbr(i, positions[pc])
                    cell = frame[ins[2]]
                    data = cell.data
                    if type(data) is not list and 0 <= i < len(data):
                        # numpy storage: item() is the cell's converter
                        frame[ins[1]] = data.item(i)
                        pc += 1
                        continue
                    try:
                        frame[ins[1]] = cell.read(i)
                    except LolRuntimeError as exc:
                        raise LolRuntimeError(
                            f"{ins[4]}: {exc.message}", positions[pc]
                        ) from exc
                    pc += 1
                    continue
                if op == STX:
                    i = frame[ins[2]]
                    if type(i) is not int:
                        i = to_numbr(i, positions[pc])
                    m = ins[4]
                    v = frame[ins[3]]
                    tv = type(v)
                    et = m[1]
                    if not (
                        (tv is float and et is NUMBAR)
                        or (tv is int and et is NUMBR)
                    ):
                        v = coerce_static(v, et, m[0], positions[pc])
                    try:
                        frame[ins[1]].write(i, v)
                    except LolRuntimeError as exc:
                        raise LolRuntimeError(
                            f"{m[0]}: {exc.message}", positions[pc]
                        ) from exc
                    pc += 1
                    continue
                if op == SYM_LD:
                    e = caches[ins[3]]
                    if e is not None and fast:
                        cell = e[0]
                        frame[ins[1]] = cell.value if e[1] else cell.read()
                    else:
                        frame[ins[1]] = self._sym_ld_slow(
                            caches, ins[2], ins[3], positions[pc]
                        )
                    pc += 1
                    continue
                if op == SYM_ST:
                    e = caches[ins[3]]
                    if e is not None and fast:
                        v = frame[ins[2]]
                        tv = type(v)
                        lt = e[2]
                        if (tv is int and lt is NUMBR) or (
                            tv is float and lt is NUMBAR
                        ):
                            if e[1]:
                                e[0].value = v
                            else:
                                e[0].write(v)
                            pc += 1
                            continue
                    self._sym_st_slow(
                        caches, ins[1], frame[ins[2]], ins[3], positions[pc]
                    )
                    pc += 1
                    continue
                if op == SYM_LDX:
                    i = frame[ins[3]]
                    if type(i) is not int:
                        i = to_numbr(i, positions[pc])
                    e = caches[ins[4]]
                    if e is not None and fast and 0 <= i < e[2]:
                        v = e[0][i]
                        conv = e[1]
                        frame[ins[1]] = conv(v) if conv is not None else v
                    else:
                        frame[ins[1]] = self._sym_ldx_slow(
                            caches, ins[2], i, ins[4], positions[pc]
                        )
                    pc += 1
                    continue
                # SYM_STX
                i = frame[ins[2]]
                if type(i) is not int:
                    i = to_numbr(i, positions[pc])
                e = caches[ins[4]]
                if e is not None and fast and 0 <= i < e[2]:
                    v = frame[ins[3]]
                    tv = type(v)
                    lt = e[1]
                    if (tv is int and lt is NUMBR) or (
                        tv is float and lt is NUMBAR
                    ):
                        e[0][i] = v
                        pc += 1
                        continue
                self._sym_stx_slow(
                    caches, ins[1], i, frame[ins[3]], ins[4], positions[pc]
                )
                pc += 1
                continue
            # -- stores, coercions, misc -------------------------------------
            if op < HALT:
                if op == ST_TYPED:
                    v = frame[ins[2]]
                    m = ins[3]
                    dt = m[0]
                    tv = type(v)
                    if (tv is int and dt is NUMBR) or (
                        tv is float and dt is NUMBAR
                    ):
                        frame[ins[1]] = v
                    else:
                        frame[ins[1]] = coerce_static(v, dt, m[1], positions[pc])
                    pc += 1
                    continue
                if op == ST_DYN:
                    v = frame[ins[2]]
                    tv = type(v)
                    if (
                        tv is int
                        or tv is float
                        or tv is str
                        or tv is bool
                        or v is None
                        or is_scalar_value(v)
                    ):
                        frame[ins[1]] = v
                    else:
                        raise LolTypeError(
                            f"cannot assign an array value to scalar '{ins[3]}'",
                            positions[pc],
                        )
                    pc += 1
                    continue
                if op == BINOP:
                    frame[ins[1]] = ins[2](
                        frame[ins[3]], frame[ins[4]], positions[pc]
                    )
                    pc += 1
                    continue
                if op == BINOP_SC:
                    frame[ins[1]] = ins[2](frame[ins[3]], ins[4], positions[pc])
                    pc += 1
                    continue
                if op == BINOP_CS:
                    frame[ins[1]] = ins[2](ins[3], frame[ins[4]], positions[pc])
                    pc += 1
                    continue
                if op == UNOP:
                    frame[ins[1]] = ins[2](frame[ins[3]], positions[pc])
                    pc += 1
                    continue
                if op == LOAD_ME:
                    frame[ins[1]] = my_pe
                    pc += 1
                    continue
                if op == LOAD_NPES:
                    frame[ins[1]] = n_pes
                    pc += 1
                    continue
                if op == STEP:
                    s = self.steps + 1
                    self.steps = s
                    if max_steps is not None and s > max_steps:
                        raise LolRuntimeError(
                            f"program exceeded {max_steps} statement steps",
                            positions[pc],
                        )
                    pc += 1
                    continue
                if op == FLOPS:
                    ctx.add_flops(ins[1])
                    pc += 1
                    continue
                # LOOP_VEC
                if run_vec(self, frame, ins[1], positions[pc]):
                    self.vec_runs += 1
                    pc = ins[2]
                else:
                    self.vec_bails += 1
                    pc += 1
                continue
            # -- cold opcodes ------------------------------------------------
            if op == HALT:
                return None
            if op == RET:
                return frame[ins[1]]
            if op == RETC:
                return ins[1]
            # Hot subset of the "cold" ops, promoted inline: communication
            # and RNG dominate the short-loop workloads (ring, transpose,
            # pi, histogram), where the _HANDLERS call overhead shows.
            if op == BARRIER:
                ctx.barrier_all()
                pc += 1
                continue
            if op == TXT_GET:
                pos = positions[pc]
                pe = frame[ins[2]]
                if type(pe) is not int:
                    pe = to_numbr(pe, pos)
                if not 0 <= pe < n_pes:
                    raise LolParallelError(
                        f"TXT MAH BFF {pe}: PE out of range [0, {n_pes})", pos
                    )
                name, idx, ci, store, step_pos, ipos, tpos = ins[3]
                if step_pos is not None:
                    self._count_step(step_pos)
                e = caches[ci]
                if idx is None:
                    if e is not None:
                        v = e[pe]()
                    else:
                        v = self._get_slow(caches, ci, name, pe, None)
                else:
                    k = idx[0]
                    if k == "r":
                        i = frame[idx[1]]
                    elif k == "c":
                        i = idx[1]
                    else:
                        # QUOSHUNT OF / MOD OF / ...: ("rr"|"rc"|"cr", fn,
                        # a, b, pos, flops), evaluated after the PE check.
                        if idx[5]:
                            ctx.add_flops(idx[5])
                        if k == "rc":
                            i = idx[1](frame[idx[2]], idx[3], idx[4])
                        elif k == "rr":
                            i = idx[1](frame[idx[2]], frame[idx[3]], idx[4])
                        else:
                            i = idx[1](idx[2], frame[idx[3]], idx[4])
                    if type(i) is not int:
                        i = to_numbr(i, ipos)
                    if e is not None and 0 <= i < e[1]:
                        v = e[0][pe](i)
                    else:
                        v = self._get_slow(caches, ci, name, pe, i)
                if store is None:
                    frame[ins[1]] = v
                elif store[0] is None:  # untyped: a whole array cannot land
                    if not is_scalar_value(v):
                        raise LolTypeError(
                            f"cannot assign an array value to scalar "
                            f"'{store[1]}'",
                            tpos,
                        )
                    frame[ins[1]] = v
                else:
                    dt = store[0]
                    tv = type(v)
                    if (tv is float and dt is NUMBAR) or (tv is int and dt is NUMBR):
                        frame[ins[1]] = v
                    else:
                        frame[ins[1]] = coerce_static(v, dt, store[1], tpos)
                pc += 1
                continue
            if op == GET:
                pe = self.target_pe
                e = caches[ins[3][0]]
                if e is not None and pe is not None:
                    frame[ins[1]] = e[pe]()
                else:
                    name = ins[2]
                    frame[ins[1]] = self._get_slow(
                        caches,
                        ins[3][0],
                        name,
                        _require_target(self, name, positions[pc]),
                        None,
                    )
                pc += 1
                continue
            if op == RANDOM:
                if rng is None:
                    rng = ctx.rng
                frame[ins[1]] = (
                    rng.randrange(0, 2**31 - 1) if ins[2] == 0 else rng.random()
                )
                pc += 1
                continue
            if op == GETX:
                i = frame[ins[3]]
                if type(i) is not int:
                    i = to_numbr(i, positions[pc])
                pe = self.target_pe
                e = caches[ins[4][0]]
                if e is not None and pe is not None and 0 <= i < e[1]:
                    frame[ins[1]] = e[0][pe](i)
                else:
                    name = ins[2]
                    frame[ins[1]] = self._get_slow(
                        caches,
                        ins[4][0],
                        name,
                        _require_target(self, name, positions[pc]),
                        i,
                    )
                pc += 1
                continue
            if op == PUTX:
                pos = positions[pc]
                name = ins[1]
                index = _as_index(frame[ins[2]], pos)
                pe = _require_target(self, name, pos)
                obj = ctx.world.heap.lookup(name)
                ctx.put(
                    name,
                    coerce_element(frame[ins[3]], obj.lol_type, name, pos),
                    pe,
                    index=index,
                )
                pc += 1
                continue
            if op == PUT:
                pos = positions[pc]
                name = ins[1]
                pe = _require_target(self, name, pos)
                ctx.put(name, coerce_symmetric(ctx, name, frame[ins[2]], pos), pe)
                pc += 1
                continue
            if op == TXT_PUSH:
                pos = positions[pc]
                pe = to_numbr(frame[ins[1]], pos)
                if not 0 <= pe < n_pes:
                    raise LolParallelError(
                        f"TXT MAH BFF {pe}: PE out of range [0, {n_pes})", pos
                    )
                self.txt_saves.append(self.target_pe)
                self.target_pe = pe
                pc += 1
                continue
            if op == TXT_POP:
                self.target_pe = self.txt_saves.pop()
                pc += 1
                continue
            if op == CAST:
                frame[ins[1]] = cast_value(frame[ins[2]], ins[3][0], positions[pc])
                pc += 1
                continue
            pc = _HANDLERS[op](self, co, frame, caches, ins, pc)
