"""Dispatch-loop interpreter for the register-bytecode VM engine.

One Python ``while`` loop executes the flat instruction tuples emitted
by :mod:`repro.vm.compile`.  The hot half of the ISA (arithmetic, fused
compare-branches, slot moves, array/symmetric access) is inlined in a
nested if-chain ordered by opcode number; everything else dispatches
through a handler table.  Operator fallbacks and coercions are shared
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

A tracing JIT would record from :meth:`Machine._exec`: the green key of
a trace is ``(CodeObject, pc)`` and the hot back-edges are ``INC_JMP``
/ ``JMP`` targets, so a recorder only needs to wrap the loop body.
"""

from __future__ import annotations

from typing import Optional

from ..lang.errors import (
    LolNameError,
    LolParallelError,
    LolRuntimeError,
    LolTypeError,
    SourcePos,
)
from ..lang.resolve import LOCAL, SYMMETRIC, VarInfo
from ..lang.types import (
    LolType,
    cast as cast_value,
    coerce_static,
    format_yarn,
    to_array_size,
    to_numbr,
    to_troof,
)
from ..shmem.heap import ArrayCell, ScalarCell, SymmetricObject
from ..interp.env import UNDECLARED, new_frame
from ..interp.interpreter import (
    KNOWN_LIBRARIES,
    _Break,
    _Return,
    coerce_element,
    coerce_symmetric,
    display_value,
    is_scalar_value,
    write_whole_array,
)
from ..interp.values import (
    _op_add,
    _op_gt,
    _op_lt,
    _op_mul,
    _op_recip,
    _op_sqrt,
    _op_square,
    _op_sub,
    equals,
)
from . import isa
from .isa import CodeObject, VMProgram
from .vecrun import run_vec

_NUMBR = LolType.NUMBR
_NUMBAR = LolType.NUMBAR


# ---------------------------------------------------------------------------
# Runtime helpers for the non-inlined name, target and SRS paths.
# ---------------------------------------------------------------------------


def _undeclared(name: str, pos: SourcePos) -> LolNameError:
    return LolNameError(
        f"variable '{name}' has not been declared (I HAS A {name})", pos
    )


def _require_target(rt: Machine, name: str, pos: SourcePos) -> int:
    pe = rt.target_pe
    if pe is None:
        raise LolParallelError(
            f"'UR {name}' used outside a TXT MAH BFF predicated "
            f"statement or block",
            pos,
        )
    return pe


def _as_index(value: object, pos: SourcePos) -> int:
    return value if type(value) is int else to_numbr(value, pos)


# Dynamic (SRS) access paths: the visible-name *set* at an SRS site is
# static (a scope snapshot), the chosen name is not.  These mirror the
# tree-walker's ``_read_var`` / ``_write_var`` / element variants.


def _dyn_read(
    rt: Machine, frame: list, snap: dict[str, VarInfo], name: str, pos: SourcePos
) -> object:
    info = snap.get(name)
    if info is None:
        raise _undeclared(name, pos)
    if info.kind == SYMMETRIC:
        rt.declared_object(name, pos)
        return rt.ctx.local_read(name)
    if info.is_array:
        raise LolTypeError(
            f"'{name}' is an array: index it with {name}'Z <expr>", pos
        )
    v = (frame if info.kind == LOCAL else rt.gframe)[info.slot]
    if v is UNDECLARED:
        raise _undeclared(name, pos)
    return v


def _dyn_write(
    rt: Machine,
    frame: list,
    snap: dict[str, VarInfo],
    name: str,
    value: object,
    pos: SourcePos,
) -> None:
    info = snap.get(name)
    if info is None:
        raise _undeclared(name, pos)
    if info.kind == SYMMETRIC:
        rt.declared_object(name, pos)
        rt.ctx.local_write(name, coerce_symmetric(rt.ctx, name, value, pos))
        return
    target = frame if info.kind == LOCAL else rt.gframe
    if target[info.slot] is UNDECLARED:
        raise _undeclared(name, pos)
    if info.is_array:
        write_whole_array(target[info.slot], value, name, pos)
        return
    if info.static_type is not None:
        value = coerce_static(value, info.static_type, name, pos)
    elif not is_scalar_value(value):
        raise LolTypeError(f"cannot assign an array value to scalar '{name}'", pos)
    target[info.slot] = value


def _dyn_read_element(
    rt: Machine,
    frame: list,
    snap: dict[str, VarInfo],
    name: str,
    index: int,
    pos: SourcePos,
) -> object:
    info = snap.get(name)
    if info is None:
        raise _undeclared(name, pos)
    if info.kind == SYMMETRIC:
        rt.declared_object(name, pos)
        return rt.ctx.local_read(name, index=index)
    if not info.is_array:
        raise LolTypeError(f"'{name}' is not an array", pos)
    cell = (frame if info.kind == LOCAL else rt.gframe)[info.slot]
    if cell is UNDECLARED:
        raise _undeclared(name, pos)
    try:
        return cell.read(index)
    except LolRuntimeError as exc:
        raise LolRuntimeError(f"{name}: {exc.message}", pos) from exc


def _dyn_write_element(
    rt: Machine,
    frame: list,
    snap: dict[str, VarInfo],
    name: str,
    index: int,
    value: object,
    pos: SourcePos,
) -> None:
    info = snap.get(name)
    if info is None:
        raise _undeclared(name, pos)
    if info.kind == SYMMETRIC:
        obj = rt.declared_object(name, pos)
        rt.ctx.local_write(
            name, coerce_element(value, obj.lol_type, name, pos), index=index
        )
        return
    if not info.is_array:
        raise LolTypeError(f"'{name}' is not an array", pos)
    cell = (frame if info.kind == LOCAL else rt.gframe)[info.slot]
    if cell is UNDECLARED:
        raise _undeclared(name, pos)
    value = coerce_element(value, cell.lol_type, name, pos)
    try:
        cell.write(index, value)
    except LolRuntimeError as exc:
        raise LolRuntimeError(f"{name}: {exc.message}", pos) from exc


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
        "sym_misses",
        "vec_runs",
        "vec_bails",
        "txt_saves",
    )

    def __init__(self, ctx, max_steps: Optional[int] = None) -> None:
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
        LDX=isa.LDX,
        STX=isa.STX,
        SYM_LD=isa.SYM_LD,
        SYM_ST=isa.SYM_ST,
        SYM_LDX=isa.SYM_LDX,
        SYM_STX=isa.SYM_STX,
        ST_TYPED=isa.ST_TYPED,
        ST_DYN=isa.ST_DYN,
        COERCE=isa.COERCE,
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
        PUT=isa.PUT,
        PUTX=isa.PUTX,
        PUT_BARRIER=isa.PUT_BARRIER,
        GET_BIN=isa.GET_BIN,
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
                if op == JEQ:
                    pc = ins[3] if equals(frame[ins[1]], frame[ins[2]]) else pc + 1
                    continue
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
            # -- array / symmetric access ------------------------------------
            if op < ST_TYPED:
                if op == LDX:
                    i = frame[ins[3]]
                    if type(i) is not int:
                        i = to_numbr(i, positions[pc])
                    try:
                        frame[ins[1]] = frame[ins[2]].read(i)
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
                if op == COERCE:
                    m = ins[2]
                    v = frame[ins[1]]
                    dt = m[0]
                    tv = type(v)
                    if not (
                        (tv is int and dt is NUMBR)
                        or (tv is float and dt is NUMBAR)
                    ):
                        frame[ins[1]] = coerce_static(v, dt, m[1], positions[pc])
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
            if op == GET:
                name = ins[2]
                frame[ins[1]] = ctx.get(
                    name, _require_target(self, name, positions[pc])
                )
                pc += 1
                continue
            if op == PUT_BARRIER:
                pos = positions[pc]
                name = ins[1]
                ireg = ins[3][0]
                if ireg is None:
                    pe = _require_target(self, name, pos)
                    ctx.put(
                        name, coerce_symmetric(ctx, name, frame[ins[2]], pos), pe
                    )
                else:
                    index = _as_index(frame[ireg], pos)
                    pe = _require_target(self, name, pos)
                    obj = ctx.world.heap.lookup(name)
                    ctx.put(
                        name,
                        coerce_element(frame[ins[2]], obj.lol_type, name, pos),
                        pe,
                        index=index,
                    )
                ctx.barrier_all()
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
                pos = positions[pc]
                name = ins[2]
                index = _as_index(frame[ins[3]], pos)
                frame[ins[1]] = ctx.get(
                    name, _require_target(self, name, pos), index=index
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
            if op == GET_BIN:
                fn, name, idx, remote_on_lhs, other, pos = ins[2]
                ov = frame[other[1]] if other[0] == "r" else other[1]
                if idx is None:
                    rv = ctx.get(name, _require_target(self, name, pos))
                else:
                    iv = frame[idx[1]] if idx[0] == "r" else idx[1]
                    index = iv if type(iv) is int else to_numbr(iv, pos)
                    rv = ctx.get(
                        name, _require_target(self, name, pos), index=index
                    )
                frame[ins[1]] = fn(rv, ov, pos) if remote_on_lhs else fn(ov, rv, pos)
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


# ---------------------------------------------------------------------------
# Cold-opcode handlers: fn(machine, co, frame, caches, ins, pc) -> next pc.
# ---------------------------------------------------------------------------


def _h_raise_break(m, co, frame, caches, ins, pc):
    raise _Break()


def _h_noloop(m, co, frame, caches, ins, pc):
    raise LolRuntimeError(
        f"loop '{ins[1]}' has no counter, no condition and no GTFO: "
        f"it would never terminate",
        co.positions[pc],
    )


def _h_raise_err(m, co, frame, caches, ins, pc):
    ins[1]()
    return pc + 1  # pragma: no cover - raisers always raise


def _h_raise_return(m, co, frame, caches, ins, pc):
    raise _Return(frame[ins[1]])


def _h_display(m, co, frame, caches, ins, pc):
    frame[ins[1]] = display_value(frame[ins[2]], co.positions[pc])
    return pc + 1


def _h_visible(m, co, frame, caches, ins, pc):
    out = []
    for p in ins[1]:
        out.append(p if type(p) is str else frame[p])
    m.ctx.emit("".join(out) + ins[2])
    return pc + 1


def _h_interp(m, co, frame, caches, ins, pc):
    out = []
    for p in ins[2]:
        out.append(p if type(p) is str else format_yarn(frame[p]))
    frame[ins[1]] = "".join(out)
    return pc + 1


def _h_nary(m, co, frame, caches, ins, pc):
    frame[ins[1]] = ins[2]([frame[r] for r in ins[3]], co.positions[pc])
    return pc + 1


def _h_cast(m, co, frame, caches, ins, pc):
    frame[ins[1]] = cast_value(frame[ins[2]], ins[3][0], co.positions[pc])
    return pc + 1


def _h_random(m, co, frame, caches, ins, pc):
    rng = m.ctx.rng
    frame[ins[1]] = rng.randrange(0, 2**31 - 1) if ins[2] == 0 else rng.random()
    return pc + 1


def _h_readline(m, co, frame, caches, ins, pc):
    frame[ins[1]] = m.ctx.read_line()
    return pc + 1


def _h_canhas(m, co, frame, caches, ins, pc):
    raw = ins[1]
    lib = raw.upper()
    if lib not in KNOWN_LIBRARIES:
        raise LolRuntimeError(f"CAN HAS {raw}?: unknown library", co.positions[pc])
    m.libraries.add(lib)
    return pc + 1


def _h_check_func(m, co, frame, caches, ins, pc):
    name = ins[2]
    f = m.functions.get(name)
    pos = co.positions[pc]
    if f is None:
        raise LolNameError(f"no function named '{name}'", pos)
    if f.n_params != ins[3]:
        raise LolRuntimeError(
            f"function '{name}' wants {f.n_params} arguments, got {ins[3]}",
            pos,
        )
    frame[ins[1]] = f
    return pc + 1


def _h_call(m, co, frame, caches, ins, pc):
    f = frame[ins[2]]
    callee = new_frame(f.co.n_slots)
    params = f.param_slots
    regs = ins[3]
    for i in range(len(regs)):
        callee[params[i]] = frame[regs[i]]
    saved = len(m.txt_saves)
    try:
        ret = m._exec(f.co, callee)
    finally:
        # A RET inside TXT MAH BFF skips the TXT_POPs; unwind them here
        # (the tree-walker's try/finally per TXT statement).
        ts = m.txt_saves
        while len(ts) > saved:
            m.target_pe = ts.pop()
    frame[ins[1]] = ret
    return pc + 1


def _h_def(m, co, frame, caches, ins, pc):
    m.functions[ins[1]] = ins[2][0]
    return pc + 1


def _h_barrier(m, co, frame, caches, ins, pc):
    m.ctx.barrier_all()
    return pc + 1


def _lock_op(m, kind, name, frame, pos):
    ctx = m.ctx
    if not ctx.is_symmetric(name):
        raise LolParallelError(
            f"cannot lock '{name}': it is not a shared symmetric "
            f"variable (WE HAS A {name} ... AN IM SHARIN IT)",
            pos,
        )
    if kind == isa.LOCK_SET:
        ctx.set_lock(name)
    elif kind == isa.LOCK_TEST:
        frame[0] = ctx.test_lock(name)
    else:
        ctx.clear_lock(name)


def _h_lockop(m, co, frame, caches, ins, pc):
    _lock_op(m, ins[1], ins[2], frame, co.positions[pc])
    return pc + 1


def _h_lockopd(m, co, frame, caches, ins, pc):
    _lock_op(m, ins[1], format_yarn(frame[ins[2]]), frame, co.positions[pc])
    return pc + 1


def _h_txt_push(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    pe = to_numbr(frame[ins[1]], pos)
    if not 0 <= pe < m.ctx.n_pes:
        raise LolParallelError(
            f"TXT MAH BFF {pe}: PE out of range [0, {m.ctx.n_pes})", pos
        )
    m.txt_saves.append(m.target_pe)
    m.target_pe = pe
    return pc + 1


def _h_txt_pop(m, co, frame, caches, ins, pc):
    m.target_pe = m.txt_saves.pop()
    return pc + 1


def _h_get(m, co, frame, caches, ins, pc):
    name = ins[2]
    frame[ins[1]] = m.ctx.get(
        name, _require_target(m, name, co.positions[pc])
    )
    return pc + 1


def _h_getx(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    name = ins[2]
    index = _as_index(frame[ins[3]], pos)
    frame[ins[1]] = m.ctx.get(name, _require_target(m, name, pos), index=index)
    return pc + 1


def _h_put(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    name = ins[1]
    pe = _require_target(m, name, pos)
    m.ctx.put(name, coerce_symmetric(m.ctx, name, frame[ins[2]], pos), pe)
    return pc + 1


def _h_putx(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    name = ins[1]
    index = _as_index(frame[ins[2]], pos)
    pe = _require_target(m, name, pos)
    obj = m.ctx.world.heap.lookup(name)
    m.ctx.put(
        name,
        coerce_element(frame[ins[3]], obj.lol_type, name, pos),
        pe,
        index=index,
    )
    return pc + 1


def _h_put_barrier(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    name = ins[1]
    ireg = ins[3][0]
    if ireg is None:
        pe = _require_target(m, name, pos)
        m.ctx.put(name, coerce_symmetric(m.ctx, name, frame[ins[2]], pos), pe)
    else:
        index = _as_index(frame[ireg], pos)
        pe = _require_target(m, name, pos)
        obj = m.ctx.world.heap.lookup(name)
        m.ctx.put(
            name,
            coerce_element(frame[ins[2]], obj.lol_type, name, pos),
            pe,
            index=index,
        )
    m.ctx.barrier_all()
    return pc + 1


def _h_get_bin(m, co, frame, caches, ins, pc):
    fn, name, idx, remote_on_lhs, other, pos = ins[2]
    ov = frame[other[1]] if other[0] == "r" else other[1]
    ctx = m.ctx
    if idx is None:
        rv = ctx.get(name, _require_target(m, name, pos))
    else:
        iv = frame[idx[1]] if idx[0] == "r" else idx[1]
        index = iv if type(iv) is int else to_numbr(iv, pos)
        rv = ctx.get(name, _require_target(m, name, pos), index=index)
    frame[ins[1]] = fn(rv, ov, pos) if remote_on_lhs else fn(ov, rv, pos)
    return pc + 1


def _h_getd(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    name = format_yarn(frame[ins[2]])
    frame[ins[1]] = m.ctx.get(name, _require_target(m, name, pos))
    return pc + 1


def _h_getxd(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    name = format_yarn(frame[ins[2]])
    index = _as_index(frame[ins[3]], pos)
    frame[ins[1]] = m.ctx.get(name, _require_target(m, name, pos), index=index)
    return pc + 1


def _h_putd(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    name = format_yarn(frame[ins[1]])
    pe = _require_target(m, name, pos)
    m.ctx.put(name, coerce_symmetric(m.ctx, name, frame[ins[2]], pos), pe)
    return pc + 1


def _h_putxd(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    name = format_yarn(frame[ins[1]])
    index = _as_index(frame[ins[2]], pos)
    pe = _require_target(m, name, pos)
    obj = m.ctx.world.heap.lookup(name)
    m.ctx.put(
        name,
        coerce_element(frame[ins[3]], obj.lol_type, name, pos),
        pe,
        index=index,
    )
    return pc + 1


def _h_dyn_ld(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    frame[ins[1]] = _dyn_read(
        m, frame, ins[3][0], format_yarn(frame[ins[2]]), pos
    )
    return pc + 1


def _h_dyn_st(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    _dyn_write(
        m, frame, ins[3][0], format_yarn(frame[ins[1]]), frame[ins[2]], pos
    )
    return pc + 1


def _h_dyn_ldx(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    name = format_yarn(frame[ins[2]])
    index = _as_index(frame[ins[3]], pos)
    frame[ins[1]] = _dyn_read_element(m, frame, ins[4][0], name, index, pos)
    return pc + 1


def _h_dyn_stx(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    name = format_yarn(frame[ins[1]])
    index = _as_index(frame[ins[2]], pos)
    _dyn_write_element(m, frame, ins[4][0], name, index, frame[ins[3]], pos)
    return pc + 1


def _h_gld(m, co, frame, caches, ins, pc):
    v = m.gframe[ins[2]]
    if v is UNDECLARED:
        raise _undeclared(ins[3], co.positions[pc])
    frame[ins[1]] = v
    return pc + 1


def _h_gst(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    dt, name = ins[3]
    g = m.gframe
    if g[ins[1]] is UNDECLARED:
        raise _undeclared(name, pos)
    v = frame[ins[2]]
    if dt is not None:
        v = coerce_static(v, dt, name, pos)
    elif not is_scalar_value(v):
        raise LolTypeError(f"cannot assign an array value to scalar '{name}'", pos)
    g[ins[1]] = v
    return pc + 1


def _h_gldx(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    name = ins[4]
    cell = m.gframe[ins[2]]
    index = _as_index(frame[ins[3]], pos)
    try:
        frame[ins[1]] = cell.read(index)
    except LolRuntimeError as exc:
        raise LolRuntimeError(f"{name}: {exc.message}", pos) from exc
    return pc + 1


def _h_gstx(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    elem_t, name = ins[4]
    cell = m.gframe[ins[1]]
    index = _as_index(frame[ins[2]], pos)
    value = coerce_static(frame[ins[3]], elem_t, name, pos)
    try:
        cell.write(index, value)
    except LolRuntimeError as exc:
        raise LolRuntimeError(f"{name}: {exc.message}", pos) from exc
    return pc + 1


def _h_gchk(m, co, frame, caches, ins, pc):
    if m.gframe[ins[1]] is UNDECLARED:
        raise _undeclared(ins[2], co.positions[pc])
    return pc + 1


def _h_st_arr(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    cell = frame[ins[1]]
    if cell is UNDECLARED:
        raise _undeclared(ins[3], pos)
    write_whole_array(cell, frame[ins[2]], ins[3], pos)
    return pc + 1


def _h_gst_arr(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    cell = m.gframe[ins[1]]
    if cell is UNDECLARED:
        raise _undeclared(ins[3], pos)
    write_whole_array(cell, frame[ins[2]], ins[3], pos)
    return pc + 1


def _h_arrdecl(m, co, frame, caches, ins, pc):
    pos = co.positions[pc]
    elem_t, name = ins[3]
    size = to_array_size(frame[ins[2]], pos)
    if size <= 0:
        raise LolRuntimeError(
            f"array '{name}' must have positive size, got {size}", pos
        )
    frame[ins[1]] = ArrayCell(elem_t, size)
    return pc + 1


def _h_symdecl(m, co, frame, caches, ins, pc):
    name, declared, _, _, _, init_co = ins[1]
    ctx = m.ctx
    m.declared[name] = ctx.world.heap.lookup(name)
    if init_co is not None:
        value = coerce_static(
            m._exec(init_co, m.gframe), declared, name, co.positions[pc]
        )
        ctx.local_write(name, value)
    return pc + 1


_HANDLERS: list = [None] * isa.N_OPCODES
for _code, _fn in {
    isa.RAISE_BREAK: _h_raise_break,
    isa.NOLOOP: _h_noloop,
    isa.RAISE_ERR: _h_raise_err,
    isa.RAISE_RETURN: _h_raise_return,
    isa.DISPLAY: _h_display,
    isa.VISIBLE: _h_visible,
    isa.INTERP: _h_interp,
    isa.NARY: _h_nary,
    isa.CAST: _h_cast,
    isa.RANDOM: _h_random,
    isa.READLINE: _h_readline,
    isa.CANHAS: _h_canhas,
    isa.CHECK_FUNC: _h_check_func,
    isa.CALL: _h_call,
    isa.DEF: _h_def,
    isa.BARRIER: _h_barrier,
    isa.LOCKOP: _h_lockop,
    isa.LOCKOPD: _h_lockopd,
    isa.TXT_PUSH: _h_txt_push,
    isa.TXT_POP: _h_txt_pop,
    isa.GET: _h_get,
    isa.GETX: _h_getx,
    isa.PUT: _h_put,
    isa.PUTX: _h_putx,
    isa.PUT_BARRIER: _h_put_barrier,
    isa.GET_BIN: _h_get_bin,
    isa.GETD: _h_getd,
    isa.GETXD: _h_getxd,
    isa.PUTD: _h_putd,
    isa.PUTXD: _h_putxd,
    isa.DYN_LD: _h_dyn_ld,
    isa.DYN_ST: _h_dyn_st,
    isa.DYN_LDX: _h_dyn_ldx,
    isa.DYN_STX: _h_dyn_stx,
    isa.GLD: _h_gld,
    isa.GST: _h_gst,
    isa.GLDX: _h_gldx,
    isa.GSTX: _h_gstx,
    isa.GCHK: _h_gchk,
    isa.ST_ARR: _h_st_arr,
    isa.GST_ARR: _h_gst_arr,
    isa.ARRDECL: _h_arrdecl,
    isa.SYMDECL: _h_symdecl,
}.items():
    _HANDLERS[_code] = _fn
del _code, _fn
