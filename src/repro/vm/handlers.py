"""Cold-opcode handlers and slow paths of the VM dispatch loop.

:meth:`repro.vm.machine.Machine._exec` inlines the hot half of the ISA
and the hot cold-range opcodes (barriers, gets, puts, ``TXT MAH BFF``,
``WHATEVR``, casts); every other opcode dispatches through
:data:`_HANDLERS`, one ``fn(machine, co, frame, caches, ins, pc) -> next
pc`` per opcode.  The name, target and SRS helpers here raise the
tree-walker's errors with its messages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..lang.errors import (
    LolNameError,
    LolParallelError,
    LolRuntimeError,
    LolTypeError,
    SourcePos,
)
from ..lang.resolve import LOCAL, SYMMETRIC, VarInfo
from ..lang.types import coerce_static, format_yarn, to_array_size, to_numbr
from ..shmem.heap import ArrayCell
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
from . import isa

if TYPE_CHECKING:
    from .machine import Machine


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
    isa.READLINE: _h_readline,
    isa.CANHAS: _h_canhas,
    isa.CHECK_FUNC: _h_check_func,
    isa.CALL: _h_call,
    isa.DEF: _h_def,
    isa.LOCKOP: _h_lockop,
    isa.LOCKOPD: _h_lockopd,
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
