"""AST -> register bytecode compiler for the VM engine.

Takes every name's meaning from the binder (:mod:`repro.lang.resolve`):
each binding gets one frame slot when its first declaration compiles,
and function bodies compile after the top level, against its final
root block.  It keeps the tree-walker's error sites and messages, but
emits flat instruction tuples (:mod:`repro.vm.isa`), so the machine
runs one dispatch loop instead of walking the AST.

Expression temporaries share the variables' slot counter: each
statement draws temps from a free list and returns them when the
statement ends, so a loop body reuses the same handful of slots forever.
Because only the *final* instruction of an expression writes its
destination, compiling an expression directly into a variable slot
(``x R SUM OF x AN 1`` -> one ``ADD_SC`` with dst == operand) is safe.

Peephole superinstructions emitted here, all while the statements are
walked (no second pass over the AST):

* fused compare-branches (``BR_*``) for loop and ``MEBBE`` conditions;
* ``ORLY_*`` — a comparison statement followed by ``O RLY?``: the
  comparison sets ``IT`` and branches in one instruction;
* ``INC_JMP`` — counter increment + back-edge;
* ``TXT_GET`` — ``TXT MAH BFF pe, x R UR a'Z i`` (one statement, no
  call, ``x`` a local scalar, ``i`` an operand or one operator over
  operands): PE check, index, get and store in one instruction;
* ``LOOP_VEC`` — whole counted loops vectorized by
  :mod:`repro.vm.vectorize` (guarded; falls back to the scalar loop).

:func:`repro.vm.isa.patch_jumps` then threads every jump whose target
is an unconditional ``JMP``.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator, Optional

from ..analysis.summary import ProgramSummary, is_symmetric, summary_of
from ..lang import ast
from ..lang.errors import (
    LolNameError,
    LolRuntimeError,
    LolTypeError,
    SourcePos,
)
from ..lang.formatter import format_expr
from ..lang.resolve import GLOBAL, LOCAL, SYMMETRIC, Binding, VarInfo
from ..lang.types import LolType, default_value, parse_type
from ..interp.values import BINOP_FUNCS, FLOP_COST, NARYOP_FUNCS, UNOP_FUNCS
from . import isa
from .isa import CodeObject, Label, VMFunction, VMProgram
from .vectorize import try_vectorize

_NUMBR = LolType.NUMBR
_NUMBAR = LolType.NUMBAR

#: Specialized arithmetic opcodes (ss, sc, cs) per BinOp op name; a
#: const-on-the-left QUOSHUNT OF / MOD OF stays a generic BINOP_CS.
_ARITH_OPS = {
    "add": (isa.ADD_SS, isa.ADD_SC, isa.ADD_CS),
    "sub": (isa.SUB_SS, isa.SUB_SC, isa.SUB_CS),
    "mul": (isa.MUL_SS, isa.MUL_SC, isa.MUL_CS),
    "div": (isa.DIV_SS, isa.DIV_SC, None),
    "mod": (isa.MOD_SS, isa.MOD_SC, None),
}

#: Fused branch-if-true opcodes (ss, sc) per comparison op; the matching
#: branch-if-false is the complement row.
_BR_TRUE = {
    "eq": (isa.BR_EQ_SS, isa.BR_EQ_SC),
    "ne": (isa.BR_NE_SS, isa.BR_NE_SC),
    "gt": (isa.BR_GT_SS, isa.BR_GT_SC),
    "lt": (isa.BR_LT_SS, isa.BR_LT_SC),
}
_BR_FALSE = {
    "eq": (isa.BR_NE_SS, isa.BR_NE_SC),
    "ne": (isa.BR_EQ_SS, isa.BR_EQ_SC),
    "gt": (isa.BR_LE_SS, isa.BR_LE_SC),
    "lt": (isa.BR_GE_SS, isa.BR_GE_SC),
}
#: ``<comparison>, O RLY?`` opcodes (ss, sc): IT <- the comparison, then
#: branch to the next arm when it is FAIL.
_ORLY = {
    "eq": (isa.ORLY_EQ_SS, isa.ORLY_EQ_SC),
    "ne": (isa.ORLY_NE_SS, isa.ORLY_NE_SC),
    "gt": (isa.ORLY_GT_SS, isa.ORLY_GT_SC),
    "lt": (isa.ORLY_LT_SS, isa.ORLY_LT_SC),
}
#: Relation swap for canonicalising ``<const> OP <slot>`` into _SC form.
#: Only applied when the constant is a numeric literal (numeric literals
#: never fail coercion, so evaluation-order of errors is preserved).
_SWAP_REL = {"eq": "eq", "ne": "ne", "gt": "lt", "lt": "gt"}

#: Expression node types whose value is always a scalar, so an untyped
#: local store can skip the ``is_scalar_value`` check.
_SCALAR_NODES = (
    ast.IntLit,
    ast.FloatLit,
    ast.TroofLit,
    ast.NoobLit,
    ast.StringLit,
    ast.MeExpr,
    ast.FrenzExpr,
    ast.RandomExpr,
    ast.BinOp,
    ast.UnaryOp,
    ast.NaryOp,
    ast.Index,
)


def _undeclared_raiser(name: str, pos: SourcePos):
    def raise_it() -> None:
        raise LolNameError(
            f"variable '{name}' has not been declared (I HAS A {name})", pos
        )

    return raise_it


def _message_raiser(exc_type, message: str, pos: SourcePos):
    def raise_it() -> None:
        raise exc_type(message, pos)

    return raise_it


class _Asm:
    """Instruction buffer for one code object (program, function, mini)."""

    __slots__ = (
        "name",
        "frame",
        "slots",
        "code",
        "positions",
        "free_temps",
        "stmt_temps",
        "n_caches",
        "is_function",
        "break_stack",
        "txt_depth",
    )

    def __init__(
        self, name: str, frame: Optional[ast.FuncDef], slots: Iterator[int]
    ) -> None:
        self.name = name
        self.frame = frame  # None: the root frame
        #: the frame's slot counter (slot 0 is IT): next() is a fresh slot
        self.slots = slots
        self.code: list = []
        self.positions: list = []
        self.free_temps: list[int] = []
        self.stmt_temps: list[int] = []
        self.n_caches = 0
        self.is_function = frame is not None
        #: (exit_label, txt_depth_at_entry) for enclosing loops/switches.
        self.break_stack: list[tuple[Label, int]] = []
        self.txt_depth = 0

    def emit(self, ins: tuple, pos: SourcePos) -> int:
        pc = len(self.code)
        self.code.append(ins)
        self.positions.append(pos)
        return pc

    def label(self) -> Label:
        return Label()

    def mark(self, label: Label) -> None:
        label.pc = len(self.code)

    def temp(self) -> int:
        if self.free_temps:
            slot = self.free_temps.pop()
        else:
            slot = next(self.slots)
        self.stmt_temps.append(slot)
        return slot

    def end_stmt(self) -> None:
        if self.stmt_temps:
            self.free_temps.extend(self.stmt_temps)
            self.stmt_temps.clear()

    def cache_slot(self) -> int:
        idx = self.n_caches
        self.n_caches += 1
        return idx

    def finish(self, n_slots: int) -> CodeObject:
        return CodeObject(
            self.name,
            isa.patch_jumps(self.code),
            tuple(self.positions),
            n_slots,
            self.n_caches,
        )


class VMCompiler:
    """One-shot AST -> bytecode translation for one program."""

    def __init__(
        self,
        tree: ast.Program | ProgramSummary,
        *,
        count_flops: bool = False,
        count_steps: bool = False,
    ) -> None:
        summary = summary_of(tree)
        self.program = summary.program
        self.bindings = summary.bindings
        self.bindings.check()
        self.count_flops = count_flops
        self.count_steps = count_steps
        # Vectorization changes per-statement step accounting and skips
        # the per-op FLOP counters, so step limits and FLOP tracing both
        # disable it outright (every bail path stays correct).
        self.vectorize = not count_steps and not count_flops
        # Symmetric names no peer ever stores to (from the static
        # analyzer's program summary) let the vectorizer hoist a
        # symmetric trip count out of its loop.
        self.remote_unwritten: frozenset[str] = frozenset()
        if self.vectorize:
            self.remote_unwritten = summary.remote_unwritten
        self.root_slots = count(1)
        #: binding -> how the frame that declares it addresses it
        self.infos: dict[Binding, VarInfo] = {
            b: VarInfo(SYMMETRIC, b.name, -1, b.static_type, b.is_array)
            for b in self.bindings.root
            if b.symmetric
        }
        self._pending_funcs: list[tuple[ast.FuncDef, VMFunction]] = []
        self._compiled_funcs: dict[int, VMFunction] = {}

    def compile(self) -> VMProgram:
        hoisted: dict[str, VMFunction] = {}
        for stmt in self.program.body:
            if isinstance(stmt, ast.FuncDef):
                hoisted[stmt.name] = self._function_stub(stmt)
        asm = _Asm("<main>", None, self.root_slots)
        self._block(self.program.body, asm)
        asm.emit((isa.HALT,), self.program.pos)
        while self._pending_funcs:
            node, vmf = self._pending_funcs.pop()
            self._fill_function(node, vmf)
        co = asm.finish(next(self.root_slots))
        return VMProgram(co, hoisted, self.count_flops, self.count_steps)

    # -- functions --------------------------------------------------------

    def _function_stub(self, node: ast.FuncDef) -> VMFunction:
        vmf = self._compiled_funcs.get(id(node))
        if vmf is None:
            vmf = VMFunction(node.name, len(node.params), (), None, node.pos)
            self._compiled_funcs[id(node)] = vmf
            self._pending_funcs.append((node, vmf))
        return vmf

    def _fill_function(self, node: ast.FuncDef, vmf: VMFunction) -> None:
        asm = _Asm(node.name, node, count(1))
        vmf.param_slots = tuple(
            self._slot(b, asm) for b in self.bindings.params[id(node)]
        )
        self._block(node.body, asm)
        asm.emit((isa.RET, 0), node.pos)  # fall off the end: IT is returned
        vmf.co = asm.finish(next(asm.slots))

    # -- blocks and statements -------------------------------------------

    def _block(self, stmts: list, asm: _Asm) -> None:
        i = 0
        n = len(stmts)
        while i < n:
            stmt = stmts[i]
            if self.count_steps:
                asm.emit((isa.STEP,), stmt.pos)
            # ORLY_* (a comparison followed by O RLY?) spans two
            # statements, so it would skip the second statement's STEP.
            if (
                not self.count_steps
                and not self.count_flops
                and i + 1 < n
                and isinstance(stmts[i + 1], ast.If)
                and isinstance(stmt, ast.ExprStmt)
                and isinstance(stmt.expr, ast.BinOp)
                and stmt.expr.op in _ORLY
            ):
                self._stmt_if(stmts[i + 1], asm, stmt.expr)
                asm.end_stmt()
                i += 2
                continue
            self._stmt(stmt, asm)
            asm.end_stmt()
            i += 1

    # -- bindings ---------------------------------------------------------

    def _slot(self, b: Binding, asm: _Asm) -> int:
        """The frame slot of ``b``, allocated at its first declaration."""
        info = self.infos.get(b)
        if info is None:
            info = self.infos[b] = VarInfo(
                LOCAL, b.name, next(asm.slots), b.static_type, b.is_array
            )
        return info.slot

    def _info(self, b: Optional[Binding], asm: _Asm) -> Optional[VarInfo]:
        """How code compiled into ``asm`` reaches binding ``b``."""
        if b is None:
            return None
        info = self.infos[b]
        return info if b.frame is asm.frame else info.as_global()

    def _var(self, node, asm: _Asm) -> Optional[VarInfo]:
        """How code compiled into ``asm`` reaches the binding of a name
        use (``None``: undeclared)."""
        return self._info(self.bindings.refs.get(id(node)), asm)

    def _snapshot(self, node: ast.SrsRef, asm: _Asm) -> tuple:
        """The visible-name map of an ``SRS`` site: the *set* of
        bindings there is static even though the chosen name is not."""
        snap = self.bindings.snapshots[id(node)]
        return ({name: self._info(b, asm) for name, b in snap.items()},)

    def _stmt(self, stmt, asm: _Asm) -> None:
        method = self._STMT_DISPATCH.get(type(stmt))
        if method is None:
            asm.emit(
                (
                    isa.RAISE_ERR,
                    _message_raiser(
                        LolRuntimeError,
                        f"statement {type(stmt).__name__} not implemented",
                        stmt.pos,
                    ),
                ),
                stmt.pos,
            )
            return
        method(self, stmt, asm)

    def _stmt_var_decl(self, stmt: ast.VarDecl, asm: _Asm) -> None:
        pos = stmt.pos
        name = stmt.name
        declared = parse_type(stmt.static_type, pos) if stmt.static_type else None
        if is_symmetric(stmt):
            self._stmt_symmetric_decl(stmt, declared, asm)
            return
        b = self.bindings.of(stmt)
        if stmt.is_array:
            sreg = self._expr_reg(stmt.size, asm)
            elem_t = declared or LolType.NUMBAR
            slot = self._slot(b, asm)
            asm.emit((isa.ARRDECL, slot, sreg, (elem_t, name)), pos)
            return
        # The initializer compiles before the declaration takes effect,
        # so ``I HAS A x ITZ SUM OF x AN 1`` reads the binding the
        # binder resolved for it (the enclosing one for a new name).
        # An untyped declaration stores the value *unchecked*: the value
        # goes into a temp and the temp's producing instruction is
        # retargeted at the binding's slot.
        if stmt.init is not None:
            if declared is not None:
                vreg = self._expr_reg(stmt.init, asm)
                slot = self._slot(b, asm)
                asm.emit((isa.ST_TYPED, slot, vreg, (declared, name)), pos)
            else:
                op = self._operand(stmt.init, asm)
                if op is not None:
                    slot = self._slot(b, asm)
                    if op[0] == "c":
                        asm.emit((isa.LOADC, slot, op[1]), pos)
                    elif op[1] != slot:
                        asm.emit((isa.MOVE, slot, op[1]), pos)
                    return
                tmp = asm.temp()
                self._expr(stmt.init, asm, tmp)
                slot = self._slot(b, asm)
                last = asm.code[-1]
                if (
                    last[0] != isa.RAISE_ERR
                    and isa.OPFIELDS[last[0]][:1] == "r"
                    and last[1] == tmp
                ):
                    # Only the final instruction of an expression writes
                    # its destination, so retargeting it is safe.
                    asm.code[-1] = (last[0], slot) + last[2:]
                else:
                    asm.emit((isa.MOVE, slot, tmp), pos)
            return
        slot = self._slot(b, asm)
        default = default_value(declared) if declared is not None else None
        asm.emit((isa.LOADC, slot, default), pos)

    def _stmt_symmetric_decl(
        self, stmt: ast.VarDecl, declared: Optional[LolType], asm: _Asm
    ) -> None:
        # The world's plan already holds the object (typed, sized and
        # checked before launch), so SYMDECL only marks the name declared
        # on this PE and runs the initializer.  The init expression
        # evaluates on the *root* frame (a mini code object executed
        # against gframe, its names resolved in the root block), exactly
        # as the tree-walker evaluates it on ``self.globals``.  The
        # extent's source text is for loldis only.
        name = stmt.name
        init_co = (
            self._compile_mini(stmt.init, f"<init {name}>")
            if stmt.init is not None
            else None
        )
        extent = format_expr(stmt.size) if stmt.is_array else None
        asm.emit(
            (
                isa.SYMDECL,
                (name, declared, stmt.is_array, stmt.shared_lock, extent, init_co),
            ),
            stmt.pos,
        )

    def _compile_mini(self, expr, name: str) -> CodeObject:
        """Compile one root-frame expression into its own code object."""
        mini = _Asm(name, None, self.root_slots)
        dst = mini.temp()
        self._expr(expr, mini, dst)
        mini.emit((isa.RET, dst), expr.pos)
        mini.end_stmt()
        return mini.finish(0)  # executes on gframe; n_slots unused

    def _stmt_assign(self, stmt: ast.Assign, asm: _Asm) -> None:
        target = stmt.target
        # Fuse plain local-scalar stores: compile the value straight into
        # the destination slot.
        if isinstance(target, ast.VarRef) and target.qualifier != "UR":
            info = self._var(target, asm)
            if info is not None and info.kind == LOCAL and not info.is_array:
                slot = info.slot
                name = target.name
                pos = target.pos
                if info.static_type is not None:
                    vreg = self._expr_reg(stmt.value, asm)
                    asm.emit(
                        (isa.ST_TYPED, slot, vreg, (info.static_type, name)), pos
                    )
                    return
                if isinstance(stmt.value, _SCALAR_NODES) or self._is_scalar_read(
                    stmt.value, asm
                ):
                    self._expr(stmt.value, asm, slot)
                    return
                vreg = self._expr_reg(stmt.value, asm)
                asm.emit((isa.ST_DYN, slot, vreg, name), pos)
                return
        # The target's index or SRS name evaluates after the value.
        vreg = self._expr_reg_before(stmt.value, (target,), asm)
        self._emit_store(target, asm, vreg)

    def _stmt_cast(self, stmt: ast.CastStmt, asm: _Asm) -> None:
        pos = stmt.pos
        to_type = parse_type(stmt.to_type, pos)
        tmp = self._expr_reg(stmt.target, asm)
        asm.emit((isa.CAST, tmp, tmp, (to_type,)), pos)
        self._emit_store(stmt.target, asm, tmp)

    def _stmt_expr(self, stmt: ast.ExprStmt, asm: _Asm) -> None:
        if isinstance(stmt.expr, ast.ItRef):
            return  # IT <- IT
        self._expr(stmt.expr, asm, 0)

    def _stmt_visible(self, stmt: ast.Visible, asm: _Asm) -> None:
        parts: list = []
        for arg in stmt.args:
            const = self._const_display(arg)
            if const is not None:
                parts.append(const)
                continue
            reg = self._expr_reg(arg, asm)
            tmp = asm.temp()
            asm.emit((isa.DISPLAY, tmp, reg), arg.pos)
            parts.append(tmp)
        end = "\n" if stmt.newline else ""
        asm.emit((isa.VISIBLE, tuple(parts), end), stmt.pos)

    def _const_display(self, node) -> Optional[str]:
        """Pre-render a constant VISIBLE argument at compile time."""
        from ..interp.interpreter import display_value

        t = type(node)
        if t in (ast.IntLit, ast.FloatLit, ast.TroofLit):
            return display_value(node.value, node.pos)
        if t is ast.NoobLit:
            return display_value(None, node.pos)
        if t is ast.StringLit and node.is_plain():
            return node.plain_text()
        return None

    def _stmt_gimmeh(self, stmt: ast.Gimmeh, asm: _Asm) -> None:
        tmp = asm.temp()
        asm.emit((isa.READLINE, tmp), stmt.pos)
        self._emit_store(stmt.target, asm, tmp)

    def _stmt_can_has(self, stmt: ast.CanHas, asm: _Asm) -> None:
        asm.emit((isa.CANHAS, stmt.library), stmt.pos)

    def _stmt_if(
        self, stmt: ast.If, asm: _Asm, cond: Optional[ast.BinOp] = None
    ) -> None:
        """``O RLY?`` on IT, or with ``cond`` on the comparison statement
        before it (which the ``ORLY_*`` branch evaluates into IT)."""
        lend = asm.label()
        lnext = asm.label()
        if cond is None:
            asm.emit((isa.JF, 0, lnext), stmt.pos)
        else:
            self._branch(cond, asm, lnext, _ORLY, isa.JF)
            asm.end_stmt()
        self._block(stmt.ya_rly, asm)
        # An arm that ends the statement falls through to OIC.
        if stmt.mebbe or stmt.no_wai:
            asm.emit((isa.JMP, lend), stmt.pos)
        asm.mark(lnext)
        for k, (mcond, body) in enumerate(stmt.mebbe):
            lnext = asm.label()
            self._branch_false(mcond, asm, lnext)
            asm.end_stmt()
            self._block(body, asm)
            if k + 1 < len(stmt.mebbe) or stmt.no_wai:
                asm.emit((isa.JMP, lend), stmt.pos)
            asm.mark(lnext)
        self._block(stmt.no_wai, asm)
        asm.mark(lend)

    def _stmt_switch(self, stmt: ast.Switch, asm: _Asm) -> None:
        lend = asm.label()
        ldefault = asm.label()
        body_labels = [asm.label() for _ in stmt.cases]
        for (lit, _), lbl in zip(stmt.cases, body_labels):
            reg = self._expr_reg(lit, asm)
            asm.emit((isa.JEQ, 0, reg, lbl), lit.pos)
        asm.end_stmt()
        asm.emit((isa.JMP, ldefault), stmt.pos)
        asm.break_stack.append((lend, asm.txt_depth))
        try:
            for (_, body), lbl in zip(stmt.cases, body_labels):
                asm.mark(lbl)  # C-style fallthrough into the next case
                self._block(body, asm)
            asm.mark(ldefault)
            self._block(stmt.default, asm)
        finally:
            asm.break_stack.pop()
        asm.mark(lend)

    def _stmt_loop(self, stmt: ast.Loop, asm: _Asm) -> None:
        pos = stmt.pos
        cslot = -1
        if stmt.var is not None:
            cslot = self._slot(self.bindings.of(stmt), asm)
        plan = None
        if self.vectorize:
            plan = try_vectorize(stmt, self, asm, cslot)
        lexit = asm.label()
        if cslot >= 0:
            asm.emit((isa.LOADC, cslot, 0), pos)
        if plan is not None:
            asm.emit((isa.LOOP_VEC, plan, lexit), pos)
        lcond = asm.label()
        asm.mark(lcond)
        if self.count_steps:
            # Loop iterations count as steps even with an empty body,
            # matching the tree-walker's per-iteration accounting.
            asm.emit((isa.STEP,), pos)
        if stmt.cond is not None:
            if stmt.cond_kind == "TIL":
                self._branch_true(stmt.cond, asm, lexit)
            else:
                self._branch_false(stmt.cond, asm, lexit)
            asm.end_stmt()
        asm.break_stack.append((lexit, asm.txt_depth))
        try:
            # The body is a block of its own: its declarations shadow
            # the counter instead of rebinding it.
            self._block(stmt.body, asm)
        finally:
            asm.break_stack.pop()
        if cslot >= 0:
            step = 1 if stmt.op == "UPPIN" else -1
            asm.emit((isa.INC_JMP, cslot, step, lcond), pos)
        elif stmt.cond is not None:
            asm.emit((isa.JMP, lcond), pos)
        else:
            asm.emit((isa.NOLOOP, stmt.label), pos)
        asm.mark(lexit)

    def _stmt_gtfo(self, stmt: ast.Gtfo, asm: _Asm) -> None:
        if asm.break_stack:
            lexit, entry_depth = asm.break_stack[-1]
            for _ in range(asm.txt_depth - entry_depth):
                asm.emit((isa.TXT_POP,), stmt.pos)
            asm.emit((isa.JMP, lexit), stmt.pos)
        elif asm.is_function:
            asm.emit((isa.RETC, None), stmt.pos)  # GTFO in a function: NOOB
        else:
            asm.emit((isa.RAISE_BREAK,), stmt.pos)

    def _stmt_func_def(self, stmt: ast.FuncDef, asm: _Asm) -> None:
        vmf = self._function_stub(stmt)
        asm.emit((isa.DEF, stmt.name, (vmf,)), stmt.pos)

    def _stmt_return(self, stmt: ast.Return, asm: _Asm) -> None:
        reg = self._expr_reg(stmt.expr, asm)
        if asm.is_function:
            asm.emit((isa.RET, reg), stmt.pos)
        else:
            # FOUND YR outside a function: propagate like the tree-walker
            # (an uncaught _Return ends the program).
            asm.emit((isa.RAISE_RETURN, reg), stmt.pos)

    def _stmt_hugz(self, stmt: ast.Hugz, asm: _Asm) -> None:
        asm.emit((isa.BARRIER,), stmt.pos)

    def _stmt_lock(self, stmt: ast.LockStmt, asm: _Asm) -> None:
        kind = {"lock": isa.LOCK_SET, "trylock": isa.LOCK_TEST}.get(
            stmt.kind, isa.LOCK_CLEAR
        )
        if isinstance(stmt.target, ast.VarRef):
            asm.emit((isa.LOCKOP, kind, stmt.target.name), stmt.pos)
        else:
            reg = self._expr_reg(stmt.target.expr, asm)
            asm.emit((isa.LOCKOPD, kind, reg), stmt.pos)

    def _stmt_txt(self, stmt: ast.TxtStmt, asm: _Asm) -> None:
        if self._try_txt_get(stmt, asm):
            return
        reg = self._expr_reg(stmt.pe, asm)
        asm.emit((isa.TXT_PUSH, reg), stmt.pos)
        asm.end_stmt()
        asm.txt_depth += 1
        try:
            # TXT bodies are part of the enclosing block.
            self._block(stmt.body, asm)
        finally:
            asm.txt_depth -= 1
        asm.emit((isa.TXT_POP,), stmt.pos)

    def _try_txt_get(self, stmt: ast.TxtStmt, asm: _Asm) -> bool:
        """Emit a ``TXT_GET`` for ``TXT MAH BFF pe, x R UR a['Z i]``.

        The instruction checks the PE, counts the inner statement's step,
        evaluates the index, gets and stores, in the order the push, the
        statement and the pop would.  So the index must be an operand or
        one operator over operands (evaluated inside the instruction),
        ``x`` a local scalar, and nothing may call a function: a call
        could observe the pushed target PE.
        """
        if len(stmt.body) != 1 or not isinstance(stmt.body[0], ast.Assign):
            return False
        inner = stmt.body[0]
        target = inner.target
        value = inner.value
        if not isinstance(target, ast.VarRef) or target.qualifier == "UR":
            return False
        info = self._var(target, asm)
        if info is None or info.kind != LOCAL or info.is_array:
            return False
        if isinstance(value, ast.VarRef) and value.qualifier == "UR":
            name, index = value.name, None
        elif (
            isinstance(value, ast.Index)
            and isinstance(value.base, ast.VarRef)
            and value.base.qualifier == "UR"
        ):
            name, index = value.base.name, value.index
        else:
            return False
        if ast.has_call(stmt.pe):
            return False
        idx = None
        if index is not None:
            idx = self._operand(index, asm)
            if idx is None:
                fn = (
                    BINOP_FUNCS.get(index.op)
                    if isinstance(index, ast.BinOp)
                    else None
                )
                if fn is None:
                    return False
                lo = self._operand(index.lhs, asm)
                ro = self._operand(index.rhs, asm)
                if lo is None or ro is None or lo[0] == ro[0] == "c":
                    return False
                flops = FLOP_COST.get(index.op, 0) if self.count_flops else 0
                idx = (lo[0] + ro[0], fn, lo[1], ro[1], index.pos, flops)
        if info.static_type is not None:
            store = (info.static_type, target.name)
        elif index is None:
            store = (None, target.name)  # a whole array must not land
        else:
            store = None  # an element is always a scalar
        reg = self._expr_reg(stmt.pe, asm)
        asm.emit(
            (
                isa.TXT_GET,
                info.slot,
                reg,
                (
                    name,
                    idx,
                    asm.cache_slot(),
                    store,
                    inner.pos if self.count_steps else None,
                    value.pos,
                    target.pos,
                ),
            ),
            stmt.pos,
        )
        return True

    _STMT_DISPATCH = {
        ast.VarDecl: _stmt_var_decl,
        ast.Assign: _stmt_assign,
        ast.CastStmt: _stmt_cast,
        ast.ExprStmt: _stmt_expr,
        ast.Visible: _stmt_visible,
        ast.Gimmeh: _stmt_gimmeh,
        ast.CanHas: _stmt_can_has,
        ast.If: _stmt_if,
        ast.Switch: _stmt_switch,
        ast.Loop: _stmt_loop,
        ast.Gtfo: _stmt_gtfo,
        ast.FuncDef: _stmt_func_def,
        ast.Return: _stmt_return,
        ast.Hugz: _stmt_hugz,
        ast.LockStmt: _stmt_lock,
        ast.TxtStmt: _stmt_txt,
    }

    # -- conditions -------------------------------------------------------

    def _branch_true(self, cond, asm: _Asm, target: Label) -> None:
        self._branch(cond, asm, target, _BR_TRUE, isa.JT)

    def _branch_false(self, cond, asm: _Asm, target: Label) -> None:
        self._branch(cond, asm, target, _BR_FALSE, isa.JF)

    def _branch(self, cond, asm, target, table, generic_op) -> None:
        if isinstance(cond, ast.BinOp) and cond.op in table and not self.count_flops:
            ss_op, sc_op = table[cond.op]
            ls = self._pin_before_call(
                self._operand(cond.lhs, asm), (cond.rhs,), asm, cond.pos
            )
            if ls is not None and ls[0] == "c" and type(ls[1]) in (int, float):
                # const OP x == x SWAP(OP) const; numeric literals never
                # fail coercion, so error order is preserved.
                rreg = self._expr_reg(cond.rhs, asm)
                swapped = table[_SWAP_REL[cond.op]]
                asm.emit((swapped[1], rreg, ls[1], target), cond.pos)
                return
            # Operands evaluate left to right, into temps when not slots.
            lreg = ls[1] if ls is not None and ls[0] == "r" else None
            if lreg is None:
                lreg = self._expr_reg(cond.lhs, asm)
            rs = self._operand(cond.rhs, asm)
            if rs is not None and rs[0] == "c" and type(rs[1]) in (int, float):
                asm.emit((sc_op, lreg, rs[1], target), cond.pos)
                return
            asm.emit((ss_op, lreg, self._expr_reg(cond.rhs, asm), target), cond.pos)
            return
        reg = self._expr_reg(cond, asm)
        asm.emit((generic_op, reg, target), cond.pos)

    # -- expressions ------------------------------------------------------

    def _operand(self, node, asm: _Asm):
        """Recognize inlineable operands: ("c", value) or ("r", slot)."""
        t = type(node)
        if t in (ast.IntLit, ast.FloatLit, ast.TroofLit):
            return ("c", node.value)
        if t is ast.NoobLit:
            return ("c", None)
        if t is ast.StringLit and node.is_plain():
            return ("c", node.plain_text())
        if t is ast.ItRef:
            return ("r", 0)
        if t is ast.VarRef and node.qualifier != "UR":
            info = self._var(node, asm)
            if info is not None and info.kind == LOCAL and not info.is_array:
                return ("r", info.slot)
        return None

    def _is_scalar_read(self, node, asm: _Asm) -> bool:
        """Reads whose value passes straight through (no array risk):
        plain local scalar slots and IT."""
        op = self._operand(node, asm)
        return op is not None and op[0] == "r"

    def _expr_reg(self, node, asm: _Asm) -> int:
        """Compile ``node`` and return a register holding its value."""
        op = self._operand(node, asm)
        if op is not None:
            if op[0] == "r":
                return op[1]
            reg = asm.temp()
            asm.emit((isa.LOADC, reg, op[1]), node.pos)
            return reg
        reg = asm.temp()
        self._expr(node, asm, reg)
        return reg

    def _pin_before_call(self, op, later, asm: _Asm, pos):
        """Copy slot operand ``op`` into a temp when a function call in
        one of the ``later`` operands could store to the slot before the
        instruction reads it.  A call reaches root-frame variables only
        (never IT, never a function's own frame)."""
        if (
            op is not None
            and op[0] == "r"
            and op[1] != 0
            and not asm.is_function
            and any(ast.has_call(e) for e in later)
        ):
            reg = asm.temp()
            asm.emit((isa.MOVE, reg, op[1]), pos)
            return ("r", reg)
        return op

    def _expr_reg_before(self, node, later, asm: _Asm) -> int:
        """``_expr_reg`` for an operand evaluated before ``later``."""
        op = self._pin_before_call(self._operand(node, asm), later, asm, node.pos)
        if op is not None and op[0] == "r":
            return op[1]
        return self._expr_reg(node, asm)

    def _expr_regs(self, nodes: list, asm: _Asm) -> tuple:
        """Registers holding ``nodes``, evaluated left to right."""
        return tuple(
            self._expr_reg_before(node, nodes[i + 1 :], asm)
            for i, node in enumerate(nodes)
        )

    def _expr(self, node, asm: _Asm, dst: int) -> None:
        """Compile ``node``, leaving its value in register ``dst``."""
        method = self._EXPR_DISPATCH.get(type(node))
        if method is None:
            asm.emit(
                (
                    isa.RAISE_ERR,
                    _message_raiser(
                        LolRuntimeError,
                        f"expression {type(node).__name__} not implemented",
                        node.pos,
                    ),
                ),
                node.pos,
            )
            return
        method(self, node, asm, dst)

    def _expr_const(self, node, asm: _Asm, dst: int) -> None:
        asm.emit((isa.LOADC, dst, node.value), node.pos)

    def _expr_noob(self, node, asm: _Asm, dst: int) -> None:
        asm.emit((isa.LOADC, dst, None), node.pos)

    def _expr_string(self, node: ast.StringLit, asm: _Asm, dst: int) -> None:
        pos = node.pos
        if node.is_plain():
            asm.emit((isa.LOADC, dst, node.plain_text()), pos)
            return
        parts: list = []
        for part in node.parts:
            if isinstance(part, str):
                parts.append(part)
            else:
                _, name = part
                reg = asm.temp()
                info = self._info(self.bindings.part(node, name), asm)
                self._read_name(info, name, None, asm, reg, pos)
                parts.append(reg)
        asm.emit((isa.INTERP, dst, tuple(parts)), pos)

    def _expr_it(self, node, asm: _Asm, dst: int) -> None:
        if dst != 0:
            asm.emit((isa.MOVE, dst, 0), node.pos)

    def _expr_me(self, node, asm: _Asm, dst: int) -> None:
        asm.emit((isa.LOAD_ME, dst), node.pos)

    def _expr_frenz(self, node, asm: _Asm, dst: int) -> None:
        asm.emit((isa.LOAD_NPES, dst), node.pos)

    def _expr_random(self, node: ast.RandomExpr, asm: _Asm, dst: int) -> None:
        asm.emit((isa.RANDOM, dst, 0 if node.kind == "int" else 1), node.pos)

    def _expr_binop(self, node: ast.BinOp, asm: _Asm, dst: int) -> None:
        pos = node.pos
        fn = BINOP_FUNCS.get(node.op)
        if fn is None:
            asm.emit(
                (
                    isa.RAISE_ERR,
                    _message_raiser(
                        LolRuntimeError, f"unknown binary op {node.op!r}", pos
                    ),
                ),
                pos,
            )
            return
        cost = FLOP_COST.get(node.op, 0)
        if self.count_flops and cost:
            # FLOP accounting precedes operand evaluation.
            asm.emit((isa.FLOPS, cost), pos)
        arith = _ARITH_OPS.get(node.op)
        ls = self._pin_before_call(
            self._operand(node.lhs, asm), (node.rhs,), asm, pos
        )
        rs = self._operand(node.rhs, asm)
        # Operands evaluate left-to-right into temps when not inlineable.
        if ls is None:
            lreg = asm.temp()
            self._expr(node.lhs, asm, lreg)
            ls = ("r", lreg)
        if rs is None:
            rreg = asm.temp()
            self._expr(node.rhs, asm, rreg)
            rs = ("r", rreg)
        lk, lv = ls
        rk, rv = rs
        if arith is not None:
            ss, sc, cs = arith
            if lk == "r" and rk == "r":
                asm.emit((ss, dst, lv, rv), pos)
                return
            if lk == "r" and type(rv) in (int, float):
                asm.emit((sc, dst, lv, rv), pos)
                return
            if rk == "r" and cs is not None and type(lv) in (int, float):
                asm.emit((cs, dst, lv, rv), pos)
                return
        if lk == "r" and rk == "r":
            asm.emit((isa.BINOP, dst, fn, lv, rv), pos)
        elif lk == "r":
            asm.emit((isa.BINOP_SC, dst, fn, lv, rv), pos)
        elif rk == "r":
            asm.emit((isa.BINOP_CS, dst, fn, lv, rv), pos)
        else:
            reg = asm.temp()
            asm.emit((isa.LOADC, reg, lv), pos)
            asm.emit((isa.BINOP_SC, dst, fn, reg, rv), pos)

    def _expr_unop(self, node: ast.UnaryOp, asm: _Asm, dst: int) -> None:
        pos = node.pos
        fn = UNOP_FUNCS.get(node.op)
        if fn is None:
            asm.emit(
                (
                    isa.RAISE_ERR,
                    _message_raiser(
                        LolRuntimeError, f"unknown unary op {node.op!r}", pos
                    ),
                ),
                pos,
            )
            return
        cost = FLOP_COST.get(node.op, 0)
        if self.count_flops and cost:
            asm.emit((isa.FLOPS, cost), pos)
        reg = self._expr_reg(node.operand, asm)
        fast = {"square": isa.SQUARE_S, "sqrt": isa.SQRT_S, "recip": isa.RECIP_S}.get(
            node.op
        )
        if fast is not None:
            asm.emit((fast, dst, reg), pos)
        else:
            asm.emit((isa.UNOP, dst, fn, reg), pos)

    def _expr_naryop(self, node: ast.NaryOp, asm: _Asm, dst: int) -> None:
        pos = node.pos
        fn = NARYOP_FUNCS.get(node.op)
        if fn is None:
            asm.emit(
                (
                    isa.RAISE_ERR,
                    _message_raiser(
                        LolRuntimeError, f"unknown n-ary op {node.op!r}", pos
                    ),
                ),
                pos,
            )
            return
        regs = self._expr_regs(node.operands, asm)
        asm.emit((isa.NARY, dst, fn, regs), pos)

    def _expr_cast(self, node: ast.Cast, asm: _Asm, dst: int) -> None:
        to_type = parse_type(node.to_type, node.pos)
        reg = self._expr_reg(node.expr, asm)
        asm.emit((isa.CAST, dst, reg, (to_type,)), node.pos)

    def _expr_var(self, node: ast.VarRef, asm: _Asm, dst: int) -> None:
        info = self._var(node, asm)
        self._read_name(info, node.name, node.qualifier, asm, dst, node.pos)

    def _read_name(
        self, info: Optional[VarInfo], name, qualifier, asm: _Asm, dst: int, pos
    ) -> None:
        if qualifier == "UR":
            asm.emit((isa.GET, dst, name, (asm.cache_slot(),)), pos)
            return
        if info is None:
            asm.emit((isa.RAISE_ERR, _undeclared_raiser(name, pos)), pos)
            return
        if info.kind == SYMMETRIC:
            asm.emit((isa.SYM_LD, dst, name, asm.cache_slot()), pos)
            return
        if info.is_array:
            asm.emit(
                (
                    isa.RAISE_ERR,
                    _message_raiser(
                        LolTypeError,
                        f"'{name}' is an array: index it with {name}'Z <expr>",
                        pos,
                    ),
                ),
                pos,
            )
            return
        if info.kind == LOCAL:
            if info.slot != dst:
                asm.emit((isa.MOVE, dst, info.slot), pos)
            return
        asm.emit((isa.GLD, dst, info.slot, name), pos)

    def _expr_srs(self, node: ast.SrsRef, asm: _Asm, dst: int) -> None:
        nreg = self._expr_reg(node.expr, asm)
        if node.qualifier == "UR":
            asm.emit((isa.GETD, dst, nreg), node.pos)
        else:
            asm.emit((isa.DYN_LD, dst, nreg, self._snapshot(node, asm)), node.pos)

    def _expr_index(self, node: ast.Index, asm: _Asm, dst: int) -> None:
        pos = node.pos
        base = node.base
        if isinstance(base, ast.SrsRef):
            nreg = self._expr_reg(base.expr, asm)
            ireg = self._expr_reg(node.index, asm)
            if base.qualifier == "UR":
                asm.emit((isa.GETXD, dst, nreg, ireg), pos)
            else:
                asm.emit((isa.DYN_LDX, dst, nreg, ireg, self._snapshot(base, asm)), pos)
            return
        name = base.name
        if base.qualifier == "UR":
            ireg = self._expr_reg(node.index, asm)
            asm.emit((isa.GETX, dst, name, ireg, (asm.cache_slot(),)), pos)
            return
        info = self._var(base, asm)
        if info is None:
            # The index is *not* evaluated: the error is raised before
            # touching it.
            asm.emit((isa.RAISE_ERR, _undeclared_raiser(name, pos)), pos)
            return
        if info.kind == SYMMETRIC:
            ireg = self._expr_reg(node.index, asm)
            asm.emit((isa.SYM_LDX, dst, name, ireg, asm.cache_slot()), pos)
            return
        if not info.is_array:
            asm.emit(
                (
                    isa.RAISE_ERR,
                    _message_raiser(
                        LolTypeError, f"'{name}' is not an array", pos
                    ),
                ),
                pos,
            )
            return
        if info.kind == LOCAL:
            ireg = self._expr_reg(node.index, asm)
            asm.emit((isa.LDX, dst, info.slot, ireg, name), pos)
        else:
            # Check the global cell *before* touching the index
            # expression, so the undeclared error wins.
            asm.emit((isa.GCHK, info.slot, name), pos)
            ireg = self._expr_reg(node.index, asm)
            asm.emit((isa.GLDX, dst, info.slot, ireg, name), pos)

    def _expr_call(self, node: ast.FuncCall, asm: _Asm, dst: int) -> None:
        pos = node.pos
        # Lookup + arity check precede argument evaluation; the checked
        # function is pinned in a slot so argument side effects cannot
        # swap it.
        freg = asm.temp()
        asm.emit((isa.CHECK_FUNC, freg, node.name, len(node.args)), pos)
        regs = self._expr_regs(node.args, asm)
        asm.emit((isa.CALL, dst, freg, regs), pos)

    _EXPR_DISPATCH = {
        ast.IntLit: _expr_const,
        ast.FloatLit: _expr_const,
        ast.TroofLit: _expr_const,
        ast.StringLit: _expr_string,
        ast.NoobLit: _expr_noob,
        ast.ItRef: _expr_it,
        ast.MeExpr: _expr_me,
        ast.FrenzExpr: _expr_frenz,
        ast.RandomExpr: _expr_random,
        ast.BinOp: _expr_binop,
        ast.UnaryOp: _expr_unop,
        ast.NaryOp: _expr_naryop,
        ast.Cast: _expr_cast,
        ast.VarRef: _expr_var,
        ast.SrsRef: _expr_srs,
        ast.Index: _expr_index,
        ast.FuncCall: _expr_call,
    }

    # -- stores -----------------------------------------------------------

    def _emit_store(self, target, asm: _Asm, vreg: int) -> None:
        pos = target.pos
        if isinstance(target, ast.Index):
            self._emit_store_element(target, asm, vreg)
            return
        if isinstance(target, ast.SrsRef):
            nreg = self._expr_reg(target.expr, asm)
            if target.qualifier == "UR":
                asm.emit((isa.PUTD, nreg, vreg), pos)
            else:
                asm.emit((isa.DYN_ST, nreg, vreg, self._snapshot(target, asm)), pos)
            return
        if isinstance(target, ast.VarRef):
            name = target.name
            if target.qualifier == "UR":
                asm.emit((isa.PUT, name, vreg), pos)
                return
            info = self._var(target, asm)
            if info is None:
                asm.emit((isa.RAISE_ERR, _undeclared_raiser(name, pos)), pos)
                return
            if info.kind == SYMMETRIC:
                asm.emit((isa.SYM_ST, name, vreg, asm.cache_slot()), pos)
                return
            if info.is_array:
                op = isa.GST_ARR if info.kind == GLOBAL else isa.ST_ARR
                asm.emit((op, info.slot, vreg, name), pos)
                return
            if info.kind == GLOBAL:
                asm.emit((isa.GST, info.slot, vreg, (info.static_type, name)), pos)
                return
            if info.static_type is not None:
                asm.emit(
                    (isa.ST_TYPED, info.slot, vreg, (info.static_type, name)), pos
                )
            else:
                asm.emit((isa.ST_DYN, info.slot, vreg, name), pos)
            return
        asm.emit(
            (
                isa.RAISE_ERR,
                _message_raiser(LolRuntimeError, "invalid assignment target", pos),
            ),
            pos,
        )

    def _emit_store_element(self, target: ast.Index, asm: _Asm, vreg: int) -> None:
        pos = target.pos
        base = target.base
        if isinstance(base, ast.SrsRef):
            nreg = self._expr_reg(base.expr, asm)
            ireg = self._expr_reg(target.index, asm)
            if base.qualifier == "UR":
                asm.emit((isa.PUTXD, nreg, ireg, vreg), pos)
            else:
                asm.emit(
                    (isa.DYN_STX, nreg, ireg, vreg, self._snapshot(base, asm)), pos
                )
            return
        name = base.name
        if base.qualifier == "UR":
            ireg = self._expr_reg(target.index, asm)
            asm.emit((isa.PUTX, name, ireg, vreg), pos)
            return
        info = self._var(base, asm)
        if info is None:
            asm.emit((isa.RAISE_ERR, _undeclared_raiser(name, pos)), pos)
            return
        if info.kind == SYMMETRIC:
            ireg = self._expr_reg(target.index, asm)
            asm.emit((isa.SYM_STX, name, ireg, vreg, asm.cache_slot()), pos)
            return
        if not info.is_array:
            asm.emit(
                (
                    isa.RAISE_ERR,
                    _message_raiser(
                        LolTypeError, f"'{name}' is not an array", pos
                    ),
                ),
                pos,
            )
            return
        elem_t = info.static_type or LolType.NUMBAR
        if info.kind == GLOBAL:
            asm.emit((isa.GCHK, info.slot, name), pos)
            ireg = self._expr_reg(target.index, asm)
            asm.emit((isa.GSTX, info.slot, ireg, vreg, (elem_t, name)), pos)
        else:
            ireg = self._expr_reg(target.index, asm)
            asm.emit((isa.STX, info.slot, ireg, vreg, (name, elem_t)), pos)


def compile_program_vm(
    tree: ast.Program | ProgramSummary,
    *,
    count_flops: bool = False,
    count_steps: bool = False,
) -> VMProgram:
    """Compile a program (or the tree of a :class:`ProgramSummary`)
    once; the result is shareable across PEs."""
    return VMCompiler(
        tree, count_flops=count_flops, count_steps=count_steps
    ).compile()
