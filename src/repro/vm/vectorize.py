"""Loop vectorization for the VM engine (the ``LOOP_VEC`` instruction).

:func:`try_vectorize` analyses one counted ``IM IN YR`` loop at compile
time.  When every statement of the body is a scalar declaration, a bare
expression (which sets ``IT``), an ``O RLY?`` on a comparison, or an
assignment whose value is an affine/elementwise expression over the
loop counter, loop-invariant locals, ``WHATEVR``/``WHATEVAR`` draws and
numpy-backed arrays, it returns a :class:`VecPlan`: a small register
program the machine executes with numpy slice operations instead of
``n`` trips through the dispatch loop.  Anything outside the model
returns ``None`` and the loop compiles scalar-only.

:func:`run_vec` executes a plan at runtime.  It is *guarded*: every
value-dependent precondition (integral trip counts, array bounds, int64
magnitudes, sqrt/recip domains, operand types) is checked **before any
state is mutated**; a failed guard returns ``False`` and the machine
falls through to the scalar loop, which reproduces exact tree-walker
semantics — including whatever error the guard was protecting against.
Commits are two-phase (compute everything, materialize copies, then
write), so a bail can never leave partial effects behind.  The one
piece of state touched before the guards is the PE's random generator:
a plan with draw sites saves ``rng.getstate()`` before drawing and
every bail restores it, so the scalar loop replays the same stream.

Bit-identity with the scalar engines is the design constraint, not an
aspiration:

* float64 ``+ - *`` and sqrt are IEEE correctly rounded in both numpy
  and CPython, and elementwise vector ops mirror the scalar expression
  tree one operation to one operation — nothing is ever reassociated;
* affine ``base + coeff*i`` algebra (which *does* reassociate) is kept
  exact by allowing only integer coefficients and validating integer
  bases at every runtime consumer;
* int64 arithmetic is exact under the ``2**30`` magnitude guards
  (``WHATEVR`` columns are below ``2**31`` by construction, so products
  stay under ``2**62`` and conversions under ``2**53``);
* reductions run as sequential Python folds over the real operator
  kernels (float addition is not associative);
* float -> NUMBR casts use numpy's C truncation, which is exactly
  ``to_numbr``'s ``int()``;
* draws come from the PE's own ``random.Random``: one
  ``getrandbits(32*n*k)`` call yields the ``n*k`` tempered MT19937 words
  the scalar loop would consume, least significant first, laid out as
  ``n`` rows of ``k`` words in source order.  ``WHATEVAR`` is CPython's
  ``random()`` over two words, ``WHATEVR`` its ``randrange(0, 2**31-1)``
  (``w >> 1``, where the rejected value ``2**31-1`` bails);
* an ``O RLY?`` arm becomes a lane mask: a fold in an arm folds over the
  selected lanes only, and a plain assignment commits the last selected
  lane (or nothing when no lane is selected);
* a scatter increment ``a'Z b R SUM OF a'Z b AN k`` on a NUMBR array is
  ``np.add.at`` on a copy, exact under the magnitude guards.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from ..interp.env import UNDECLARED
from ..interp.values import (
    BINOP_FUNCS,
    _op_add,
    _op_mul,
    _op_recip,
    _op_sqrt,
    _op_square,
    _op_sub,
)
from ..lang import ast
from ..lang.resolve import LOCAL, SYMMETRIC
from ..lang.types import (
    LolType,
    cast as cast_value,
    coerce_static,
    default_value,
    parse_type,
)
from ..shmem.heap import ArrayCell

#: int64 magnitude bound for every integer vector (and every scalar fed
#: into one).  Keeps products exact in int64 and int->float casts exact.
_MAXI = 1 << 30
#: trip-count cap: bounds transient memory (~32 MiB of float64).
_CAP = 1 << 22
#: Fewest trips for a plan that draws or masks.  Saving the generator
#: state and the extra mask/draw ops cost a fixed ~40 us, which the
#: ~3 us a scalar trip of such a body takes repays from 16-24 trips.
_MIN_TRIPS = 32
#: ``randrange(0, 2**31 - 1)`` rejects this ``getrandbits(31)`` value.
_REJECT = (1 << 31) - 1
#: raw MT19937 words each draw consumes (CPython ``random``).
_WORDS = {"int": 1, "float": 2}

_NUMBR = LolType.NUMBR
_NUMBAR = LolType.NUMBAR

_SBIN = {"add": _op_add, "sub": _op_sub, "mul": _op_mul}
_SUN = {"square": _op_square, "sqrt": _op_sqrt, "recip": _op_recip}
#: comparisons whose numpy form matches ``equals``/``compare`` on
#: int/float operands (int64 -> float64 is exact under the guards).
_CMP = ("eq", "ne", "lt", "gt")
#: elementwise vector form of each arithmetic op and comparison.
_VOP = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "gt": operator.gt,
}


class _Bail(Exception):
    """Internal: this loop (or this execution of it) must stay scalar."""


class VecPlan:
    """A compiled vector execution plan for one counted loop.

    ``limit_prog`` computes the trip-count operand (invariant scalars
    only); ``prog`` computes every per-iteration value as length-``n``
    vectors or invariant scalars; ``commits`` describes the writes
    applied after every guard has passed.  ``words`` is the number of
    raw generator words one iteration draws (0: the loop never draws);
    they land in register ``words_reg`` as an ``(n, words)`` array.
    Fewer than ``min_trips`` trips run scalar.
    """

    __slots__ = (
        "mode",
        "limit",
        "limit_prog",
        "prog",
        "commits",
        "n_regs",
        "cslot",
        "words",
        "words_reg",
        "min_trips",
    )

    def __init__(
        self, mode, limit, limit_prog, prog, commits, n_regs, cslot,
        words, words_reg, min_trips,
    ):
        self.mode = mode  # "eq" (TIL BOTH SAEM) | "lt" (WILE SMALLR)
        self.limit = limit
        self.limit_prog = limit_prog
        self.prog = prog
        self.commits = commits
        self.n_regs = n_regs
        self.cslot = cslot
        self.words = words
        self.words_reg = words_reg
        self.min_trips = min_trips

    def __repr__(self) -> str:  # deterministic — appears in loldis output
        draws = f", words={self.words}" if self.words else ""
        return (
            f"vec({self.mode}, ops={len(self.limit_prog) + len(self.prog)}, "
            f"commits={len(self.commits)}, regs={self.n_regs}{draws})"
        )


class _Arr:
    """Per-array analysis state: hazard keys and pending writes."""

    __slots__ = ("reg", "kind", "elem", "reads", "read1", "writes", "folded")

    def __init__(self, reg: int, kind: str, elem: LolType) -> None:
        self.reg = reg
        self.kind = kind  # "i" | "f" — int64 / float64 backing
        self.elem = elem
        self.reads: dict = {}  # slice-read key -> reg
        self.read1: dict = {}  # invariant-element-read key -> reg
        self.writes: dict = {}  # key -> (base_op, coeff, symval) | "fold"
        self.folded = False


class _Analyzer:
    """Symbolic walk of one loop body.

    Symbolic values (``symval``):

    * ``("c", v)`` — compile-time constant;
    * ``("r", reg)`` — loop-invariant runtime scalar;
    * ``("v", reg)`` — length-``n`` vector, element per iteration;
    * ``("aff", base, coeff)`` — ``base + coeff*i`` with integer
      ``coeff`` and ``base`` an operand ``("c", int)`` or ``("r", reg)``
      (a runtime base is validated as ``int`` by every consumer whose
      exactness depends on it).

    Raises :class:`_Bail` on the first construct outside the model.
    """

    def __init__(self, compiler, asm, cslot: int) -> None:
        self.compiler = compiler
        self.bindings = compiler.bindings
        self.asm = asm
        self.cslot = cslot
        self.prog: list = []
        self.n_regs = 0
        self.slot_regs: dict = {}  # slot -> reg, memoized invariant reads
        self.me_reg = None
        self.np_reg = None
        self.sym_regs: dict = {}  # symmetric scalar name -> reg
        self.arr_regs: dict = {}  # aref -> _Arr
        self.env: dict = {}  # slot -> symval assigned this iteration
        self.folds: dict = {}  # slot -> fold reg (accumulators)
        self.inv_reads: set = set()  # slots read as loop-invariant
        self.frozen: set = set()  # slots the body must not assign
        self.decls: dict = {}  # body binding -> (LolType | None, symval)
        self.commits: list = []
        self.in_limit = False
        self.words = 0  # raw generator words drawn per iteration
        self.words_reg = None
        self.troofs: set = set()  # regs holding comparison (bool) vectors
        self.masked: set = set()  # slots assigned in an O RLY? arm
        self.mask = None  # mask reg while walking an O RLY? arm
        self.min_trips = 1

    # ------------------------------------------------------------------
    # helpers

    def _reg(self) -> int:
        r = self.n_regs
        self.n_regs += 1
        return r

    def _emit(self, op: tuple) -> None:
        self.prog.append(op)

    @staticmethod
    def _opnd(sym):
        """symval -> runtime operand (vectors/scalars share ``("r", reg)``)."""
        k = sym[0]
        if k == "c":
            return ("c", sym[1])
        if k in ("r", "v"):
            return ("r", sym[1])
        raise _Bail

    @staticmethod
    def _is_int(v) -> bool:
        return type(v) is int  # bool deliberately excluded

    def _info(self, node):
        """The compiler's view of ``node``'s binding (never a body
        declaration: those are bound privately in ``decls``)."""
        return self.compiler._var(node, self.asm)

    def _is_counter(self, node) -> bool:
        if not isinstance(node, ast.VarRef) or node.qualifier == "UR":
            return False
        info = self._info(node)
        return (
            info is not None
            and info.kind == LOCAL
            and not info.is_array
            and info.slot == self.cslot
        )

    # ------------------------------------------------------------------
    # entry point

    def build(self, stmt: ast.Loop) -> VecPlan:
        cond = stmt.cond
        if not isinstance(cond, ast.BinOp):
            raise _Bail
        if stmt.cond_kind == "TIL" and cond.op == "eq":
            if self._is_counter(cond.lhs):
                limit_node = cond.rhs
            elif self._is_counter(cond.rhs):
                limit_node = cond.lhs
            else:
                raise _Bail
            mode = "eq"
        elif (
            stmt.cond_kind == "WILE"
            and cond.op == "lt"
            and self._is_counter(cond.lhs)
        ):
            limit_node = cond.rhs
            mode = "lt"
        else:
            raise _Bail
        # The scalar loop re-evaluates the condition every iteration, so
        # the limit must be invariant: constants, plain local scalars,
        # ME / MAH FRENZ, and + - * over those.  Every slot it reads is
        # frozen against body writes.
        self.in_limit = True
        lim = self._expr(limit_node)
        self.in_limit = False
        if lim[0] not in ("c", "r"):
            raise _Bail
        limit_prog = self.prog
        self.prog = []
        self.frozen = set(self.slot_regs) | {self.cslot}
        for s in stmt.body:
            self._stmt(s)
        if lim[0] == "c" and _numeric(lim[1]) and lim[1] < self.min_trips:
            raise _Bail  # too few trips to repay the draw/mask set-up
        self._finalize_array_commits()
        for slot in sorted(self.env):
            self.commits.append(("set", slot, self._commit_src(self.env[slot])))
        return VecPlan(
            mode,
            self._opnd(lim),
            tuple(limit_prog),
            tuple(self.prog),
            tuple(self.commits),
            self.n_regs,
            self.cslot,
            self.words,
            self.words_reg,
            self.min_trips,
        )

    def _commit_src(self, sym):
        k = sym[0]
        if k == "c":
            return ("c", sym[1])
        if k == "r":
            return ("r", sym[1])
        if k == "v":
            return ("last", sym[1])
        return ("afflast", sym[1], sym[2])  # base + coeff*(n-1)

    def _finalize_array_commits(self) -> None:
        for aref in sorted(self.arr_regs):
            st = self.arr_regs[aref]
            for key, pend in st.writes.items():
                if pend == "fold":
                    continue  # the fold already appended its ("w1", ...)
                base_op, coeff, sym = pend
                if coeff == 0:
                    self.commits.append(
                        ("w1", st.reg, base_op, self._commit_src(sym))
                    )
                    continue
                if sym[0] == "aff":
                    sym = ("v", self._materialize(sym))
                self.commits.append(
                    ("wslice", st.reg, base_op, coeff, self._opnd(sym))
                )

    # ------------------------------------------------------------------
    # statements

    def _stmt(self, s) -> None:
        t = type(s)
        if t is ast.Assign:
            self._assign(s)
        elif t is ast.VarDecl:
            self._decl(s)
        elif t is ast.ExprStmt:
            self._expr_stmt(s)
        elif t is ast.If:
            self._if(s)
        else:
            raise _Bail

    def _expr_stmt(self, s: ast.ExprStmt) -> None:
        node = s.expr
        if type(node) is ast.ItRef:
            return  # IT <- IT
        if type(node) is ast.BinOp and node.op in _CMP:
            sym = self._cmp(node.op, self._expr(node.lhs), self._expr(node.rhs))
        else:
            sym = self._expr(node)
        if 0 in self.inv_reads:
            raise _Bail  # IT read before this store: a recurrence
        self.env[0] = sym

    def _if(self, s: ast.If) -> None:
        """If-convert ``O RLY?`` on this iteration's comparison: each arm
        runs under a lane mask and may only assign loop-carried local
        scalars (see :meth:`_assign_slot`)."""
        if s.mebbe:
            raise _Bail
        it = self.env.get(0)
        if it is None or it[0] != "v" or it[1] not in self.troofs:
            raise _Bail  # only a per-lane TROOF selects per lane
        for body, negate in ((s.ya_rly, False), (s.no_wai, True)):
            if not body:
                continue
            self.min_trips = _MIN_TRIPS
            mask = it[1]
            if negate:
                mask = self._reg()
                self._emit(("not", mask, it[1]))
            self.mask = mask
            for st in body:
                if type(st) is not ast.Assign or type(st.target) is not ast.VarRef:
                    raise _Bail
                self._assign_slot(st, st.target)
            self.mask = None

    def _decl(self, s: ast.VarDecl) -> None:
        if s.scope != "I" or s.is_array or s.shared_lock:
            raise _Bail
        # parse_type errors propagate: the scalar compile of this decl
        # raises the identical compile-time error.
        declared = parse_type(s.static_type, s.pos) if s.static_type else None
        if declared is not None and declared not in (_NUMBR, _NUMBAR):
            raise _Bail
        b = self.bindings.of(s)
        if s.init is None:
            self.decls[b] = (declared, ("c", default_value(declared)))
        else:  # the initializer reads the binding the binder resolved
            self._bind(b, declared, self._expr(s.init))

    def _bind(self, b, declared, sym) -> None:
        # A body declaration lives for one iteration, so its binding is
        # private to the walk: no frame slot, and nothing to commit.
        if declared is not None:
            sym = self._coerce(sym, declared, b.name)
        self.decls[b] = (declared, sym)

    def _assign(self, s: ast.Assign) -> None:
        target = s.target
        if isinstance(target, ast.VarRef):
            self._assign_slot(s, target)
        elif isinstance(target, ast.Index):
            self._assign_element(s, target)
        else:
            raise _Bail  # SRS computed names stay scalar

    def _assign_slot(self, s: ast.Assign, target: ast.VarRef) -> None:
        if target.qualifier == "UR":
            raise _Bail
        mask = self.mask
        b = self.bindings.of(target)
        decl = self.decls.get(b)
        if decl is not None:
            if mask is not None:
                raise _Bail  # a body scalar would differ per lane
            self._bind(b, decl[0], self._expr(s.value))
            return
        info = self._info(target)
        if info is None or info.kind != LOCAL or info.is_array:
            raise _Bail
        slot = info.slot
        if slot in self.frozen or slot in self.folds or slot in self.masked:
            raise _Bail
        st_type = info.static_type
        if st_type is not None and st_type not in (_NUMBR, _NUMBAR):
            raise _Bail
        value = s.value
        # Recurrence accumulator ``s R SUM OF s AN <v>`` with ``s``
        # otherwise untouched: a sequential fold over the operator
        # kernel, preserving float non-associativity bit for bit.  In an
        # O RLY? arm it folds over the selected lanes only.
        if (
            isinstance(value, ast.BinOp)
            and value.op in _SBIN
            and isinstance(value.lhs, ast.VarRef)
            and value.lhs.qualifier != "UR"
            and slot not in self.env
            and slot not in self.inv_reads
        ):
            lhs_info = self._info(value.lhs)
            if (
                lhs_info is not None
                and lhs_info.kind == LOCAL
                and not lhs_info.is_array
                and lhs_info.slot == slot
            ):
                opnd = self._fold_operand(value.rhs, slot)
                coerce = ("static", st_type, target.name) if st_type else None
                reg = self._reg()
                self._emit(
                    ("fold", reg, value.op, ("slot", slot), opnd, coerce, mask)
                )
                self.folds[slot] = reg
                self.commits.append(("set", slot, ("r", reg)))
                return
        sym = self._expr(value)
        if slot in self.inv_reads:
            raise _Bail  # read-before-write: a cross-iteration recurrence
        if st_type is not None:
            sym = self._coerce(sym, st_type, target.name)
        if mask is None:
            self.env[slot] = sym
            return
        # Masked store: the last selected lane's value, committed only
        # when some lane is selected.  The slot is neither read nor
        # assigned anywhere else in the body.
        if slot in self.env:
            raise _Bail
        if sym[0] == "aff":
            sym = ("v", self._materialize(sym))
        self.masked.add(slot)
        self.commits.append(("mset", slot, self._opnd(sym), mask))

    def _fold_operand(self, node, acc_slot: int):
        sym = self._expr(node)
        if acc_slot in self.inv_reads:
            raise _Bail  # the operand itself read the accumulator
        if sym[0] == "aff":
            sym = ("v", self._materialize(sym))
        return self._opnd(sym)

    def _assign_element(self, s: ast.Assign, target: ast.Index) -> None:
        st = self._array(target.base)
        if st.folded:
            raise _Bail
        words = self.words
        isym = self._expr(target.index)
        if self.words != words:
            raise _Bail  # the scalar engines draw in the value first
        if isym[0] == "v":
            self._scatter(s, target, st, isym[1])
            return
        base_op, coeff = self._aff(isym)
        key = (coeff, base_op)
        value = s.value
        # Element accumulator at an invariant index (nbody's force
        # accumulation): ``A'Z k R SUM OF A'Z k AN <v>``.
        if (
            coeff == 0
            and isinstance(value, ast.BinOp)
            and value.op in _SBIN
            and isinstance(value.lhs, ast.Index)
            and self._same_element(value.lhs, target, st, key)
        ):
            opnd = self._fold_operand(value.rhs, -1)
            # Any access to this array recorded so far (including ones
            # the operand just made) could observe the evolving element
            # mid-loop, so the fold requires a completely private array.
            if not st.reads and not st.read1 and not st.writes:
                reg = self._reg()
                self._emit(
                    (
                        "fold",
                        reg,
                        value.op,
                        ("elem", st.reg, base_op),
                        opnd,
                        ("static", st.elem, "<element>"),
                        None,
                    )
                )
                st.folded = True
                st.writes[key] = "fold"
                self.commits.append(("w1", st.reg, base_op, ("r", reg)))
                return
            raise _Bail
        # Evaluate the value FIRST: reads it makes on this array are
        # hazards of this write too, and must be visible to the checks.
        sym = self._coerce(self._expr(value), st.elem, "<element>")
        for k in st.writes:
            if k != key:
                raise _Bail  # two write streams could interleave
        for k in st.reads:
            if k != key:
                raise _Bail  # earlier iterations' writes feed that read
        if st.read1:
            raise _Bail  # hoisted element read vs. an evolving array
        if coeff == 0 and st.reads:
            raise _Bail  # slice read of an element overwritten each trip
        st.writes[key] = (base_op, coeff, sym)

    def _scatter(self, s: ast.Assign, target: ast.Index, st, idx_reg) -> None:
        """``a'Z b R SUM OF a'Z b AN k`` with ``b`` a per-lane NUMBR
        vector: one ``np.add.at`` at commit.  The array must be NUMBR and
        touched nowhere else in the body, so no lane can observe another
        lane's increment."""
        value = s.value
        read = value.lhs if type(value) is ast.BinOp and value.op == "add" else None
        if (
            st.kind != "i"
            or type(read) is not ast.Index
            or not _same_var(read.base, target.base)
            or not _same_var(read.index, target.index)
            or st.reads
            or st.read1
            or st.writes
        ):
            raise _Bail
        opnd = self._fold_operand(value.rhs, -1)
        if st.reads or st.read1:
            raise _Bail  # the addend reads the array
        st.folded = True
        self.commits.append(("scatter", st.reg, idx_reg, opnd))

    def _same_element(self, read: ast.Index, write: ast.Index, st, key) -> bool:
        base = read.base
        wbase = write.base
        if (
            not isinstance(base, ast.VarRef)
            or base.qualifier == "UR"
            or not isinstance(wbase, ast.VarRef)
            or base.name != wbase.name
        ):
            return False
        if self._array(base) is not st:
            return False
        rbase, rcoeff = self._aff_index(read.index)
        return (rcoeff, rbase) == key

    # ------------------------------------------------------------------
    # expressions

    def _expr(self, node):
        t = type(node)
        if t is ast.VarRef:
            return self._read_var(node)
        if t is ast.Index:
            if self.in_limit:
                raise _Bail
            return self._read_element(node)
        if t is ast.BinOp:
            if node.op not in _SBIN:
                raise _Bail
            a = self._expr(node.lhs)
            b = self._expr(node.rhs)
            return self._bin(node.op, a, b)
        if t is ast.UnaryOp:
            if node.op not in _SUN or self.in_limit:
                raise _Bail
            return self._un(node.op, self._expr(node.operand))
        if t is ast.IntLit or t is ast.FloatLit or t is ast.TroofLit:
            return ("c", node.value)
        if t is ast.NoobLit:
            return ("c", None)
        if t is ast.StringLit:
            if node.is_plain():
                return ("c", node.plain_text())
            raise _Bail
        if t is ast.ItRef:
            return self._read_slot(0)
        if t is ast.MeExpr:
            if self.me_reg is None:
                self.me_reg = self._reg()
                self._emit(("me", self.me_reg))
            return ("r", self.me_reg)
        if t is ast.FrenzExpr:
            if self.np_reg is None:
                self.np_reg = self._reg()
                self._emit(("np", self.np_reg))
            return ("r", self.np_reg)
        if t is ast.RandomExpr:
            if self.in_limit or self.mask is not None:
                raise _Bail  # drawn per condition test / per selected lane
            if self.words_reg is None:
                self.words_reg = self._reg()
                self.min_trips = _MIN_TRIPS
            reg = self._reg()
            self._emit(("draw", reg, node.kind, self.words_reg, self.words))
            self.words += _WORDS[node.kind]
            return ("v", reg)
        if t is ast.Cast and not self.in_limit:
            return self._cast(node)
        raise _Bail  # calls, SRS, n-ary, other operators: stay scalar

    def _read_var(self, node: ast.VarRef):
        if node.qualifier == "UR":
            raise _Bail
        decl = self.decls.get(self.bindings.of(node))
        if decl is not None:
            return decl[1]
        info = self._info(node)
        if info is None:
            raise _Bail
        if info.kind == SYMMETRIC:
            # One hoisted read of the own-PE cell standing for n reads is
            # a valid interleaving (run_vec requires the race detector
            # off, and symmetric *writes* always bail).  In the limit
            # position the read is hoisted across the whole loop, which
            # is only sound when no peer can store to the symbol: the
            # static analyzer proves that (summary.remote_unwritten).
            if info.is_array:
                raise _Bail
            if self.in_limit and (
                node.name not in self.compiler.remote_unwritten
            ):
                raise _Bail
            reg = self.sym_regs.get(node.name)
            if reg is None:
                reg = self._reg()
                self._emit(("symrd", reg, node.name))
                self.sym_regs[node.name] = reg
            return ("r", reg)
        if info.kind != LOCAL or info.is_array:
            raise _Bail  # function-frame globals / whole arrays: scalar
        if info.slot == self.cslot:
            if self.in_limit:
                raise _Bail
            return ("aff", ("c", 0), 1)
        return self._read_slot(info.slot)

    def _read_slot(self, slot: int):
        if slot in self.folds or slot in self.masked:
            raise _Bail
        sym = self.env.get(slot)
        if sym is not None:
            if sym[0] == "v" and sym[1] in self.troofs:
                raise _Bail  # bool vectors would do numpy, not TROOF, math
            return sym
        reg = self.slot_regs.get(slot)
        if reg is None:
            reg = self._reg()
            self._emit(("slot", reg, slot))
            self.slot_regs[slot] = reg
        self.inv_reads.add(slot)
        return ("r", reg)

    def _array(self, base) -> _Arr:
        if (
            not isinstance(base, ast.VarRef)
            or base.qualifier == "UR"
            # a body scalar: not an array
            or self.bindings.of(base) in self.decls
        ):
            raise _Bail
        info = self._info(base)
        if info is None:
            raise _Bail
        if info.kind == SYMMETRIC:
            if not info.is_array:
                raise _Bail
            aref = ("sym", base.name)
            elem = info.static_type
        elif info.kind == LOCAL and info.is_array:
            aref = ("slot", info.slot)
            elem = info.static_type or _NUMBAR  # dynamic arrays are NUMBAR
        else:
            raise _Bail
        st = self.arr_regs.get(aref)
        if st is None:
            if elem is _NUMBR:
                kind = "i"
            elif elem is _NUMBAR:
                kind = "f"
            else:
                raise _Bail  # TROOF/YARN arrays stay scalar
            reg = self._reg()
            self._emit(("arr", reg, aref[0], aref[1], kind))
            st = _Arr(reg, kind, elem)
            self.arr_regs[aref] = st
        return st

    def _aff_index(self, node):
        """Index expression -> ``(base_operand, coeff)``, integer coeff."""
        return self._aff(self._expr(node))

    @staticmethod
    def _aff(sym):
        k = sym[0]
        if k == "c":
            if type(sym[1]) is not int:
                raise _Bail
            return ("c", sym[1]), 0
        if k == "r":
            return ("r", sym[1]), 0
        if k == "aff" and sym[2] >= 1:
            return sym[1], sym[2]
        raise _Bail  # data-dependent (gather/scatter) indexing: scalar

    def _read_element(self, node: ast.Index):
        st = self._array(node.base)
        if st.folded:
            raise _Bail
        base_op, coeff = self._aff_index(node.index)
        key = (coeff, base_op)
        pend = st.writes.get(key)
        if pend is not None:
            if pend == "fold":
                raise _Bail
            return pend[2]  # same-iteration read-after-write, coerced
        for k in st.writes:
            if k != key:
                raise _Bail
        if coeff == 0:
            reg = st.read1.get(key)
            if reg is None:
                reg = self._reg()
                self._emit(("read1", reg, st.reg, base_op))
                st.read1[key] = reg
            return ("r", reg)
        reg = st.reads.get(key)
        if reg is None:
            reg = self._reg()
            self._emit(("read", reg, st.reg, base_op, coeff))
            st.reads[key] = reg
        return ("v", reg)

    # ------------------------------------------------------------------
    # symbolic arithmetic

    def _materialize(self, aff) -> int:
        """aff -> iota vector register (runtime-validates an int base)."""
        reg = self._reg()
        self._emit(("iota", reg, aff[1], aff[2]))
        return reg

    def _base_add(self, base, k: int):
        if base[0] == "c":
            return ("c", base[1] + k)
        if k == 0:
            return base
        reg = self._reg()
        self._emit(("sbin", reg, "add", base, ("c", k)))
        return ("r", reg)

    def _bin(self, op: str, a, b):
        ka, kb = a[0], b[0]
        if ka == "c" and kb == "c":
            try:
                return ("c", _SBIN[op](a[1], b[1], None))
            except Exception as exc:  # noqa: BLE001 — let scalar raise it
                raise _Bail from exc
        if ka == "aff" or kb == "aff":
            sym = self._bin_aff(op, a, b)
            if sym is not None:
                return sym
            if ka == "aff":
                a = ("v", self._materialize(a))
            if kb == "aff":
                b = ("v", self._materialize(b))
            ka, kb = a[0], b[0]
        if ka != "v" and kb != "v":
            reg = self._reg()
            self._emit(("sbin", reg, op, self._opnd(a), self._opnd(b)))
            return ("r", reg)
        if (ka == "c" and not _numeric(a[1])) or (
            kb == "c" and not _numeric(b[1])
        ):
            raise _Bail  # YARN/TROOF operands coerce per element: scalar
        reg = self._reg()
        self._emit(("bin", reg, op, self._opnd(a), self._opnd(b)))
        return ("v", reg)

    def _bin_aff(self, op: str, a, b):
        """Affine algebra; ``None`` means materialize and go elementwise.

        Reassociating is only exact for integers, so every rewrite here
        either stays in compile-time int constants or lands in a base
        register whose downstream consumers (iota, slice bases, afflast)
        validate ``int`` at runtime and bail on floats.
        """
        if a[0] == "aff" and b[0] == "aff":
            if op == "mul":
                return None
            base = self._base_combine(op, a[1], b[1])
            coeff = a[2] + b[2] if op == "add" else a[2] - b[2]
            return ("aff", base, coeff)
        if a[0] == "aff" and b[0] == "c" and self._is_int(b[1]):
            if op == "add":
                return ("aff", self._base_add(a[1], b[1]), a[2])
            if op == "sub":
                return ("aff", self._base_add(a[1], -b[1]), a[2])
            base = a[1]  # mul: (base + c*i) * k = base*k + (c*k)*i
            if base[0] == "c":
                return ("aff", ("c", base[1] * b[1]), a[2] * b[1])
            reg = self._reg()
            self._emit(("sbin", reg, "mul", base, ("c", b[1])))
            return ("aff", ("r", reg), a[2] * b[1])
        if b[0] == "aff" and a[0] == "c" and self._is_int(a[1]):
            if op == "add":
                return ("aff", self._base_add(b[1], a[1]), b[2])
            if op == "sub":  # k - (base + c*i) = (k - base) - c*i
                base = b[1]
                if base[0] == "c":
                    nbase = ("c", a[1] - base[1])
                else:
                    reg = self._reg()
                    self._emit(("sbin", reg, "sub", ("c", a[1]), base))
                    nbase = ("r", reg)
                return ("aff", nbase, -b[2])
            base = b[1]  # mul
            if base[0] == "c":
                return ("aff", ("c", a[1] * base[1]), a[1] * b[2])
            reg = self._reg()
            self._emit(("sbin", reg, "mul", ("c", a[1]), base))
            return ("aff", ("r", reg), a[1] * b[2])
        # Runtime-scalar add/sub keeps affinity (heat2d's row*cols + c).
        if a[0] == "aff" and b[0] == "r" and op in ("add", "sub"):
            reg = self._reg()
            self._emit(("sbin", reg, op, a[1], ("r", b[1])))
            return ("aff", ("r", reg), a[2])
        if b[0] == "aff" and a[0] == "r" and op == "add":
            reg = self._reg()
            self._emit(("sbin", reg, "add", ("r", a[1]), b[1]))
            return ("aff", ("r", reg), b[2])
        return None

    def _base_combine(self, op: str, x, y):
        if x[0] == "c" and y[0] == "c":
            return ("c", x[1] + y[1] if op == "add" else x[1] - y[1])
        reg = self._reg()
        self._emit(("sbin", reg, op, x, y))
        return ("r", reg)

    def _un(self, op: str, a):
        k = a[0]
        if k == "c":
            try:
                return ("c", _SUN[op](a[1], None))
            except Exception as exc:  # noqa: BLE001 — let scalar raise it
                raise _Bail from exc
        if k == "r":
            reg = self._reg()
            self._emit(("sun", reg, op, ("r", a[1])))
            return ("r", reg)
        if k == "aff":
            a = ("v", self._materialize(a))
        reg = self._reg()
        self._emit(("un", reg, op, a[1]))
        return ("v", reg)

    def _coerce(self, sym, declared: LolType, name: str):
        """Static-type store coercion (``ITZ SRSLY A`` / array elements)."""
        k = sym[0]
        if k == "c":
            try:
                return ("c", coerce_static(sym[1], declared, name, None))
            except Exception as exc:  # noqa: BLE001 — let scalar raise it
                raise _Bail from exc
        if k == "r":
            reg = self._reg()
            self._emit(("scast", reg, ("r", sym[1]), declared, name))
            return ("r", reg)
        return self._vec_cast(sym, declared)

    def _cast(self, node: ast.Cast):
        """Explicit ``MAEK <expr> A NUMBR|NUMBAR``."""
        # parse_type errors propagate: the scalar compile raises them too.
        to_type = parse_type(node.to_type, node.pos)
        if to_type not in (_NUMBR, _NUMBAR):
            raise _Bail
        sym = self._expr(node.expr)
        k = sym[0]
        if k == "c":
            try:
                return ("c", cast_value(sym[1], to_type, None))
            except Exception as exc:  # noqa: BLE001 — let scalar raise it
                raise _Bail from exc
        if k == "r":
            reg = self._reg()
            self._emit(("mcast", reg, ("r", sym[1]), to_type))
            return ("r", reg)
        return self._vec_cast(sym, to_type)

    def _vec_cast(self, sym, to_type: LolType):
        """NUMBR/NUMBAR conversion of a vector: for int64/float64 lanes
        the static coercion and the explicit cast agree."""
        if sym[0] == "aff":
            if to_type is _NUMBR and sym[1][0] == "c":
                return sym  # provably integer already
            sym = ("v", self._materialize(sym))
        reg = self._reg()
        self._emit(("cast", reg, sym[1], "i" if to_type is _NUMBR else "f"))
        return ("v", reg)

    def _cmp(self, op: str, a, b):
        """``BOTH SAEM``/``DIFFRINT``/``BIGGER``/``SMALLR`` comparison."""
        if a[0] == "c" and b[0] == "c":
            try:
                return ("c", BINOP_FUNCS[op](a[1], b[1], None))
            except Exception as exc:  # noqa: BLE001 — let scalar raise it
                raise _Bail from exc
        if a[0] == "aff":
            a = ("v", self._materialize(a))
        if b[0] == "aff":
            b = ("v", self._materialize(b))
        reg = self._reg()
        if a[0] != "v" and b[0] != "v":
            self._emit(("sbin", reg, op, self._opnd(a), self._opnd(b)))
            return ("r", reg)
        if (a[0] == "c" and not _numeric(a[1])) or (
            b[0] == "c" and not _numeric(b[1])
        ):
            raise _Bail  # YARN/TROOF/NOOB operands compare by type rules
        self._emit(("bin", reg, op, self._opnd(a), self._opnd(b)))
        self.troofs.add(reg)
        return ("v", reg)


def _numeric(v) -> bool:
    t = type(v)
    return t is int or t is float


def _same_var(a, b) -> bool:
    return (
        type(a) is ast.VarRef
        and type(b) is ast.VarRef
        and a.qualifier != "UR"
        and (a.name, a.qualifier) == (b.name, b.qualifier)
    )


def try_vectorize(stmt: ast.Loop, compiler, asm, cslot: int):
    """Return a :class:`VecPlan` for ``stmt``, or ``None`` to stay scalar.

    Eligible loops are ``IM IN YR .. UPPIN YR v TIL BOTH SAEM v AN
    <inv>`` (or ``WILE SMALLR v AN <inv>``) whose bodies contain only
    scalar declarations and assignments inside the affine/elementwise
    model.  Called at compile time, with the counter (slot ``cslot``)
    allocated in ``asm``'s frame; body declarations are bound privately
    as the walk reaches them, and the analysis allocates no frame slot.
    """
    if cslot < 0 or stmt.op != "UPPIN" or stmt.cond is None:
        return None
    try:
        return _Analyzer(compiler, asm, cslot).build(stmt)
    except _Bail:
        return None


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------


def _val(operand, regs):
    return regs[operand[1]] if operand[0] == "r" else operand[1]


def _int_guard(v: np.ndarray) -> np.ndarray:
    if v.dtype.kind == "i" and (
        int(v.max()) > _MAXI or int(v.min()) < -_MAXI
    ):
        raise _Bail
    return v


def _scalar_num(v):
    t = type(v)
    if t is float:
        return v
    if t is int and -_MAXI <= v <= _MAXI:
        return v
    raise _Bail


def run_vec(m, frame, plan: VecPlan, pos) -> bool:
    """Execute ``plan``; True = loop done, False = run the scalar loop."""
    if not m.fast_sym:
        return False  # the race detector must observe every access
    try:
        return _run(m, frame, plan)
    except Exception:  # noqa: BLE001 — any guard failure stays scalar
        return False


def _run(m, frame, plan: VecPlan) -> bool:
    regs: list = [None] * plan.n_regs
    for op in plan.limit_prog:
        _exec(op, regs, frame, 0, m.declared, m.ctx.my_pe, m.ctx.n_pes)
    lim = _val(plan.limit, regs)
    tl = type(lim)
    if plan.mode == "eq":
        # BOTH SAEM compares int/float by value, so an integral float
        # limit terminates the scalar loop too; any other limit never
        # matches the ascending int counter -> preserve the scalar
        # infinite loop by bailing.
        if tl is int:
            n = lim
        elif tl is float and math.isfinite(lim) and lim.is_integer():
            n = int(lim)
        else:
            raise _Bail
        if n < 0:
            raise _Bail
    else:  # "lt": n = first i with not (i < lim)
        if tl is int:
            n = lim if lim > 0 else 0
        elif tl is float:
            # NaN: lim > 0 is False -> 0 trips, same as the scalar test.
            # +inf: math.ceil raises -> bail -> scalar infinite loop.
            n = math.ceil(lim) if lim > 0 else 0
        else:
            raise _Bail
    if n == 0:
        frame[plan.cslot] = 0
        return True
    if n > _CAP or n < plan.min_trips:
        raise _Bail
    if not plan.words:
        return _apply(m, frame, plan, regs, n)
    rng = m.ctx.rng
    state = rng.getstate()
    try:
        # CPython fills getrandbits from successive 32-bit outputs, least
        # significant first: row i holds iteration i's words in order.
        k = plan.words
        raw = rng.getrandbits(32 * n * k).to_bytes(4 * n * k, "little")
        regs[plan.words_reg] = np.frombuffer(raw, "<u4").reshape(n, k)
        return _apply(m, frame, plan, regs, n)
    except Exception:
        rng.setstate(state)  # the scalar loop replays the same draws
        raise


def _apply(m, frame, plan: VecPlan, regs: list, n: int) -> bool:
    declared = m.declared
    my_pe = m.ctx.my_pe
    n_pes = m.ctx.n_pes
    for op in plan.prog:
        _exec(op, regs, frame, n, declared, my_pe, n_pes)
    # Two-phase commit.  Validate every target and materialize every
    # source (copying ndarray views) before the first write: after this
    # point nothing can raise, and before it nothing has been mutated.
    actions = []
    for c in plan.commits:
        tag = c[0]
        if tag == "set":
            actions.append((None, frame, c[1], _commit_val(c[2], regs, n)))
        elif tag == "wslice":
            data = regs[c[1]]
            b = _val(c[2], regs)
            if type(b) is not int:
                raise _Bail
            coeff = c[3]
            end = b + coeff * (n - 1)
            if b < 0 or end >= data.shape[0]:
                raise _Bail
            src = _val(c[4], regs)
            if isinstance(src, np.ndarray):
                src = src.copy()  # views may alias a committed target
            elif type(src) is int:
                if abs(src) > _MAXI:
                    raise _Bail  # int64 store could overflow at apply
            elif type(src) is not float:
                raise _Bail
            actions.append((None, data, slice(b, end + 1, coeff), src))
        elif tag == "mset":
            sel = np.flatnonzero(regs[c[3]])
            if sel.size:  # no selected lane: the slot keeps its value
                v = _val(c[2], regs)
                if isinstance(v, np.ndarray):
                    v = v[sel[-1]].item()
                actions.append((None, frame, c[1], v))
        elif tag == "scatter":
            data = regs[c[1]]
            idx = regs[c[2]]
            if idx.dtype.kind != "i":
                raise _Bail
            if int(idx.min()) < 0 or int(idx.max()) >= data.shape[0]:
                raise _Bail
            k = _val(c[3], regs)
            if isinstance(k, np.ndarray):
                if k.dtype.kind != "i":
                    raise _Bail
                _int_guard(k)
            elif type(k) is not int or abs(k) > _MAXI:
                raise _Bail
            # Touched elements start within the guard too, so no partial
            # sum can leave int64: np.add.at equals the scalar sequence.
            # Only they are written back, as the scalar loop would (a
            # peer may own the others of a symmetric array).
            touched = np.flatnonzero(np.bincount(idx, minlength=data.shape[0]))
            _int_guard(data[touched])
            new = data.copy()
            np.add.at(new, idx, k)
            actions.append((None, data, touched, new[touched]))
        else:  # "w1"
            data = regs[c[1]]
            b = _val(c[2], regs)
            if type(b) is not int or b < 0 or b >= data.shape[0]:
                raise _Bail
            v = _commit_val(c[3], regs, n)
            if type(v) is int:
                if abs(v) > _MAXI:
                    raise _Bail
            elif type(v) is not float:
                raise _Bail
            actions.append((None, data, b, v))
    for _, target, where, v in actions:
        target[where] = v
    frame[plan.cslot] = n
    return True


def _commit_val(spec, regs, n: int):
    tag = spec[0]
    if tag == "c":
        return spec[1]
    if tag == "r":
        return regs[spec[1]]
    if tag == "last":
        return regs[spec[1]][-1].item()
    # "afflast": the final iteration's value as the scalar engine would
    # compute it — one add on the invariant base.  Exactness of the
    # reassociated coeff*(n-1) needs integers, so floats bail.
    b = _val(spec[1], regs)
    if type(b) is not int:
        raise _Bail
    return b + spec[2] * (n - 1)


def _exec(op, regs, frame, n, declared, my_pe, n_pes) -> None:
    tag = op[0]
    if tag == "bin":
        a = _val(op[3], regs)
        b = _val(op[4], regs)
        if not isinstance(a, np.ndarray):
            a = _scalar_num(a)
        if not isinstance(b, np.ndarray):
            b = _scalar_num(b)
        regs[op[1]] = _int_guard(_VOP[op[2]](a, b))
    elif tag == "read":
        data = regs[op[2]]
        b = _val(op[3], regs)
        if type(b) is not int:
            raise _Bail
        coeff = op[4]
        end = b + coeff * (n - 1)
        if b < 0 or end >= data.shape[0]:
            raise _Bail
        regs[op[1]] = _int_guard(data[b : end + 1 : coeff])
    elif tag == "slot":
        v = frame[op[2]]
        if v is UNDECLARED:
            raise _Bail
        regs[op[1]] = v
    elif tag == "un":
        v = regs[op[3]]
        kind = op[2]
        if kind == "square":
            regs[op[1]] = _int_guard(v * v)
        else:
            if v.dtype.kind == "i":
                v = v.astype(np.float64)  # exact under the int guard
            if kind == "sqrt":
                if bool((v < 0.0).any()):
                    raise _Bail  # scalar raises UNSQUAR OF
                regs[op[1]] = np.sqrt(v)
            else:  # recip
                if bool((v == 0.0).any()):
                    raise _Bail  # scalar raises FLIP OF
                regs[op[1]] = 1.0 / v
    elif tag == "fold":
        _, dst, kind, init, opnd, coerce, mask = op
        if init[0] == "slot":
            acc = frame[init[1]]
            if acc is UNDECLARED:
                raise _Bail
        else:  # ("elem", arr_reg, base_op)
            data = regs[init[1]]
            b = _val(init[2], regs)
            if type(b) is not int or b < 0 or b >= data.shape[0]:
                raise _Bail
            v = data[b]
            acc = int(v) if data.dtype.kind == "i" else float(v)
        x = _val(opnd, regs)
        if isinstance(x, np.ndarray):
            if mask is not None:
                x = x[regs[mask]]  # the lanes whose arm ran, in order
            xs = x.tolist()
        else:
            count = n if mask is None else int(np.count_nonzero(regs[mask]))
            if (
                type(acc) is int
                and type(x) is int
                and kind != "mul"
                and (coerce is None or coerce[1] is _NUMBR)
            ):
                # count additions of one int are one exact product
                # (pi's ``hits R SUM OF hits AN 1``).
                x *= count
                regs[dst] = acc + x if kind == "add" else acc - x
                return
            xs = [x] * count
        fn = _SBIN[kind]
        if coerce is None:
            for item in xs:
                acc = fn(acc, item, None)
        else:
            ct, nm = coerce[1], coerce[2]
            for item in xs:
                acc = coerce_static(fn(acc, item, None), ct, nm, None)
        regs[dst] = acc
    elif tag == "iota":
        b = _val(op[2], regs)
        if type(b) is not int:
            raise _Bail
        coeff = op[3]
        last = b + coeff * (n - 1)
        if not (-_MAXI <= b <= _MAXI and -_MAXI <= last <= _MAXI):
            raise _Bail
        regs[op[1]] = np.arange(n, dtype=np.int64) * coeff + b
    elif tag == "draw":
        w = regs[op[3]]
        c = op[4]
        if op[2] == "float":  # CPython random(): 53 bits from two words
            hi = (w[:, c] >> 5).astype(np.float64)
            regs[op[1]] = (hi * 67108864.0 + (w[:, c + 1] >> 6)) * (
                1.0 / 9007199254740992.0
            )
        else:  # randrange(0, 2**31 - 1): getrandbits(31) below the bound
            v = (w[:, c] >> 1).astype(np.int64)
            if bool((v == _REJECT).any()):
                raise _Bail  # the scalar loop redraws; rare (2**-31)
            regs[op[1]] = v
    elif tag == "not":
        regs[op[1]] = ~regs[op[2]]
    elif tag == "mcast":
        regs[op[1]] = cast_value(_val(op[2], regs), op[3], None)
    elif tag == "sbin":
        regs[op[1]] = BINOP_FUNCS[op[2]](
            _val(op[3], regs), _val(op[4], regs), None
        )
    elif tag == "cast":
        v = regs[op[2]]
        if op[3] == "i":
            if v.dtype.kind == "f":
                if not bool(np.isfinite(v).all()):
                    raise _Bail
                if float(np.abs(v).max()) > _MAXI:
                    raise _Bail
                v = v.astype(np.int64)  # C truncation == to_numbr
        else:
            if v.dtype.kind == "i":
                v = v.astype(np.float64)  # exact under the int guard
        regs[op[1]] = v
    elif tag == "read1":
        data = regs[op[2]]
        b = _val(op[3], regs)
        if type(b) is not int or b < 0 or b >= data.shape[0]:
            raise _Bail
        v = data[b]
        regs[op[1]] = int(v) if data.dtype.kind == "i" else float(v)
    elif tag == "arr":
        if op[2] == "slot":
            cell = frame[op[3]]
            if type(cell) is not ArrayCell:
                raise _Bail
        else:
            # Undeclared on this PE: the scalar loop raises LolNameError.
            obj = declared.get(op[3])
            if obj is None or not obj.is_array:
                raise _Bail
            cell = obj.cell(my_pe)
        data = cell.data
        if (
            not isinstance(data, np.ndarray)
            or data.dtype.kind != op[4]
            or data.itemsize != 8
            or data.ndim != 1
        ):
            raise _Bail
        regs[op[1]] = data
    elif tag == "sun":
        regs[op[1]] = _SUN[op[2]](_val(op[3], regs), None)
    elif tag == "scast":
        regs[op[1]] = coerce_static(_val(op[2], regs), op[3], op[4], None)
    elif tag == "symrd":
        obj = declared.get(op[2])
        if obj is None or obj.is_array:
            raise _Bail
        regs[op[1]] = obj.cell(my_pe).read()
    elif tag == "me":
        regs[op[1]] = my_pe
    elif tag == "np":
        regs[op[1]] = n_pes
    else:  # pragma: no cover — unknown op means a compiler bug
        raise _Bail
