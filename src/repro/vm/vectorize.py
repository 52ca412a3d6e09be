"""Loop vectorization for the VM engine (the ``LOOP_VEC`` instruction).

:func:`try_vectorize` analyses one counted ``IM IN YR`` loop at compile
time.  When every statement of the body is a scalar declaration, a bare
expression (which sets ``IT``), an ``O RLY?`` on a comparison, or an
assignment whose value is an affine/elementwise expression over the
loop counter, loop-invariant locals, ``WHATEVR``/``WHATEVAR`` draws and
numpy-backed arrays, it returns a :class:`VecPlan`: a small register
program the machine executes with numpy operations instead of ``n``
trips through the dispatch loop.  Anything outside the model returns
``None`` and the loop compiles scalar-only.

One plan covers three loop shapes beyond the plain loop:

* a **rectangular nest** (OpenMP's ``collapse``): when a loop body holds
  only declarations plus one inner loop, recursively, and every trip
  count is invariant across the nest, the lanes are the iterations of
  the whole nest in row-major order.  Index expressions stay affine in
  all the counters (``base + c0*i0 + c1*i1 ...``), reads gather through
  one offset table per coefficient vector, and the overlap guards run
  on the collapsed index set (a write must hit distinct elements);
* a **segmented fold**: an element accumulator indexed by the outer
  counters only (nbody's ``acc_x'Z i R SUM OF acc_x'Z i AN ...``) folds
  each outer iteration's lanes with ``ufunc.accumulate(..., axis=1)``
  over the ``(outer, inner)`` grid, the element's old value as column 0;
* a **remote slice** inside ``TXT MAH BFF`` (OpenSHMEM's block
  ``shmem_put``/``shmem_get``): a counted loop of ``UR`` element puts,
  or of plain copies from ``UR`` elements, is one
  :meth:`~repro.shmem.api.ShmemContext.put_slice` or
  :meth:`~repro.shmem.api.ShmemContext.get_slice` per statement.

:mod:`repro.vm.vecrun` executes a plan at run time, under guards that
fall back to the scalar loop; its docstring lists why a plan's results
are bit-identical to the scalar engines'.
"""

from __future__ import annotations

from ..interp.values import BINOP_FUNCS
from ..lang import ast
from ..lang.resolve import LOCAL, SYMMETRIC
from ..lang.types import (
    cast as cast_value,
    coerce_static,
    default_value,
    parse_type,
)
from .vecrun import _NUMBAR, _NUMBR, _SBIN, _SUN, _Bail

#: Fewest trips for a plan that draws or masks.  Saving the generator
#: state and the extra mask/draw ops cost a fixed ~40 us, which the
#: ~3 us a scalar trip of such a body takes repays from 16-24 trips.
_MIN_TRIPS = 32
#: raw MT19937 words each draw consumes (CPython ``random``).
_WORDS = {"int": 1, "float": 2}
#: ops that run on int lanes only: QUOSHUNT OF, MOD OF, BIGGR OF, SMALLR OF.
_IBIN = ("div", "mod", "max", "min")
#: comparisons whose numpy form matches ``equals``/``compare`` on
#: int/float operands (int64 -> float64 is exact under the guards).
_CMP = ("eq", "ne", "lt", "gt")


class VecPlan:
    """A compiled vector execution plan for one counted loop or nest.

    ``levels`` holds one ``(mode, limit, cslot)`` per loop, outer first
    (one entry for a plain loop); the lanes are the nest's iterations in
    row-major order.  ``limit_prog`` computes the trip-count operands
    (invariant scalars only); ``prog`` computes every per-iteration value
    as lane vectors or invariant scalars; ``commits`` describes the
    writes applied after every guard has passed.  ``words`` is the
    number of raw generator words one iteration draws (0: the loop never
    draws); they land in register ``words_reg`` as an ``(n, words)``
    array.  Fewer than ``min_trips`` lanes run scalar.  ``shapes`` names
    what the plan batches beyond a plain loop: any of ``"draw"``,
    ``"mask"``, ``"nest"`` and ``"remote"`` (a copy to or from another
    PE's partition).
    """

    __slots__ = (
        "levels",
        "limit_prog",
        "prog",
        "commits",
        "n_regs",
        "words",
        "words_reg",
        "min_trips",
        "shapes",
        "lanes",
    )

    def __init__(
        self, levels, limit_prog, prog, commits, n_regs, words, words_reg,
        min_trips, shapes,
    ):
        self.levels = levels  # ((mode "eq" | "lt", limit, cslot), ...)
        self.limit_prog = limit_prog
        self.prog = prog
        self.commits = commits
        self.n_regs = n_regs
        self.words = words
        self.words_reg = words_reg
        self.min_trips = min_trips
        self.shapes = shapes
        self.lanes = None  # the last run's lane grid, kept when small

    def __repr__(self) -> str:  # deterministic — appears in loldis output
        modes = "/".join(level[0] for level in self.levels)
        draws = f", words={self.words}" if self.words else ""
        remote = ", remote" if "remote" in self.shapes else ""
        return (
            f"vec({modes}, ops={len(self.limit_prog) + len(self.prog)}, "
            f"commits={len(self.commits)}, regs={self.n_regs}{draws}{remote})"
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
        self.writes: dict = {}  # key -> (base_op, coeffs, symval) | "fold"
        self.folded = False


def _nest(stmt: ast.Loop) -> list:
    """The loops of the nest rooted at ``stmt``, outer first: each body
    but the innermost is declarations followed by exactly one loop."""
    loops = [stmt]
    body = stmt.body
    while body and type(body[-1]) is ast.Loop:
        for s in body[:-1]:
            if type(s) is not ast.VarDecl:
                return loops
        loops.append(body[-1])
        body = body[-1].body
    return loops


class _Analyzer:
    """Symbolic walk of one loop body (or of a nest's bodies).

    Symbolic values (``symval``):

    * ``("c", v)`` — compile-time constant;
    * ``("r", reg)`` — loop-invariant runtime scalar;
    * ``("v", reg)`` — lane vector, one element per iteration;
    * ``("aff", base, coeffs)`` — ``base + sum(coeffs[j] * i_j)`` over
      the nest's counters, with integer ``coeffs`` (one per loop) and
      ``base`` an operand ``("c", int)`` or ``("r", reg)`` (a runtime
      base is validated as ``int`` by every consumer whose exactness
      depends on it).

    An array access key is ``(coeffs, base_op)``; all-zero ``coeffs``
    address one element for the whole loop.

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
        #: vector reg -> "i" | "f" where its lanes are known int64/float64
        self.vkinds: dict = {}
        #: int reads some consumer needs inside the 2**30 guard
        self.guarded: set = set()
        self.masked: set = set()  # slots assigned in an O RLY? arm
        self.mask = None  # mask reg while walking an O RLY? arm
        self.masks = False  # some O RLY? arm was if-converted
        self.min_trips = 1
        #: counter slot -> its coefficients (1 at its nest level)
        self.counters: dict = {cslot: (1,)}
        self.zero: tuple = (0,)
        #: outer bodies' declarations while the limits are analysed
        self.pending: set = set()
        self.remote = False

    # ------------------------------------------------------------------
    # helpers

    def _reg(self) -> int:
        r = self.n_regs
        self.n_regs += 1
        return r

    def _emit(self, op: tuple) -> None:
        self.prog.append(op)

    def _opnd(self, sym, exact: bool = False):
        """symval -> runtime operand (vectors/scalars share ``("r", reg)``).

        A vector operand is consumed here, so it must be an int64 vector
        inside the ``2**30`` guard, unless the consumer is ``exact`` for
        every int64 value (an int64 element store, an int fold).
        """
        k = sym[0]
        if k == "c":
            return ("c", sym[1])
        if k == "v":
            if not exact:
                self.guarded.add(sym[1])
            return ("r", sym[1])
        if k == "r":
            return ("r", sym[1])
        raise _Bail

    def _kind(self, sym):
        """``"i"``/``"f"`` when ``sym``'s lanes (or constant) are known to
        be int64/float64 at compile time, else ``None``."""
        if sym[0] == "c":
            t = type(sym[1])
            return "i" if t is int else "f" if t is float else None
        if sym[0] == "v":
            return self.vkinds.get(sym[1])
        return None  # a runtime scalar may be either

    @staticmethod
    def _is_int(v) -> bool:
        return type(v) is int  # bool deliberately excluded

    def _info(self, node):
        """The compiler's view of ``node``'s binding (never a body
        declaration: those are bound privately in ``decls``)."""
        if self.pending and self.bindings.of(node) in self.pending:
            raise _Bail  # a limit reading an outer body's declaration
        return self.compiler._var(node, self.asm)

    def _is_counter(self, node, cslot: int) -> bool:
        if not isinstance(node, ast.VarRef) or node.qualifier == "UR":
            return False
        info = self._info(node)
        return (
            info is not None
            and info.kind == LOCAL
            and not info.is_array
            and info.slot == cslot
        )

    # ------------------------------------------------------------------
    # entry point

    def build(self, stmt: ast.Loop) -> VecPlan:
        loops = _nest(stmt)
        cslots = [self.cslot]
        for inner in loops[1:]:
            if inner.op != "UPPIN" or inner.var is None or inner.cond is None:
                raise _Bail
            cslots.append(self.compiler._slot(self.bindings.of(inner), self.asm))
        if len(loops) > 1:
            self.zero = (0,) * len(loops)
            self.counters = {
                slot: self.zero[:level] + (1,) + self.zero[level + 1 :]
                for level, slot in enumerate(cslots)
            }
        # The scalar loop re-evaluates each condition every iteration, so
        # every limit must be invariant across the whole nest (which is
        # therefore rectangular): constants, plain local scalars, ME /
        # MAH FRENZ, and + - * over those, never a counter or an outer
        # body's declaration.  Every slot a limit reads is frozen against
        # body writes.
        for lp in loops[:-1]:
            self.pending.update(self.bindings.of(d) for d in lp.body[:-1])
        self.in_limit = True
        conds = [self._cond(lp, slot) for lp, slot in zip(loops, cslots)]
        self.in_limit = False
        self.pending.clear()
        limit_prog = self.prog
        self.prog = []
        self.frozen = set(self.slot_regs) | set(cslots)
        # Outer declarations run once per lane instead of once per outer
        # trip; they are pure, so only a draw would tell the difference.
        for lp in loops[:-1]:
            for decl in lp.body[:-1]:
                words = self.words
                self._decl(decl)
                if self.words != words:
                    raise _Bail
        for s in loops[-1].body:
            self._stmt(s)
        trips = 1
        for _, lim in conds:
            if lim[0] != "c" or not _numeric(lim[1]):
                break
            trips *= lim[1]
        else:
            if trips < self.min_trips:
                raise _Bail  # too few trips to repay the draw/mask set-up
        self._finalize_array_commits()
        for slot in sorted(self.env):
            self.commits.append(("set", slot, self._commit_src(self.env[slot])))
        # An int read keeps its 2**30 guard unless every consumer is exact.
        prog = [
            op + (op[1] in self.guarded and self.vkinds[op[1]] == "i",)
            if op[0] == "read"
            else op
            for op in self.prog
        ]
        return VecPlan(
            tuple(
                (mode, self._opnd(lim), slot)
                for (mode, lim), slot in zip(conds, cslots)
            ),
            tuple(limit_prog),
            tuple(prog),
            tuple(self.commits),
            self.n_regs,
            self.words,
            self.words_reg,
            self.min_trips,
            tuple(
                name
                for name, on in (
                    ("draw", self.words),
                    ("mask", self.masks),
                    ("nest", len(loops) > 1),
                    ("remote", self.remote),
                )
                if on
            ),
        )

    def _cond(self, loop: ast.Loop, cslot: int):
        """``(mode, limit symval)`` of one loop's condition."""
        cond = loop.cond
        if not isinstance(cond, ast.BinOp):
            raise _Bail
        if loop.cond_kind == "TIL" and cond.op == "eq":
            if self._is_counter(cond.lhs, cslot):
                limit_node = cond.rhs
            elif self._is_counter(cond.rhs, cslot):
                limit_node = cond.lhs
            else:
                raise _Bail
            mode = "eq"
        elif (
            loop.cond_kind == "WILE"
            and cond.op == "lt"
            and self._is_counter(cond.lhs, cslot)
        ):
            limit_node = cond.rhs
            mode = "lt"
        else:
            raise _Bail
        lim = self._expr(limit_node)
        if lim[0] not in ("c", "r"):
            raise _Bail
        return mode, lim

    def _commit_src(self, sym):
        k = sym[0]
        if k == "c":
            return ("c", sym[1])
        if k == "r":
            return ("r", sym[1])
        if k == "v":
            self.guarded.add(sym[1])
            return ("last", sym[1])
        return ("afflast", sym[1], sym[2])  # the last lane's base + coeffs

    def _finalize_array_commits(self) -> None:
        for aref in sorted(self.arr_regs):
            st = self.arr_regs[aref]
            for key, pend in st.writes.items():
                if pend == "fold":
                    continue  # the fold already appended its commit
                base_op, coeffs, sym = pend
                if aref[0] == "ur":
                    self.commits.append(
                        ("rput", aref[1], base_op, coeffs, self._lane_opnd(sym))
                    )
                elif sym[0] == "rget":
                    self.commits.append(
                        ("rget", st.reg, base_op, coeffs) + sym[1:]
                    )
                elif not any(coeffs):
                    self.commits.append(
                        ("w1", st.reg, base_op, self._commit_src(sym))
                    )
                else:
                    # An int64 store copies int64 lanes exactly.
                    src = self._lane_opnd(sym, exact=st.kind == "i")
                    self.commits.append(
                        ("wslice", st.reg, base_op, coeffs, src)
                    )

    def _lane_opnd(self, sym, exact: bool = False):
        if sym[0] == "aff":
            sym = ("v", self._materialize(sym))
        return self._opnd(sym, exact)

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
            self.masks = True
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
        # otherwise untouched: a sequential fold over all lanes,
        # preserving float non-associativity bit for bit.  In an O RLY?
        # arm it folds over the selected lanes only.
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
        self.masked.add(slot)
        self.commits.append(("mset", slot, self._lane_opnd(sym), mask))

    def _fold_operand(self, node, acc_slot: int):
        sym = self._expr(node)
        if acc_slot in self.inv_reads:
            raise _Bail  # the operand itself read the accumulator
        # A fold of int64 lanes is exact: the int fold runs on Python
        # ints, and the float folds guard int lanes themselves.
        return self._lane_opnd(sym, exact=True)

    def _assign_element(self, s: ast.Assign, target: ast.Index) -> None:
        value = s.value
        if type(value) is ast.Index and _is_remote(value.base):
            self._remote_get(target, value)
            return
        remote = _is_remote(target.base)
        st = self._array(target.base, remote)
        if st.folded:
            raise _Bail
        words = self.words
        isym = self._expr(target.index)
        if self.words != words:
            raise _Bail  # the scalar engines draw in the value first
        if isym[0] == "v":
            if remote:
                raise _Bail
            self._scatter(s, target, st, isym[1])
            return
        base_op, coeffs = self._aff(isym)
        key = (coeffs, base_op)
        pend = st.writes.get(key)
        if pend is not None and pend[2][0] == "rget":
            raise _Bail  # the scalar loop would still get every element
        # Element accumulator at an index that no innermost counter moves
        # (nbody's force accumulation): ``A'Z k R SUM OF A'Z k AN <v>``.
        if (
            coeffs[-1] == 0
            and not remote
            and isinstance(value, ast.BinOp)
            and value.op in _SBIN
            and isinstance(value.lhs, ast.Index)
            and self._same_element(value.lhs, target, st, key)
        ):
            self._element_fold(value, st, base_op, coeffs)
            return
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
        zero = not any(coeffs)
        if zero and st.reads:
            raise _Bail  # slice read of an element overwritten each trip
        if remote and (zero or st.reads):
            raise _Bail  # a remote write is one get-free slice of lanes
        st.writes[key] = (base_op, coeffs, sym)

    def _element_fold(self, value: ast.BinOp, st, base_op, coeffs) -> None:
        """Fold into the element at ``base + coeffs . counters``: one
        sequential fold per element, over the lanes of each outer
        iteration (all lanes when ``coeffs`` is zero)."""
        opnd = self._fold_operand(value.rhs, -1)
        # Any access to this array recorded so far (including ones the
        # operand just made) could observe the evolving element mid-loop,
        # so the fold requires a completely private array.
        if st.reads or st.read1 or st.writes:
            raise _Bail
        outer = len(coeffs)
        while outer and coeffs[outer - 1] == 0:
            outer -= 1
        if 0 in coeffs[:outer]:
            raise _Bail  # elements interleave across the lanes
        seg = coeffs[:outer]
        reg = self._reg()
        self._emit(
            (
                "fold",
                reg,
                value.op,
                ("elem", st.reg, base_op, seg),
                opnd,
                ("static", st.elem, "<element>"),
                None,
            )
        )
        st.folded = True
        st.writes[(coeffs, base_op)] = "fold"
        if seg:
            self.commits.append(("wseg", st.reg, base_op, seg, reg))
        else:
            self.commits.append(("w1", st.reg, base_op, ("r", reg)))

    def _remote_get(self, target: ast.Index, value: ast.Index) -> None:
        """``a'Z <i> R UR s'Z <j>``: the lanes' elements of ``s`` on the
        target PE, copied by one ``get_slice`` in the write phase.  The
        remote array is neither written nor read anywhere else."""
        src = self._array(value.base, True)
        if src.writes or src.reads:
            raise _Bail
        sbase, scoeffs = self._aff_index(value.index)
        if not any(scoeffs):
            raise _Bail
        src.reads[(scoeffs, sbase)] = None
        st = self._array(target.base)
        if st.folded or st.kind != src.kind or st.elem is not src.elem:
            raise _Bail  # the copy does no element conversion
        base_op, coeffs = self._aff_index(target.index)
        if not any(coeffs) or st.writes or st.reads or st.read1:
            raise _Bail
        st.writes[(coeffs, base_op)] = (
            base_op, coeffs, ("rget", value.base.name, sbase, scoeffs),
        )

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
        self.guarded.add(idx_reg)
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
        rbase, rcoeffs = self._aff_index(read.index)
        return (rcoeffs, rbase) == key

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
            op = node.op
            a = self._expr(node.lhs)
            b = self._expr(node.rhs)
            if a[0] == "c" and b[0] == "c":
                fn = BINOP_FUNCS.get(op)
                if fn is None:
                    raise _Bail
                try:
                    return ("c", fn(a[1], b[1], None))
                except Exception as exc:  # noqa: BLE001 — let scalar raise it
                    raise _Bail from exc
            if op in _SBIN:
                return self._bin(op, a, b)
            if op in _IBIN:
                return self._ibin(op, a, b)
            raise _Bail
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
            self.vkinds[reg] = "i" if node.kind == "int" else "f"
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
        coeffs = self.counters.get(info.slot)
        if coeffs is not None:
            if self.in_limit:
                raise _Bail
            return ("aff", ("c", 0), coeffs)
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

    def _array(self, base, remote: bool = False) -> _Arr:
        """The analysis state of array ``base``: a local or symmetric
        array, or with ``remote`` the target PE's copy of a symmetric one
        (``UR a``; only a plain loop, never a nest, copies remotely)."""
        if (
            not isinstance(base, ast.VarRef)
            or (base.qualifier == "UR") != remote
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
            aref = ("ur" if remote else "sym", base.name)
            elem = info.static_type
        elif info.kind == LOCAL and info.is_array and not remote:
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
            reg = -1
            if remote:
                if len(self.zero) > 1:
                    raise _Bail
                self.remote = True
            else:
                reg = self._reg()
                self._emit(("arr", reg, aref[0], aref[1], kind))
            st = _Arr(reg, kind, elem)
            self.arr_regs[aref] = st
        return st

    def _aff_index(self, node):
        """Index expression -> ``(base_operand, coeffs)``, integer coeffs."""
        return self._aff(self._expr(node))

    def _aff(self, sym):
        k = sym[0]
        if k == "c":
            if type(sym[1]) is not int:
                raise _Bail
            return ("c", sym[1]), self.zero
        if k == "r":
            return ("r", sym[1]), self.zero
        if k == "aff" and min(sym[2]) >= 0 and any(sym[2]):
            return sym[1], sym[2]
        raise _Bail  # data-dependent (gather/scatter) indexing: scalar

    def _read_element(self, node: ast.Index):
        st = self._array(node.base)
        if st.folded:
            raise _Bail
        base_op, coeffs = self._aff_index(node.index)
        key = (coeffs, base_op)
        pend = st.writes.get(key)
        if pend is not None:
            if pend == "fold" or pend[2][0] == "rget":
                raise _Bail
            return pend[2]  # same-iteration read-after-write, coerced
        for k in st.writes:
            if k != key:
                raise _Bail
        if not any(coeffs):
            reg = st.read1.get(key)
            if reg is None:
                reg = self._reg()
                self._emit(("read1", reg, st.reg, base_op))
                st.read1[key] = reg
            return ("r", reg)
        reg = st.reads.get(key)
        if reg is None:
            reg = self._reg()
            self._emit(("read", reg, st.reg, base_op, coeffs))
            st.reads[key] = reg
            self.vkinds[reg] = st.kind
        return ("v", reg)

    # ------------------------------------------------------------------
    # symbolic arithmetic

    def _materialize(self, aff) -> int:
        """aff -> lane vector register (runtime-validates an int base)."""
        reg = self._reg()
        self._emit(("iota", reg, aff[1], aff[2]))
        self.vkinds[reg] = "i"
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
        ka, kb = self._kind(a), self._kind(b)
        if ka == "f" or kb == "f":
            self.vkinds[reg] = "f"  # numpy float64 with any number
        elif ka == kb == "i":
            self.vkinds[reg] = "i"
        return ("v", reg)

    def _ibin(self, op: str, a, b):
        """``QUOSHUNT OF``/``MOD OF``/``BIGGR OF``/``SMALLR OF``: on
        scalars the real operator kernel, on lanes int64 only (checked
        at run time, with zero divisors bailing)."""
        if a[0] == "aff":
            a = ("v", self._materialize(a))
        if b[0] == "aff":
            b = ("v", self._materialize(b))
        reg = self._reg()
        if a[0] != "v" and b[0] != "v":
            self._emit(("sbin", reg, op, self._opnd(a), self._opnd(b)))
            return ("r", reg)
        if (a[0] == "c" and not self._is_int(a[1])) or (
            b[0] == "c" and not self._is_int(b[1])
        ):
            raise _Bail  # a float or non-number constant leaves int lanes
        self._emit(("ibin", reg, op, self._opnd(a), self._opnd(b)))
        self.vkinds[reg] = "i"
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
            if op == "add":
                coeffs = tuple(x + y for x, y in zip(a[2], b[2]))
            else:
                coeffs = tuple(x - y for x, y in zip(a[2], b[2]))
            return ("aff", base, coeffs)
        if a[0] == "aff" and b[0] == "c" and self._is_int(b[1]):
            if op == "add":
                return ("aff", self._base_add(a[1], b[1]), a[2])
            if op == "sub":
                return ("aff", self._base_add(a[1], -b[1]), a[2])
            k = b[1]  # mul: (base + c.i) * k = base*k + (c*k).i
            coeffs = tuple(c * k for c in a[2])
            base = a[1]
            if base[0] == "c":
                return ("aff", ("c", base[1] * k), coeffs)
            reg = self._reg()
            self._emit(("sbin", reg, "mul", base, ("c", k)))
            return ("aff", ("r", reg), coeffs)
        if b[0] == "aff" and a[0] == "c" and self._is_int(a[1]):
            if op == "add":
                return ("aff", self._base_add(b[1], a[1]), b[2])
            if op == "sub":  # k - (base + c.i) = (k - base) - c.i
                base = b[1]
                if base[0] == "c":
                    nbase = ("c", a[1] - base[1])
                else:
                    reg = self._reg()
                    self._emit(("sbin", reg, "sub", ("c", a[1]), base))
                    nbase = ("r", reg)
                return ("aff", nbase, tuple(-c for c in b[2]))
            k = a[1]  # mul
            coeffs = tuple(k * c for c in b[2])
            base = b[1]
            if base[0] == "c":
                return ("aff", ("c", k * base[1]), coeffs)
            reg = self._reg()
            self._emit(("sbin", reg, "mul", ("c", k), base))
            return ("aff", ("r", reg), coeffs)
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
        self.guarded.add(a[1])
        reg = self._reg()
        self._emit(("un", reg, op, a[1]))
        kind = self.vkinds.get(a[1]) if op == "square" else "f"
        if kind is not None:
            self.vkinds[reg] = kind
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
        the static coercion and the explicit cast agree.  Lanes already
        of the target dtype need no op."""
        if sym[0] == "aff":
            if to_type is _NUMBR and sym[1][0] == "c":
                return sym  # provably integer already
            sym = ("v", self._materialize(sym))
        kind = "i" if to_type is _NUMBR else "f"
        if self.vkinds.get(sym[1]) == kind:
            return sym
        self.guarded.add(sym[1])
        reg = self._reg()
        self._emit(("cast", reg, sym[1], kind))
        self.vkinds[reg] = kind
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


def _is_remote(base) -> bool:
    return type(base) is ast.VarRef and base.qualifier == "UR"


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
    model, or declarations plus one such loop (a nest).  Called at
    compile time, with the counter (slot ``cslot``) allocated in
    ``asm``'s frame; an inner loop's counter is allocated here, and body
    declarations are bound privately as the walk reaches them.
    """
    if cslot < 0 or stmt.op != "UPPIN" or stmt.cond is None:
        return None
    try:
        return _Analyzer(compiler, asm, cslot).build(stmt)
    except _Bail:
        return None

