"""Execution of ``LOOP_VEC`` plans (the runtime half of the vectorizer).

:mod:`repro.vm.vectorize` builds a :class:`~repro.vm.vectorize.VecPlan`
at compile time; :func:`run_vec` executes it.  A run is *guarded*: every
value-dependent precondition (integral trip counts, array bounds, int64
magnitudes, sqrt/recip domains, zero divisors, operand types, distinct
write targets) is checked **before any state is mutated**; a failed
guard returns ``False`` and the machine falls through to the scalar
loop, which reproduces exact tree-walker semantics — including whatever
error the guard was protecting against.  Commits are two-phase (compute
everything, materialize copies, then write), so a bail can never leave
partial effects behind.  The one piece of state touched before the
guards is the PE's random generator: a plan with draw sites saves
``rng.getstate()`` before drawing and every bail restores it, so the
scalar loop replays the same stream.  Remote copies happen in the write
phase, so a bail never counts a get or a put twice.

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
  ``QUOSHUNT OF`` and ``MOD OF`` on int lanes truncate toward zero, as
  ``_trunc_div`` does, never numpy's flooring ``//`` and ``%``;
* float reductions run through ``ufunc.accumulate``, which applies the
  operator left to right one lane at a time, so the result is the
  sequential fold's bit for bit (float addition is not associative, and
  the pairwise ``np.sum`` would differ); integer folds stay sequential
  Python folds over the real operator kernels;
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
from typing import TYPE_CHECKING

import numpy as np

from .. import obs as _obs
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
from ..lang.types import LolType, cast as cast_value, coerce_static
from ..shmem.heap import ArrayCell

if TYPE_CHECKING:
    from .vectorize import VecPlan

#: int64 magnitude bound for every integer vector (and every scalar fed
#: into one).  Keeps products exact in int64 and int->float casts exact.
_MAXI = 1 << 30
#: trip-count cap: bounds transient memory (~32 MiB of float64).
_CAP = 1 << 22
#: ``randrange(0, 2**31 - 1)`` rejects this ``getrandbits(31)`` value.
_REJECT = (1 << 31) - 1

_NUMBR = LolType.NUMBR
_NUMBAR = LolType.NUMBAR

_SBIN = {"add": _op_add, "sub": _op_sub, "mul": _op_mul}
_SUN = {"square": _op_square, "sqrt": _op_sqrt, "recip": _op_recip}
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
#: a fold's operator applied left to right over a row of lanes.
_ACC = {
    "add": np.add.accumulate,
    "sub": np.subtract.accumulate,
    "mul": np.multiply.accumulate,
}


class _Bail(Exception):
    """Internal: this loop (or this execution of it) must stay scalar."""


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


def _int_lanes(v):
    """An operand of an int-lane op: int64 lanes or a guarded int."""
    if isinstance(v, np.ndarray):
        if v.dtype.kind != "i":
            raise _Bail
        return v
    if type(v) is not int or not -_MAXI <= v <= _MAXI:
        raise _Bail
    return v


def _trips(mode: str, lim) -> int:
    """The trip count of one loop of the plan from its limit value."""
    tl = type(lim)
    if mode == "eq":
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
        return n
    # "lt": n = first i with not (i < lim)
    if tl is int:
        return lim if lim > 0 else 0
    if tl is float:
        # NaN: lim > 0 is False -> 0 trips, same as the scalar test.
        # +inf: math.ceil raises -> bail -> scalar infinite loop.
        return math.ceil(lim) if lim > 0 else 0
    raise _Bail


#: Most lanes of a grid a plan keeps between runs: a nest re-runs with
#: the same trip counts, and its offsets and checked index sets are then
#: dictionary lookups instead of numpy calls.  Larger grids spend their
#: time in the numpy work, not in building indexes.
_KEEP_LANES = 1 << 10
#: Most index sets one kept grid memoizes (a base held in a register
#: can change on every run), which bounds a plan's kept indexes at
#: 16 x 8 KiB.
_KEEP_INDEXES = 16


class _Lanes:
    """The lane grid of one plan run: the nest's trip counts, outer
    first, with memoized lane offsets and checked index sets."""

    __slots__ = ("shape", "n", "offs", "indexes", "injective")

    def __init__(self, shape: tuple, n: int) -> None:
        self.shape = shape
        self.n = n
        self.offs: dict = {}
        self.indexes: dict = {}
        self.injective: dict = {}

    def offsets(self, coeffs: tuple) -> np.ndarray:
        """``coeffs . counters`` for every lane of the leading
        ``len(coeffs)`` loops, in row-major order (never mutated)."""
        off = self.offs.get(coeffs)
        if off is None:
            for c, nj in zip(coeffs, self.shape):
                a = np.arange(nj, dtype=np.int64) * c
                off = a if off is None else (off[:, None] + a).ravel()
            self.offs[coeffs] = off
        return off

    def span(self, b: int, coeffs: tuple) -> tuple:
        """The least and the greatest of ``b + coeffs . counters``."""
        lo = hi = b
        for c, nj in zip(coeffs, self.shape):
            if c > 0:
                hi += c * (nj - 1)
            else:
                lo += c * (nj - 1)
        return lo, hi

    def distinct(self, coeffs: tuple) -> bool:
        """Whether no two lanes share ``coeffs . counters``: each moving
        loop's stride clears everything the smaller strides can reach."""
        ok = self.injective.get(coeffs)
        if ok is None:
            ok = True
            reach = 0
            for c, nj in sorted(zip(coeffs, self.shape)):
                if nj > 1:
                    if c <= reach:
                        ok = False
                        break
                    reach += c * (nj - 1)
            self.injective[coeffs] = ok
        return ok

    def where(self, b, coeffs: tuple, size: int):
        """The elements ``b + coeffs . counters`` of an array of ``size``
        elements as an index (a slice for one loop, else the lanes'
        offsets), bailing when one lies outside the array."""
        if type(b) is not int:
            raise _Bail
        key = (b, coeffs, size)
        idx = self.indexes.get(key)
        if idx is None:
            lo, hi = self.span(b, coeffs)
            if lo < 0 or hi >= size:
                raise _Bail
            if len(coeffs) == 1:
                idx = slice(b, hi + 1, coeffs[0])
            else:
                idx = self.offsets(coeffs) + b
            if len(self.indexes) < _KEEP_INDEXES:
                self.indexes[key] = idx
        return idx


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
        _OPS[op[0]](op, regs, frame, None, m)
    shape = ()
    for mode, lim, _ in plan.levels:
        shape += (_trips(mode, _val(lim, regs)),)
    if shape[0] == 0:
        frame[plan.levels[0][2]] = 0
        return True
    n = math.prod(shape)
    if n == 0 or n > _CAP or n < plan.min_trips:
        raise _Bail  # (an empty inner loop: let the scalar nest run it)
    lanes = plan.lanes
    if lanes is None or lanes.shape != shape:
        lanes = _Lanes(shape, n)
        if n <= _KEEP_LANES:
            plan.lanes = lanes  # PEs share it: every memo is idempotent
    if not plan.words:
        return _apply(m, frame, plan, regs, lanes)
    rng = m.ctx.rng
    state = rng.getstate()
    try:
        # CPython fills getrandbits from successive 32-bit outputs, least
        # significant first: row i holds iteration i's words in order.
        k = plan.words
        raw = rng.getrandbits(32 * n * k).to_bytes(4 * n * k, "little")
        regs[plan.words_reg] = np.frombuffer(raw, "<u4").reshape(n, k)
        return _apply(m, frame, plan, regs, lanes)
    except Exception:
        rng.setstate(state)  # the scalar loop replays the same draws
        raise


def _apply(m, frame, plan: VecPlan, regs: list, lanes: _Lanes) -> bool:
    for op in plan.prog:
        _OPS[op[0]](op, regs, frame, lanes, m)
    ctx = m.ctx
    pe = None
    if "remote" in plan.shapes:
        # The span tracer and the NoC trace record every element op:
        # those runs stay scalar (the race detector already bailed).
        rt = _obs.ACTIVE
        pe = m.target_pe
        if (
            (rt is not None and rt.trace_on)
            or ctx.trace is not None
            or pe is None
            or not 0 <= pe < ctx.n_pes
            or pe == ctx.my_pe
        ):
            raise _Bail
    # Two-phase commit.  Validate every target and materialize every
    # source (copying ndarray views) before the first write: after this
    # point nothing can raise, and before it nothing has been mutated.
    # Remote copies touch only the target PE's partition and arrays
    # nothing else in the plan writes, so they run last, in order.
    actions = []
    remote = []
    for c in plan.commits:
        tag = c[0]
        if tag == "set":
            actions.append((frame, c[1], _commit_val(c[2], regs, lanes)))
        elif tag == "wslice":
            data = regs[c[1]]
            if len(c[3]) > 1 and not lanes.distinct(c[3]):
                raise _Bail  # two lanes write one element
            where = lanes.where(_val(c[2], regs), c[3], data.shape[0])
            actions.append((data, where, _lane_src(c[4], regs)))
        elif tag == "mset":
            sel = np.flatnonzero(regs[c[3]])
            if sel.size:  # no selected lane: the slot keeps its value
                v = _val(c[2], regs)
                if isinstance(v, np.ndarray):
                    v = v[sel[-1]].item()
                actions.append((frame, c[1], v))
        elif tag == "wseg":
            # One folded element per outer iteration; the fold already
            # checked the addresses (distinct, in bounds).
            data = regs[c[1]]
            where = lanes.where(_val(c[2], regs), c[3], data.shape[0])
            actions.append((data, where, regs[c[4]]))
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
            actions.append((data, touched, new[touched]))
        elif tag == "rput":
            _, name, base_op, coeffs, src = c
            size = _remote_size(ctx, name, pe)
            where = lanes.where(_val(base_op, regs), coeffs, size)
            remote.append((ctx.put_slice, (name, _lane_src(src, regs), pe, where)))
        elif tag == "rget":
            _, reg, base_op, coeffs, name, sbase, scoeffs = c
            data = regs[reg]
            where = lanes.where(_val(base_op, regs), coeffs, data.shape[0])
            size = _remote_size(ctx, name, pe)
            src = lanes.where(_val(sbase, regs), scoeffs, size)
            remote.append((_get_into, (data, where, ctx, name, pe, src)))
        else:  # "w1"
            data = regs[c[1]]
            b = _val(c[2], regs)
            if type(b) is not int or b < 0 or b >= data.shape[0]:
                raise _Bail
            v = _commit_val(c[3], regs, lanes)
            if type(v) is int:
                if abs(v) > _MAXI:
                    raise _Bail
            elif type(v) is not float:
                raise _Bail
            actions.append((data, b, v))
    for target, where, v in actions:
        target[where] = v
    for copy, args in remote:
        copy(*args)
    for (_, _, cslot), nj in zip(plan.levels, lanes.shape):
        frame[cslot] = nj
    return True


def _lane_src(src, regs):
    """A write's lane values: a copied vector or a guarded scalar."""
    v = _val(src, regs)
    if isinstance(v, np.ndarray):
        return v.copy()  # views may alias a committed target
    if type(v) is int:
        if abs(v) > _MAXI:
            raise _Bail  # int64 store could overflow at apply
    elif type(v) is not float:
        raise _Bail
    return v


def _remote_size(ctx, name: str, pe: int) -> int:
    """The element count of the target PE's copy of ``name``, which must
    be float64 or int64 storage (the copies do no conversion)."""
    data = ctx.world.heap.lookup(name).cell(pe).data
    if not isinstance(data, np.ndarray) or data.itemsize != 8 or data.ndim != 1:
        raise _Bail
    return data.shape[0]


def _get_into(data, where, ctx, name: str, pe: int, src: slice) -> None:
    data[where] = ctx.get_slice(name, pe, src)


def _commit_val(spec, regs, lanes: _Lanes):
    tag = spec[0]
    if tag == "c":
        return spec[1]
    if tag == "r":
        return regs[spec[1]]
    if tag == "last":
        return regs[spec[1]][-1].item()
    # "afflast": the final iteration's value as the scalar engine would
    # compute it — one add on the invariant base.  Exactness of the
    # reassociated coeffs . (shape - 1) needs integers, so floats bail.
    b = _val(spec[1], regs)
    if type(b) is not int:
        raise _Bail
    return b + sum(c * (nj - 1) for c, nj in zip(spec[2], lanes.shape))


def _fold(kind: str, acc, xs, coerce):
    """The scalar engines' fold of ``xs`` into ``acc``, one lane at a time."""
    fn = _SBIN[kind]
    if coerce is None:
        for item in xs:
            acc = fn(acc, item, None)
    else:
        ct, nm = coerce[1], coerce[2]
        for item in xs:
            acc = coerce_static(fn(acc, item, None), ct, nm, None)
    return acc


# -- one handler per op: fn(op, regs, frame, lanes, machine) ---------------


def _x_bin(op, regs, frame, lanes, m) -> None:
    a = _val(op[3], regs)
    b = _val(op[4], regs)
    if not isinstance(a, np.ndarray):
        a = _scalar_num(a)
    if not isinstance(b, np.ndarray):
        b = _scalar_num(b)
    regs[op[1]] = _int_guard(_VOP[op[2]](a, b))


def _x_ibin(op, regs, frame, lanes, m) -> None:
    a = _int_lanes(_val(op[3], regs))
    b = _int_lanes(_val(op[4], regs))
    kind = op[2]
    if kind == "max":
        regs[op[1]] = np.maximum(a, b)
    elif kind == "min":
        regs[op[1]] = np.minimum(a, b)
    else:
        if bool(np.any(b == 0)):
            raise _Bail  # scalar raises "division by zero"
        # C semantics, as _trunc_div and math.fmod: the remainder has the
        # sign of a, and a - r is a multiple of b, so its floor quotient
        # is the truncated one (numpy's // and % alone would floor).
        r = np.fmod(a, b)
        regs[op[1]] = (a - r) // b if kind == "div" else r


def _x_read(op, regs, frame, lanes, m) -> None:
    # op[5]: some consumer needs the lanes inside the int guard (the
    # vectorizer clears it when every consumer is exact on int64).
    data = regs[op[2]]
    v = data[lanes.where(_val(op[3], regs), op[4], data.shape[0])]
    regs[op[1]] = _int_guard(v) if op[5] else v


def _x_read1(op, regs, frame, lanes, m) -> None:
    data = regs[op[2]]
    b = _val(op[3], regs)
    if type(b) is not int or b < 0 or b >= data.shape[0]:
        raise _Bail
    v = data[b]
    regs[op[1]] = int(v) if data.dtype.kind == "i" else float(v)


def _x_slot(op, regs, frame, lanes, m) -> None:
    v = frame[op[2]]
    if v is UNDECLARED:
        raise _Bail
    regs[op[1]] = v


def _x_un(op, regs, frame, lanes, m) -> None:
    v = regs[op[3]]
    kind = op[2]
    if kind == "square":
        regs[op[1]] = _int_guard(v * v)
        return
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


def _x_fold(op, regs, frame, lanes, m) -> None:
    _, dst, kind, init, opnd, coerce, mask = op
    n = lanes.n
    x = _val(opnd, regs)
    if init[0] == "elem" and init[3]:
        # Segmented: one element per outer iteration, folded over that
        # iteration's lanes; column 0 of the grid is the element.
        _, arr, base_op, seg = init
        data = regs[arr]
        if not lanes.distinct(seg):
            raise _Bail  # two outer iterations share an element
        start = data[lanes.where(_val(base_op, regs), seg, data.shape[0])]
        rows = start.shape[0]
        if not isinstance(x, np.ndarray):
            x = np.full(n, _scalar_num(x))
        grid = x.reshape(rows, n // rows)
        if data.dtype.kind == "f":  # NUMBAR elements: every step a float
            _int_guard(grid)  # int lanes convert to float64 exactly
            cols = np.concatenate((start[:, None], grid), axis=1)
            regs[dst] = _ACC[kind](cols, axis=1)[:, -1]
            return
        ends = [
            _fold(kind, acc, xs, coerce)
            for acc, xs in zip(start.tolist(), grid.tolist())
        ]
        for v in ends:
            if type(v) is not int or abs(v) > _MAXI:
                raise _Bail
        regs[dst] = np.array(ends, dtype=np.int64)
        return
    if init[0] == "slot":
        acc = frame[init[1]]
        if acc is UNDECLARED:
            raise _Bail
    else:  # ("elem", arr_reg, base_op, ()): one element for every lane
        data = regs[init[1]]
        b = _val(init[2], regs)
        if type(b) is not int or b < 0 or b >= data.shape[0]:
            raise _Bail
        v = data[b]
        acc = int(v) if data.dtype.kind == "i" else float(v)
    if isinstance(x, np.ndarray):
        if mask is not None:
            x = x[regs[mask]]  # the lanes whose arm ran, in order
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
        if type(x) is not float:
            regs[dst] = _fold(kind, acc, [x] * count, coerce)
            return
        x = np.full(count, x)
    # A float accumulate when every partial result is a float64 the
    # sequential fold would make: a float start or float lanes, and an
    # int start small enough to convert exactly.
    ta, tx = type(acc), x.dtype.kind
    if (
        (ta is float or (tx == "f" and ta is int and -_MAXI <= acc <= _MAXI))
        and tx in "if"
        and (coerce is None or coerce[1] is _NUMBAR)
    ):
        _int_guard(x)  # int lanes convert to float64 exactly
        if x.size:
            acc = float(_ACC[kind](np.concatenate(([acc], x)))[-1])
        regs[dst] = acc
        return
    regs[dst] = _fold(kind, acc, x.tolist(), coerce)


def _x_iota(op, regs, frame, lanes, m) -> None:
    b = _val(op[2], regs)
    if type(b) is not int:
        raise _Bail
    lo, hi = lanes.span(b, op[3])
    if not (-_MAXI <= lo and hi <= _MAXI):
        raise _Bail
    regs[op[1]] = lanes.offsets(op[3]) + b


def _x_draw(op, regs, frame, lanes, m) -> None:
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


def _x_not(op, regs, frame, lanes, m) -> None:
    regs[op[1]] = ~regs[op[2]]


def _x_mcast(op, regs, frame, lanes, m) -> None:
    regs[op[1]] = cast_value(_val(op[2], regs), op[3], None)


def _x_sbin(op, regs, frame, lanes, m) -> None:
    regs[op[1]] = BINOP_FUNCS[op[2]](_val(op[3], regs), _val(op[4], regs), None)


def _x_cast(op, regs, frame, lanes, m) -> None:
    v = regs[op[2]]
    if op[3] == "i":
        if v.dtype.kind == "f":
            if not bool(np.isfinite(v).all()):
                raise _Bail
            if float(np.abs(v).max()) > _MAXI:
                raise _Bail
            v = v.astype(np.int64)  # C truncation == to_numbr
    elif v.dtype.kind == "i":
        v = v.astype(np.float64)  # exact under the int guard
    regs[op[1]] = v


def _x_arr(op, regs, frame, lanes, m) -> None:
    if op[2] == "slot":
        cell = frame[op[3]]
        if type(cell) is not ArrayCell:
            raise _Bail
    else:
        # Undeclared on this PE: the scalar loop raises LolNameError.
        obj = m.declared.get(op[3])
        if obj is None or not obj.is_array:
            raise _Bail
        cell = obj.cell(m.ctx.my_pe)
    data = cell.data
    if (
        not isinstance(data, np.ndarray)
        or data.dtype.kind != op[4]
        or data.itemsize != 8
        or data.ndim != 1
    ):
        raise _Bail
    regs[op[1]] = data


def _x_sun(op, regs, frame, lanes, m) -> None:
    regs[op[1]] = _SUN[op[2]](_val(op[3], regs), None)


def _x_scast(op, regs, frame, lanes, m) -> None:
    regs[op[1]] = coerce_static(_val(op[2], regs), op[3], op[4], None)


def _x_symrd(op, regs, frame, lanes, m) -> None:
    obj = m.declared.get(op[2])
    if obj is None or obj.is_array:
        raise _Bail
    regs[op[1]] = obj.cell(m.ctx.my_pe).read()


def _x_me(op, regs, frame, lanes, m) -> None:
    regs[op[1]] = m.ctx.my_pe


def _x_np(op, regs, frame, lanes, m) -> None:
    regs[op[1]] = m.ctx.n_pes


_OPS = {
    "bin": _x_bin,
    "ibin": _x_ibin,
    "read": _x_read,
    "read1": _x_read1,
    "slot": _x_slot,
    "un": _x_un,
    "fold": _x_fold,
    "iota": _x_iota,
    "draw": _x_draw,
    "not": _x_not,
    "mcast": _x_mcast,
    "sbin": _x_sbin,
    "cast": _x_cast,
    "arr": _x_arr,
    "sun": _x_sun,
    "scast": _x_scast,
    "symrd": _x_symrd,
    "me": _x_me,
    "np": _x_np,
}
