"""Operator semantics for LOLCODE values.

Centralises the behaviour of every Table I operator and Table III math
extension so the three interpreter engines share one implementation
(they are differentially tested against each other).

Numeric rules follow the lci reference interpreter the paper extends:

* arithmetic casts YARN operands that look like numbers;
* if either operand is (or casts to) NUMBAR the result is NUMBAR,
  otherwise NUMBR;
* NUMBR division and modulo truncate toward zero (C semantics — the
  paper's backend is C);
* ``BOTH SAEM``/``DIFFRINT`` compare numerically across NUMBR/NUMBAR,
  and by value within a type; comparing a YARN with a NUMBR is FAIL
  rather than an error (1.2 behaviour).
"""

from __future__ import annotations

import math

from ..lang.errors import LolRuntimeError, LolTypeError, SourcePos
from ..lang.types import (
    LolType,
    format_yarn,
    to_numbar,
    to_numbr,
    to_troof,
    type_of,
)

_NUMERIC = (LolType.NUMBR, LolType.NUMBAR)


def _as_number(value: object, pos: SourcePos | None) -> int | float:
    """Cast an operand to NUMBR/NUMBAR for arithmetic."""
    t = type_of(value)
    if t is LolType.NUMBR or t is LolType.NUMBAR:
        return value  # type: ignore[return-value]
    if t is LolType.TROOF:
        return 1 if value else 0
    if t is LolType.YARN:
        s = str(value).strip()
        try:
            if any(c in s for c in ".eE") and not s.lstrip("+-").isdigit():
                return float(s)
            return int(s)
        except ValueError:
            try:
                return float(s)
            except ValueError as exc:
                raise LolTypeError(
                    f"cannot use YARN {value!r} as a number", pos
                ) from exc
    raise LolTypeError(f"cannot use {t} value in arithmetic", pos)


def _trunc_div(a: int, b: int) -> int:
    """C-style integer division (truncate toward zero)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def arith(op: str, lhs: object, rhs: object, pos: SourcePos | None = None) -> object:
    a = _as_number(lhs, pos)
    b = _as_number(rhs, pos)
    both_int = isinstance(a, int) and isinstance(b, int)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            raise LolRuntimeError("QUOSHUNT OF: division by zero", pos)
        return _trunc_div(a, b) if both_int else a / b
    if op == "mod":
        if b == 0:
            raise LolRuntimeError("MOD OF: division by zero", pos)
        if both_int:
            return a - _trunc_div(a, b) * b
        return math.fmod(a, b)
    if op == "max":
        return a if a >= b else b
    if op == "min":
        return a if a <= b else b
    raise LolRuntimeError(f"unknown arithmetic op {op!r}", pos)


def equals(lhs: object, rhs: object) -> bool:
    t1, t2 = type(lhs), type(rhs)
    if (t1 is int or t1 is float) and (t2 is int or t2 is float):
        return lhs == rhs
    ta, tb = type_of(lhs), type_of(rhs)
    if ta in _NUMERIC and tb in _NUMERIC:
        return float(lhs) == float(rhs)  # type: ignore[arg-type]
    if ta is not tb:
        return False
    return lhs == rhs


def compare(op: str, lhs: object, rhs: object, pos: SourcePos | None = None) -> bool:
    """The paper's Table I comparison keywords ``BIGGER`` / ``SMALLR``."""
    a = _as_number(lhs, pos)
    b = _as_number(rhs, pos)
    return a > b if op == "gt" else a < b


# ---------------------------------------------------------------------------
# Per-operator function tables.
#
# Every operator is one callable ``fn(lhs, rhs, pos) -> value`` so the
# VM compiler can resolve the operator *once at compile time* instead of
# re-running a string-keyed if-chain per evaluation.
# The numeric ops carry an inline fast path for the overwhelmingly common
# int/float case (``type(x) is int`` deliberately excludes bool, which
# LOLCODE arithmetic must coerce through TROOF rules in ``_as_number``).
# On two NUMBRs, QUOSHUNT OF and MOD OF take it only where C's truncation
# and Python's flooring agree (a >= 0, b > 0); other signs and zero
# divisors go through ``arith``.
# ---------------------------------------------------------------------------


def _op_add(a: object, b: object, pos: SourcePos | None = None) -> object:
    ta, tb = type(a), type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a + b
    return arith("add", a, b, pos)


def _op_sub(a: object, b: object, pos: SourcePos | None = None) -> object:
    ta, tb = type(a), type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a - b
    return arith("sub", a, b, pos)


def _op_mul(a: object, b: object, pos: SourcePos | None = None) -> object:
    ta, tb = type(a), type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a * b
    return arith("mul", a, b, pos)


def _op_div(a: object, b: object, pos: SourcePos | None = None) -> object:
    ta, tb = type(a), type(b)
    if ta is int and tb is int:
        if a >= 0 and b > 0:
            return a // b  # truncation == flooring for these signs
    elif (ta is float or ta is int) and (tb is float or tb is int) and b != 0:
        return a / b
    return arith("div", a, b, pos)


def _op_mod(a: object, b: object, pos: SourcePos | None = None) -> object:
    ta, tb = type(a), type(b)
    if ta is int and tb is int:
        if a >= 0 and b > 0:
            return a % b  # C remainder == Python's for these signs
    elif (ta is float or ta is int) and (tb is float or tb is int) and b != 0:
        return math.fmod(a, b)
    return arith("mod", a, b, pos)


def _op_max(a: object, b: object, pos: SourcePos | None = None) -> object:
    ta, tb = type(a), type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a if a >= b else b
    return arith("max", a, b, pos)


def _op_min(a: object, b: object, pos: SourcePos | None = None) -> object:
    ta, tb = type(a), type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a if a <= b else b
    return arith("min", a, b, pos)


def _op_eq(a: object, b: object, pos: SourcePos | None = None) -> object:
    return equals(a, b)


def _op_ne(a: object, b: object, pos: SourcePos | None = None) -> object:
    return not equals(a, b)


def _op_gt(a: object, b: object, pos: SourcePos | None = None) -> object:
    ta, tb = type(a), type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a > b
    return compare("gt", a, b, pos)


def _op_lt(a: object, b: object, pos: SourcePos | None = None) -> object:
    ta, tb = type(a), type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a < b
    return compare("lt", a, b, pos)


def _op_and(a: object, b: object, pos: SourcePos | None = None) -> object:
    return to_troof(a) and to_troof(b)


def _op_or(a: object, b: object, pos: SourcePos | None = None) -> object:
    return to_troof(a) or to_troof(b)


def _op_xor(a: object, b: object, pos: SourcePos | None = None) -> object:
    return to_troof(a) != to_troof(b)


#: op name -> ``fn(lhs, rhs, pos)``; the VM compiler indexes this once
#: per BinOp node at compile time.
BINOP_FUNCS = {
    "add": _op_add,
    "sub": _op_sub,
    "mul": _op_mul,
    "div": _op_div,
    "mod": _op_mod,
    "max": _op_max,
    "min": _op_min,
    "eq": _op_eq,
    "ne": _op_ne,
    "gt": _op_gt,
    "lt": _op_lt,
    "and": _op_and,
    "or": _op_or,
    "xor": _op_xor,
}


def _op_not(value: object, pos: SourcePos | None = None) -> object:
    return not to_troof(value)


def _op_square(value: object, pos: SourcePos | None = None) -> object:
    t = type(value)
    if t is int or t is float:
        return value * value
    v = _as_number(value, pos)
    return v * v


def _op_sqrt(value: object, pos: SourcePos | None = None) -> object:
    v = value if type(value) is float else to_numbar(value, pos)
    if v < 0:
        raise LolRuntimeError("UNSQUAR OF: negative operand", pos)
    return math.sqrt(v)


def _op_recip(value: object, pos: SourcePos | None = None) -> object:
    v = value if type(value) is float else to_numbar(value, pos)
    if v == 0.0:
        raise LolRuntimeError("FLIP OF: division by zero", pos)
    return 1.0 / v


#: op name -> ``fn(value, pos)``.
UNOP_FUNCS = {
    "not": _op_not,
    "square": _op_square,
    "sqrt": _op_sqrt,
    "recip": _op_recip,
}


def _op_all(values: list[object], pos: SourcePos | None = None) -> object:
    return all(to_troof(v) for v in values)


def _op_any(values: list[object], pos: SourcePos | None = None) -> object:
    return any(to_troof(v) for v in values)


def _op_smoosh(values: list[object], pos: SourcePos | None = None) -> object:
    return "".join(format_yarn(v) for v in values)


#: op name -> ``fn(values, pos)``.
NARYOP_FUNCS = {
    "all": _op_all,
    "any": _op_any,
    "smoosh": _op_smoosh,
}


def binop(op: str, lhs: object, rhs: object, pos: SourcePos | None = None) -> object:
    fn = BINOP_FUNCS.get(op)
    if fn is None:
        raise LolRuntimeError(f"unknown binary op {op!r}", pos)
    return fn(lhs, rhs, pos)


def unop(op: str, value: object, pos: SourcePos | None = None) -> object:
    fn = UNOP_FUNCS.get(op)
    if fn is None:
        raise LolRuntimeError(f"unknown unary op {op!r}", pos)
    return fn(value, pos)


def naryop(op: str, values: list[object], pos: SourcePos | None = None) -> object:
    fn = NARYOP_FUNCS.get(op)
    if fn is None:
        raise LolRuntimeError(f"unknown n-ary op {op!r}", pos)
    return fn(values, pos)


#: Estimated floating point work per operator, for the NoC performance
#: model (``FLIP OF UNSQUAR OF`` dominates the n-body inner loop).
FLOP_COST = {
    "add": 1,
    "sub": 1,
    "mul": 1,
    "div": 1,
    "mod": 1,
    "max": 1,
    "min": 1,
    "square": 1,
    "sqrt": 4,
    "recip": 1,
}
