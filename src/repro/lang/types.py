"""The LOLCODE type system.

LOLCODE 1.2 has five scalar types:

* ``NUMBR`` — 64-bit signed integer
* ``NUMBAR`` — double-precision float
* ``YARN`` — string
* ``TROOF`` — boolean (``WIN`` / ``FAIL``)
* ``NOOB`` — the untyped/uninitialized value

plus, with the paper's extensions, homogeneous fixed-size arrays of the
numeric and scalar types (``LOTZ A NUMBARS AN THAR IZ 32``).

This module centralises the casting rules so that the interpreter, the
static checker, and the C compiler backend agree exactly.  The rules follow
the LOLCODE 1.2 specification as implemented by the ``lci`` interpreter the
paper builds on:

* NOOB casts implicitly only to TROOF (FAIL); any other implicit use is an
  error, while *explicit* casts of NOOB yield zero values ("" / 0 / 0.0).
* TROOF: ``""``, ``0``, ``0.0`` and ``NOOB`` are FAIL, all else WIN.
* YARN -> NUMBR/NUMBAR parse decimal strings; failure is a runtime error.
* NUMBAR -> NUMBR truncates toward zero.
* NUMBAR -> YARN formats with two decimal places (per the 1.2 spec).
"""

from __future__ import annotations

import enum

from .errors import LolRuntimeError, LolTypeError, SourcePos


class LolType(enum.Enum):
    NUMBR = "NUMBR"
    NUMBAR = "NUMBAR"
    YARN = "YARN"
    TROOF = "TROOF"
    NOOB = "NOOB"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: numpy dtype strings for the numeric LOLCODE types (used by the symmetric
#: heap and the C backend).
NUMPY_DTYPES = {
    LolType.NUMBR: "int64",
    LolType.NUMBAR: "float64",
    LolType.TROOF: "bool",
}

#: C type names emitted by the C backend for statically typed variables.
C_TYPES = {
    LolType.NUMBR: "int64_t",
    LolType.NUMBAR: "double",
    LolType.TROOF: "int",
    LolType.YARN: "char*",
}


#: Exact-type fast path for :func:`type_of`.  Keyed by ``type(value)`` so
#: ``bool`` (a subclass of ``int``) maps to TROOF correctly; numpy scalar
#: types miss here and fall through to the isinstance chain.
_TYPE_OF_FAST = {
    type(None): LolType.NOOB,
    bool: LolType.TROOF,
    int: LolType.NUMBR,
    float: LolType.NUMBAR,
    str: LolType.YARN,
}


def type_of(value: object) -> LolType:
    """Dynamic type of a Python-hosted LOLCODE value."""
    t = _TYPE_OF_FAST.get(type(value))
    if t is not None:
        return t
    if isinstance(value, bool):
        return LolType.TROOF
    if isinstance(value, int):
        return LolType.NUMBR
    if isinstance(value, float):
        return LolType.NUMBAR
    if isinstance(value, str):
        return LolType.YARN
    raise LolTypeError(f"value {value!r} has no LOLCODE type")


def default_value(t: LolType) -> object:
    """Zero value used to initialise statically typed declarations."""
    if t is LolType.NUMBR:
        return 0
    if t is LolType.NUMBAR:
        return 0.0
    if t is LolType.YARN:
        return ""
    if t is LolType.TROOF:
        return False
    return None


def format_yarn(value: object) -> str:
    """Cast any value to YARN following 1.2 formatting rules."""
    t = type_of(value)
    if t is LolType.YARN:
        return value  # type: ignore[return-value]
    if t is LolType.NUMBR:
        try:
            return str(value)
        except ValueError:  # past CPython's int-to-str digit limit
            raise LolRuntimeError(
                f"NUMBR of {value.bit_length()} bits is too large "  # type: ignore[union-attr]
                f"to format as a YARN"
            ) from None
    if t is LolType.NUMBAR:
        return f"{value:.2f}"
    if t is LolType.TROOF:
        return "WIN" if value else "FAIL"
    return ""  # NOOB explicitly cast


def to_troof(value: object) -> bool:
    if type(value) is bool:
        return value
    t = type_of(value)
    if t is LolType.TROOF:
        return bool(value)
    if t is LolType.NUMBR:
        return value != 0
    if t is LolType.NUMBAR:
        return value != 0.0
    if t is LolType.YARN:
        return value != ""
    return False  # NOOB


def to_numbr(value: object, pos: SourcePos | None = None) -> int:
    t = type_of(value)
    if t is LolType.NUMBR:
        return int(value)  # type: ignore[arg-type]
    if t is LolType.NUMBAR:
        return int(value)  # truncate toward zero  # type: ignore[arg-type]
    if t is LolType.TROOF:
        return 1 if value else 0
    if t is LolType.YARN:
        try:
            return int(str(value).strip())
        except ValueError as exc:
            raise LolTypeError(
                f"cannot cast YARN {value!r} to NUMBR", pos
            ) from exc
    return 0  # NOOB explicitly cast


def to_array_size(value: object, pos: SourcePos | None = None) -> int:
    """Array extents, unlike general NUMBR casts, must be *integral*:
    truncating ``2.9`` to 2 elements silently shrinks the allocation
    (and, for symmetric data, would let executors disagree on the heap
    layout).  Shared by both interpreter engines and the pool-executor
    planner so every path rejects identically."""
    if isinstance(value, float) and not value.is_integer():
        raise LolRuntimeError(
            f"array size must be an integer, got {value!r}", pos
        )
    return to_numbr(value, pos)


def to_numbar(value: object, pos: SourcePos | None = None) -> float:
    t = type_of(value)
    if t is LolType.NUMBAR:
        return float(value)  # type: ignore[arg-type]
    if t is LolType.NUMBR:
        return float(value)  # type: ignore[arg-type]
    if t is LolType.TROOF:
        return 1.0 if value else 0.0
    if t is LolType.YARN:
        try:
            return float(str(value).strip())
        except ValueError as exc:
            raise LolTypeError(
                f"cannot cast YARN {value!r} to NUMBAR", pos
            ) from exc
    return 0.0  # NOOB explicitly cast


def cast(value: object, to_type: LolType, pos: SourcePos | None = None) -> object:
    """Explicit cast (``MAEK`` / ``IS NOW A``)."""
    if to_type is LolType.NOOB:
        return None
    if to_type is LolType.TROOF:
        return to_troof(value)
    if to_type is LolType.NUMBR:
        return to_numbr(value, pos)
    if to_type is LolType.NUMBAR:
        return to_numbar(value, pos)
    if to_type is LolType.YARN:
        return format_yarn(value)
    raise LolTypeError(f"cannot cast to {to_type}", pos)


def coerce_static(
    value: object, declared: LolType, name: str, pos: SourcePos | None = None
) -> object:
    """Coerce an assignment into a statically typed variable.

    The paper's ``ITZ SRSLY A <type>`` extension makes a variable
    statically typed "as a transition to a compiled language".  We allow
    exactly the implicit conversions a C compiler would perform for the
    numeric types (NUMBR <-> NUMBAR, TROOF -> NUMBR) and reject everything
    else with a type error — stricter than dynamic LOLCODE, by design.
    """
    t = type(value)
    if (t is int and declared is LolType.NUMBR) or (
        t is float and declared is LolType.NUMBAR
    ):
        return value
    vt = type_of(value)
    if vt is declared:
        return value
    if declared is LolType.NUMBAR and vt in (LolType.NUMBR, LolType.TROOF):
        return to_numbar(value, pos)
    if declared is LolType.NUMBR and vt in (LolType.NUMBAR, LolType.TROOF):
        return to_numbr(value, pos)
    if declared is LolType.TROOF and vt in (LolType.NUMBR, LolType.NUMBAR):
        return to_troof(value)
    raise LolTypeError(
        f"cannot assign {vt} value to '{name}' statically typed as {declared}",
        pos,
    )


def parse_type(name: str, pos: SourcePos | None = None) -> LolType:
    try:
        return LolType(name)
    except ValueError as exc:
        raise LolTypeError(f"unknown type {name!r}", pos) from exc


def numeric_result_type(a: LolType, b: LolType) -> LolType:
    """Result type of an arithmetic op: NUMBAR if either side is NUMBAR."""
    if LolType.NUMBAR in (a, b):
        return LolType.NUMBAR
    return LolType.NUMBR
