"""Symmetric heap for the PGAS runtime (paper Figure 1).

The partitioned global address space is modelled exactly as the paper
draws it: every PE owns a partition holding *the same set of symbols*
(symmetric allocation), and any PE may address any partition's copy of a
symbol.  The set is fixed before the PEs start: a
:class:`SymmetricPlan` lists every symbol, and each world builds its
heap from one.

Two storage classes exist, mirroring OpenSHMEM:

* :class:`ScalarCell` — a single symmetric variable
  (``WE HAS A x ITZ SRSLY A NUMBR``);
* :class:`ArrayCell` — a fixed-size symmetric array backed by a numpy
  array for the numeric types
  (``WE HAS A a ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32``).

The heap itself is executor-agnostic: the thread executor fills it with
cells in the memory of the Python process, while the pool's workers
provide numpy views onto a ``multiprocessing.shared_memory`` segment
with the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from ..lang.errors import LolParallelError, LolRuntimeError, SourcePos
from ..lang.types import NUMPY_DTYPES, LolType, default_value


def _out_of_range(value: object, lol_type: LolType) -> LolRuntimeError:
    """NUMBR arithmetic is unbounded, but numpy-backed storage is 64-bit:
    a value that does not fit is a typed runtime error on every engine."""
    return LolRuntimeError(
        f"value {value} does not fit in 64-bit {lol_type.name} storage"
    )


class ScalarCell:
    """One PE's copy of a symmetric scalar."""

    __slots__ = ("value",)

    def __init__(self, value: object = None) -> None:
        self.value = value

    def read(self) -> object:
        return self.value

    def write(self, value: object) -> None:
        self.value = value

    @property
    def nbytes(self) -> int:
        return 8


class NumpyScalarCell:
    """A scalar backed by a 1-element numpy array (pool executor)."""

    __slots__ = ("buf", "lol_type")

    def __init__(self, buf: np.ndarray, lol_type: LolType) -> None:
        assert buf.shape == (1,)
        self.buf = buf
        self.lol_type = lol_type

    def read(self) -> object:
        v = self.buf[0]
        if self.lol_type is LolType.NUMBR:
            return int(v)
        if self.lol_type is LolType.TROOF:
            return bool(v)
        return float(v)

    def write(self, value: object) -> None:
        try:
            self.buf[0] = value
        except OverflowError:
            raise _out_of_range(value, self.lol_type) from None

    @property
    def nbytes(self) -> int:
        return int(self.buf.nbytes)


class ArrayCell:
    """One PE's copy of a symmetric array.

    Numeric element types are stored in numpy arrays (contiguous, typed —
    the same layout the paper's C backend would produce); YARN/NOOB arrays
    fall back to Python lists and are only available on the thread
    executor.
    """

    __slots__ = ("data", "lol_type", "_conv")

    #: element-read converters back to host Python scalars, per type
    _CONVERTERS = {
        LolType.NUMBR: int,
        LolType.NUMBAR: float,
        LolType.TROOF: bool,
    }

    def __init__(self, lol_type: LolType, size: int, data=None) -> None:
        self.lol_type = lol_type
        self._conv = self._CONVERTERS.get(lol_type)
        if data is not None:
            self.data = data
        elif lol_type in NUMPY_DTYPES:
            self.data = np.zeros(size, dtype=NUMPY_DTYPES[lol_type])
        else:
            self.data = [default_value(lol_type)] * size

    def __len__(self) -> int:
        return len(self.data)

    def read(self, index: int) -> object:
        self._check(index)
        v = self.data[index]
        conv = self._conv
        return conv(v) if conv is not None else v

    def write(self, index: int, value: object) -> None:
        self._check(index)
        try:
            self.data[index] = value
        except OverflowError:
            raise _out_of_range(value, self.lol_type) from None

    def read_all(self):
        if isinstance(self.data, np.ndarray):
            return self.data.copy()
        return list(self.data)

    def write_all(self, values) -> None:
        if isinstance(self.data, np.ndarray):
            self.data[:] = values
        else:
            if len(values) != len(self.data):
                raise LolRuntimeError(
                    f"array length mismatch: {len(values)} vs {len(self.data)}"
                )
            self.data[:] = list(values)

    @property
    def nbytes(self) -> int:
        if isinstance(self.data, np.ndarray):
            return int(self.data.nbytes)
        return 8 * len(self.data)

    def _check(self, index: int) -> None:
        if type(index) is not int and not isinstance(index, (int, np.integer)):
            raise LolRuntimeError(f"array index must be a NUMBR, got {index!r}")
        if index < 0 or index >= len(self.data):
            raise LolRuntimeError(
                f"array index {index} out of range [0, {len(self.data)})"
            )


@dataclass
class SymmetricObject:
    """A symmetric symbol: the same declaration replicated on every PE."""

    name: str
    lol_type: LolType
    is_array: bool
    size: int
    per_pe: list  # list[ScalarCell | ArrayCell], indexed by PE

    def cell(self, pe: int):
        return self.per_pe[pe]


class SymmetricHeap:
    """The symmetric heap shared by all PEs of a world.

    Every object of ``plan`` is laid out for every PE before any PE
    runs (the paper's "symmetric shared arrays and statically declared
    variables"); ``WE HAS A`` only binds a name to storage that already
    exists, so the symbol table never changes during a run.
    ``cell(name, pe, lol_type, is_array, size)`` makes one PE's copy:
    by default a Python cell (:func:`python_cell`); the pool passes
    views onto its shared-memory segment.
    """

    def __init__(
        self,
        plan: SymmetricPlan,
        n_pes: int,
        cell: Optional[Callable[[str, int, LolType, bool, int], object]] = None,
    ) -> None:
        make = cell or python_cell
        self.n_pes = n_pes
        self._symbols: dict[str, SymmetricObject] = {
            name: SymmetricObject(
                name,
                lol_type,
                is_array,
                size,
                [make(name, pe, lol_type, is_array, size) for pe in range(n_pes)],
            )
            for name, (lol_type, is_array, size, _) in plan.entries.items()
        }

    def lookup(self, name: str) -> SymmetricObject:
        obj = self._symbols.get(name)
        if obj is None:
            raise LolParallelError(
                f"'{name}' is not a symmetric symbol (declare it with "
                f"'WE HAS A {name} ...')"
            )
        return obj

    def contains(self, name: str) -> bool:
        return name in self._symbols

    def symbols(self) -> list[str]:
        return sorted(self._symbols)

    def partition_nbytes(self, pe: int) -> int:
        """Total bytes held by one PE's partition (Figure 1 accounting)."""
        return sum(obj.cell(pe).nbytes for obj in self._symbols.values())


def python_cell(
    name: str, pe: int, lol_type: LolType, is_array: bool, size: int
) -> ScalarCell | ArrayCell:
    """One PE's copy of a symmetric object in this process's memory."""
    if is_array:
        return ArrayCell(lol_type, size)
    return ScalarCell(default_value(lol_type))


@dataclass(slots=True)
class SymmetricPlan:
    """Every symmetric object of a program, laid out before its PEs start.

    Every executor builds its world's :class:`SymmetricHeap` from a plan
    (OpenSHMEM's "symmetric shared arrays and statically declared
    variables"): the launcher plans a LOLCODE program with
    :func:`~repro.analysis.summary.symmetric_plan`, and Python SPMD
    workers declare their symbols by hand with :meth:`add`.
    """

    entries: Mapping[str, tuple[LolType, bool, int, bool]] = field(
        default_factory=dict
    )  # name -> (type, is_array, size, has_lock)

    def add(
        self,
        name: str,
        lol_type: LolType,
        is_array: bool,
        size: int,
        has_lock: bool,
        pos: Optional[SourcePos] = None,
    ) -> None:
        """Record one declaration.  An array needs at least 1 element; a
        redeclaration must match in type, array-ness and size, and its
        lock flag ORs in."""
        if is_array and size < 1:
            raise LolParallelError(
                f"symmetric array '{name}' needs at least 1 element, but "
                f"its size is {size}",
                pos,
            )
        prev = self.entries.get(name)
        if prev is not None:
            if prev[:3] != (lol_type, is_array, size):
                raise LolParallelError(
                    f"conflicting symmetric declarations for '{name}'", pos
                )
            has_lock = has_lock or prev[3]
        self.entries[name] = (lol_type, is_array, size, has_lock)

    def freeze(self) -> SymmetricPlan:
        """Make this plan read-only (a cached plan serves every launch of
        its program) and return it."""
        self.entries = MappingProxyType(self.entries)
        return self

    def lock_names(self) -> tuple[str, ...]:
        """The names declared ``AN IM SHARIN IT``, in name order."""
        return tuple(
            sorted(name for name, entry in self.entries.items() if entry[3])
        )

    def __reduce__(self):
        # A read-only view does not pickle; the pool ships plans to its
        # workers as plain dicts.
        return SymmetricPlan, (dict(self.entries),)
