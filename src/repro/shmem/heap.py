"""Symmetric heap for the PGAS runtime (paper Figure 1).

The partitioned global address space is modelled exactly as the paper
draws it: every PE owns a partition holding *the same set of symbols*
(symmetric allocation), and any PE may address any partition's copy of a
symbol once that symbol has been allocated collectively.

Two storage classes exist, mirroring OpenSHMEM:

* :class:`ScalarCell` — a single symmetric variable
  (``WE HAS A x ITZ SRSLY A NUMBR``);
* :class:`ArrayCell` — a fixed-size symmetric array backed by a numpy
  array for the numeric types
  (``WE HAS A a ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32``).

The heap itself is executor-agnostic: the thread runtime instantiates it
directly in shared memory of the Python process, while the process runtime
provides numpy views onto ``multiprocessing.shared_memory`` segments with
the same interface.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

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
    lol_type: Optional[LolType]
    is_array: bool
    size: int
    has_lock: bool
    per_pe: list  # list[ScalarCell | ArrayCell], indexed by PE

    def cell(self, pe: int):
        return self.per_pe[pe]


class SymmetricHeap:
    """The collective symmetric heap shared by all PEs of a world.

    ``alloc`` is an SPMD-collective operation: every PE executes the same
    ``WE HAS A`` declaration; the first arrival materialises storage for
    *all* PEs and later arrivals attach to it (this mirrors how symmetric
    allocation works on real SHMEM implementations, where the symmetric
    heap offsets line up because every PE performs the same allocation
    sequence).
    """

    def __init__(self, n_pes: int) -> None:
        self.n_pes = n_pes
        self._symbols: dict[str, SymmetricObject] = {}
        self._mutex = threading.Lock()
        #: monotonic generation counter, bumped whenever the symbol table
        #: gains an entry.  The VM engine's inline caches key on it: a
        #: cached cell handle is valid only while the generation matches.
        self.version = 0

    def alloc(
        self,
        name: str,
        lol_type: Optional[LolType],
        *,
        is_array: bool = False,
        size: int = 1,
        has_lock: bool = False,
    ) -> SymmetricObject:
        with self._mutex:
            existing = self._symbols.get(name)
            if existing is not None:
                if (
                    existing.lol_type != lol_type
                    or existing.is_array != is_array
                    or existing.size != size
                ):
                    raise LolParallelError(
                        f"symmetric symbol '{name}' re-declared with a "
                        f"different shape/type on another PE"
                    )
                existing.has_lock = existing.has_lock or has_lock
                return existing
            if is_array:
                if size <= 0:
                    raise LolParallelError(
                        f"symmetric array '{name}' must have positive size, "
                        f"got {size}"
                    )
                per_pe = [
                    ArrayCell(lol_type or LolType.NUMBAR, size)
                    for _ in range(self.n_pes)
                ]
            else:
                init = default_value(lol_type) if lol_type else None
                per_pe = [ScalarCell(init) for _ in range(self.n_pes)]
            obj = SymmetricObject(name, lol_type, is_array, size, has_lock, per_pe)
            self._symbols[name] = obj
            self.version += 1
            return obj

    def attach(self, name: str, obj: SymmetricObject) -> None:
        """Register a pre-built symbol (used by the pool executor)."""
        with self._mutex:
            self._symbols[name] = obj
            self.version += 1

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


@dataclass(slots=True)
class SymmetricPlan:
    """Pre-scanned symmetric allocation plan for the pool executor.

    A job's shared-memory segment must be laid out before it is sent to
    the pool's worker processes, so the launcher statically collects
    every ``WE HAS A`` in the program (the paper's model: "symmetric
    shared arrays and statically declared variables") and sizes the
    segments up front.
    """

    entries: dict[str, tuple[LolType, bool, int, bool]] = field(
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
        """Record one declaration; a redeclaration must match in type,
        array-ness and size, and its lock flag ORs in (as in
        :meth:`SymmetricHeap.alloc`)."""
        prev = self.entries.get(name)
        if prev is not None:
            if prev[:3] != (lol_type, is_array, size):
                raise LolParallelError(
                    f"conflicting symmetric declarations for '{name}'", pos
                )
            has_lock = has_lock or prev[3]
        self.entries[name] = (lol_type, is_array, size, has_lock)
