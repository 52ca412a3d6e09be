"""A barrier-epoch data-race detector for the PGAS runtime.

Figure 2 of the paper motivates barriers by showing that, without ``HUGZ``,
a fast PE can read its copy of ``b`` before the remote PE's put has
landed.  This module detects exactly that class of bug.

The detector uses barrier epochs as the happens-before relation (the only
global synchronisation in the language is ``HUGZ``, so two accesses to the
same symbol's partition are concurrent iff they fall in the same epoch and
are issued by different PEs).  For every (symbol, owner-PE) partition we
remember the accesses of the current epoch; a race is reported when two
different PEs touch the same partition within one epoch and at least one
access is a write, unless both accesses were protected by the symbol's
implied lock (``IM SHARIN IT``).

This is intentionally symbol-granular (not element-granular): the paper's
teaching examples share whole variables/arrays, and symbol granularity
keeps the detector overhead tiny.  Element-granular detection can be
enabled for arrays via ``element_granularity=True``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class RaceReport:
    symbol: str
    owner_pe: int
    epoch: int
    first_pe: int
    first_kind: str  # "read" | "write"
    second_pe: int
    second_kind: str

    def describe(self) -> str:
        return (
            f"data race on '{self.symbol}' (partition of PE {self.owner_pe}, "
            f"barrier epoch {self.epoch}): PE {self.first_pe} {self.first_kind} "
            f"concurrently with PE {self.second_pe} {self.second_kind}; "
            f"add HUGZ or protect with IM SRSLY MESIN WIF"
        )


@dataclass(slots=True)
class _Access:
    pe: int
    kind: str
    locked: bool
    element: object  # index or None for whole-symbol access


@dataclass
class _PartitionState:
    """Accesses of the current epoch, deduplicated by
    (pe, kind, locked, element): repeated identical accesses add no new
    happens-before information, and deduplication keeps ``on_access``
    O(distinct access classes) instead of O(total accesses) — essential
    for loops like the n-body force phase that touch a partition
    thousands of times per epoch."""

    epoch: int = -1
    accesses: dict[tuple, _Access] = field(default_factory=dict)


class RaceDetector:
    """Tracks accesses to symmetric partitions and reports epoch races."""

    def __init__(self, element_granularity: bool = False) -> None:
        self.element_granularity = element_granularity
        self._partitions: dict[tuple[str, int], _PartitionState] = {}
        self._reports: list[RaceReport] = []
        self._seen: set[tuple] = set()
        self._mutex = threading.Lock()

    # -- runtime hooks ----------------------------------------------------

    def on_access(
        self,
        symbol: str,
        owner_pe: int,
        acting_pe: int,
        kind: str,
        epoch: int,
        *,
        locked: bool = False,
        element: object = None,
    ) -> None:
        if not self.element_granularity:
            element = None
        with self._mutex:
            state = self._partitions.setdefault(
                (symbol, owner_pe), _PartitionState()
            )
            if state.epoch != epoch:
                state.epoch = epoch
                state.accesses.clear()
            access_key = (acting_pe, kind, locked, element)
            if access_key in state.accesses:
                return  # identical access already recorded this epoch
            new = _Access(acting_pe, kind, locked, element)
            for prev in state.accesses.values():
                if prev.pe == acting_pe:
                    continue
                if prev.kind == "read" and kind == "read":
                    continue
                if prev.locked and locked:
                    continue  # both inside the implied lock: ordered
                if (
                    self.element_granularity
                    and prev.element is not None
                    and element is not None
                    and prev.element != element
                ):
                    continue
                key = (symbol, owner_pe, epoch, prev.pe, acting_pe)
                if key in self._seen:
                    continue
                self._seen.add(key)
                self._reports.append(
                    RaceReport(
                        symbol,
                        owner_pe,
                        epoch,
                        prev.pe,
                        prev.kind,
                        acting_pe,
                        kind,
                    )
                )
            state.accesses[access_key] = new

    # -- results ------------------------------------------------------------

    @property
    def reports(self) -> list[RaceReport]:
        with self._mutex:
            return list(self._reports)

    def clear(self) -> None:
        with self._mutex:
            self._partitions.clear()
            self._reports.clear()
            self._seen.clear()
