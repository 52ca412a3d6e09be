"""Operation tracing for the SHMEM runtime.

Every remote memory operation, barrier, and lock operation can be recorded
into a per-PE :class:`OpTrace`.  Traces are the bridge between the
functional simulation and the NoC performance model (:mod:`repro.noc`):
benchmarks execute a program once on the Python runtime, then replay the
trace against a machine model (Epiphany-III, Cray XC40) to obtain modeled
execution times — this is how we substitute for the paper's hardware.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional


class OpKind(enum.Enum):
    PUT = "put"
    GET = "get"
    BARRIER = "barrier"
    LOCK = "lock"
    TRYLOCK = "trylock"
    UNLOCK = "unlock"
    ATOMIC = "atomic"
    BCAST = "broadcast"
    REDUCE = "reduce"
    LOCAL_READ = "local_read"
    LOCAL_WRITE = "local_write"


@dataclass(frozen=True, slots=True)
class OpEvent:
    """One runtime event, as observed from the initiating PE."""

    kind: OpKind
    src_pe: int
    dst_pe: int  # -1 for collectives
    nbytes: int = 0
    symbol: str = ""
    epoch: int = 0  # barrier epoch at which the op occurred


@dataclass
class OpTrace:
    """A per-PE trace of runtime events plus cheap aggregate counters."""

    pe: int
    events: list[OpEvent] = field(default_factory=list)

    # aggregate counters
    counts: Counter = field(default_factory=Counter)
    remote_bytes_put: int = 0
    remote_bytes_got: int = 0
    local_flops: int = 0

    def record(self, event: OpEvent) -> None:
        self.counts[event.kind] += 1
        if event.kind is OpKind.PUT and event.dst_pe != event.src_pe:
            self.remote_bytes_put += event.nbytes
        elif event.kind is OpKind.GET and event.dst_pe != event.src_pe:
            self.remote_bytes_got += event.nbytes
        self.events.append(event)

    def add_flops(self, n: int) -> None:
        self.local_flops += n

    def barrier_count(self) -> int:
        return self.counts[OpKind.BARRIER]


@dataclass
class WorldTrace:
    """Merged traces from every PE of a finished SPMD run."""

    per_pe: list[OpTrace]

    @property
    def n_pes(self) -> int:
        return len(self.per_pe)

    def all_events(self) -> Iterable[OpEvent]:
        for t in self.per_pe:
            yield from t.events

    def total(self, kind: OpKind) -> int:
        return sum(t.counts[kind] for t in self.per_pe)

    def total_remote_bytes(self) -> int:
        return sum(t.remote_bytes_put + t.remote_bytes_got for t in self.per_pe)

    def total_flops(self) -> int:
        return sum(t.local_flops for t in self.per_pe)

    def summary(self) -> dict[str, object]:
        return {
            "n_pes": self.n_pes,
            "puts": self.total(OpKind.PUT),
            "gets": self.total(OpKind.GET),
            "barriers": self.total(OpKind.BARRIER),
            "locks": self.total(OpKind.LOCK) + self.total(OpKind.TRYLOCK),
            "remote_bytes": self.total_remote_bytes(),
            "flops": self.total_flops(),
        }


def merge_traces(traces: list[Optional[OpTrace]]) -> WorldTrace:
    return WorldTrace([t for t in traces if t is not None])
