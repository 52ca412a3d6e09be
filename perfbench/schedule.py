"""Seeded job lists for the benchmark workloads.

A workload's schedule is an endless run of cycles.  Each cycle is a
seeded permutation of the workload's fixed multiset of (kernel, params)
from ``spec.json``, so every cycle does the same work in a different
order.  ``serve_mix`` permutes each engine lane separately and
interleaves the lanes, so its jobs alternate between engines.
``edit_rerun`` draws every job's parameter binding without replacement
from per-kernel windows, so no source text repeats within a run.

Pure Python: nothing here imports ``repro``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

SPEC_PATH = Path(__file__).with_name("spec.json")

#: Share of runs whose VISIBLE output is later compared with the ``ast``
#: reference engine (the harness caps how many it replays; serve_mix
#: jobs are checked by the checker only).
REFERENCE_SHARE = 1 / 32


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


@dataclass(frozen=True)
class Job:
    """One run of a kernel: what the closed loop submits next."""

    index: int
    kernel: str
    params: Tuple[Tuple[str, int], ...]
    seed: int
    engine: str
    executor: str
    n_pes: int
    reference: bool


class ScheduleExhausted(Exception):
    """A kernel's binding windows have no unused binding left."""


class _Bindings:
    """Draws distinct bindings from the product of inclusive windows."""

    def __init__(self, vary: Dict[str, List[int]], rng: random.Random) -> None:
        self.names = sorted(vary)
        self.spans = [(vary[n][0], vary[n][1] - vary[n][0] + 1) for n in self.names]
        self.rng = rng
        self.order: Optional[List[int]] = None

    def __len__(self) -> int:
        return math.prod(size for _, size in self.spans)

    def draw(self) -> Tuple[Tuple[str, int], ...]:
        if self.order is None:
            # Reversed so pop() walks the seeded permutation front to back.
            self.order = self.rng.sample(range(len(self)), len(self))[::-1]
        if not self.order:
            raise ScheduleExhausted(f"binding windows {self.names} exhausted")
        code = self.order.pop()
        values = []
        for lo, size in self.spans:
            code, offset = divmod(code, size)
            values.append(lo + offset)
        return tuple(zip(self.names, values))


def cycle_length(spec: dict) -> int:
    return len(spec["kernels"]) * len(spec.get("lanes", [None]))


def jobs(name: str, seed: int, spec: Optional[dict] = None) -> Iterator[Job]:
    """The endless, deterministic job list of workload ``name``."""
    spec = spec if spec is not None else load_spec()["workloads"][name]
    rng = random.Random(f"{name}:{seed}")
    lanes = spec.get("lanes") or [
        {"engine": spec["engine"], "executor": spec["executor"]}
    ]
    kernels = spec["kernels"]
    bindings = {
        k["name"]: _Bindings(k["vary"], random.Random(f"{name}:{seed}:{k['name']}"))
        for k in kernels
        if "vary" in k
    }
    index = 0
    while True:
        orders = [rng.sample(kernels, len(kernels)) for _ in lanes]
        for slot in range(len(kernels)):
            for lane, order in zip(lanes, orders):
                kernel = order[slot]
                if kernel["name"] in bindings:
                    params = bindings[kernel["name"]].draw()
                else:
                    params = tuple(sorted(kernel.get("params", {}).items()))
                yield Job(
                    index=index,
                    kernel=kernel["name"],
                    params=params,
                    seed=rng.randrange(2**31),
                    engine=lane["engine"],
                    executor=lane["executor"],
                    n_pes=spec["n_pes"],
                    reference=rng.random() < REFERENCE_SHARE,
                )
                index += 1
