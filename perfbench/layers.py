"""Per-layer measurement for the traced pass: spans from wrappers that
the benchmark puts around public functions, plus counters the program's
``repro.obs`` registry already keeps.

The wrappers forward to the original functions unchanged and are
installed where each function is looked up at call time (the module or
class attribute), so no span lives inside the program.  A span opened on
a thread with no open span of its own (a PE thread, the server's worker
thread) becomes a child of the run's root span.

Self time of a span is its duration minus the union of its children's
intervals.  For coverage and layer shares, :func:`attribute` splits a
root's interval among the innermost spans open at each instant, so the
layers partition the run (see there for how barrier waits count).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    sid: int
    parent: Optional[int]
    root: int
    layer: str
    t0: float
    t1: float


class Recorder:
    """Collects spans in memory until the traced pass ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.code_lens: List[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Optional[int] = None

    @contextmanager
    def span(self, layer: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        if stack:
            parent, root = stack[-1]
        elif self._root is not None:
            parent = root = self._root
        else:
            parent, root = None, sid
            self._root = sid
        stack.append((sid, root))
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            if self._root == sid:
                self._root = None
            self.spans.append(Span(sid, parent, root, layer, t0, t1))

    def wrap(self, layer: str, fn: Callable, after: Optional[Callable] = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def take(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans


def code_len(program) -> int:
    """Instructions in a compiled VM program: main code plus functions."""
    return len(program.co.code) + sum(
        len(fn.co.code) for fn in program.hoisted.values()
    )


#: (module, attribute path, layer).  The attribute is patched where the
#: program looks it up at call time.
TARGETS = (
    ("repro.launcher", "run_lolcode", "launcher"),
    ("repro.lang.parser", "parse", "lang.parse"),
    ("repro.lang.checker", "check_program", "analysis.check"),
    ("repro.vm.compile", "compile_program_vm", "vm.compile"),
    ("repro.vm.isa", "VMProgram.run", "vm.run"),
    ("repro.shmem.api", "World.for_threads", "shmem.world"),
    ("repro.shmem.api", "ShmemContext.__init__", "shmem.ctx"),
    ("repro.shmem.api", "ShmemContext.barrier_all", "shmem.barrier"),
    ("repro.service.pool", "run_pooled", "pool.run"),
    ("repro.compiler.native", "build_native", "native.build"),
    ("repro.compiler.native", "run_native", "native.exec"),
    ("repro.workloads.base", "Workload.check", "workloads.check"),
)


@contextmanager
def patched(recorder: Recorder):
    """Install the wrappers for the duration of the block."""
    undo = []
    try:
        for module_name, path, layer in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = vars(owner)[attr]
            after = (
                (lambda prog: recorder.code_lens.append(code_len(prog)))
                if layer == "vm.compile"
                else None
            )
            if isinstance(original, classmethod):
                wrapped = classmethod(recorder.wrap(layer, original.__func__, after))
            else:
                wrapped = recorder.wrap(layer, original, after)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- span arithmetic ---------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _children(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = _children(spans)
    out = {}
    for s in spans:
        clipped = [
            (max(c.t0, s.t0), min(c.t1, s.t1))
            for c in kids.get(s.sid, ())
            if min(c.t1, s.t1) > max(c.t0, s.t0)
        ]
        out[s.sid] = (s.t1 - s.t0) - union_length(clipped)
    return out


#: Layers whose spans only wait for other PEs.
WAITING = frozenset({"shmem.barrier"})


def attribute(tree: List[Span], root: Span) -> Dict[str, float]:
    """Split ``root``'s interval among layers.

    Each instant goes to the innermost spans open at it, shared equally
    between them, except that a PE waiting in a barrier does no work:
    the instant goes to the other open spans.  PE threads are serialised
    by the GIL, so when every innermost span is a barrier wait the
    interpreter is running something else: the root, while it is still
    starting PE threads (before its last child span opens), and
    otherwise the barrier itself (the last arrival's notify, the waiters
    waking and taking the lock back, and in the traced pass the wait
    histogram), which keeps the instant.
    """
    starting = max((s.t0 for s in tree if s.parent == root.sid), default=root.t0)
    points = sorted(
        {root.t0, root.t1}
        | {p for s in tree for p in (s.t0, s.t1) if root.t0 < p < root.t1}
    )
    out: Dict[str, float] = defaultdict(float)
    for a, b in zip(points, points[1:]):
        active = [s for s in tree if s.t0 <= a and s.t1 >= b]
        parents = {s.parent for s in active}
        leaves = [s for s in active if s.sid not in parents]
        working = [s for s in leaves if s.layer not in WAITING]
        if not working:
            working = [root] if b <= starting else leaves
        for s in working:
            out[s.layer] += (b - a) / len(working)
    return out


# -- counters from the repro.obs registry -------------------------------------


def counter_series(delta: dict, metric: str, label: str) -> Dict[str, float]:
    """``{label value: count}`` of one counter in a snapshot delta."""
    series = delta.get(metric, {}).get("series", {})
    return {
        dict(json.loads(raw)).get(label, ""): value for raw, value in series.items()
    }


def counter_total(delta: dict, metric: str) -> float:
    """Sum of one counter over every label combination."""
    return sum(delta.get(metric, {}).get("series", {}).values())


def histogram_totals(delta: dict, metric: str) -> Tuple[int, float]:
    """(count, sum) of one histogram over every label combination."""
    series = delta.get(metric, {}).get("series", {})
    return (
        sum(state["count"] for state in series.values()),
        sum(state["sum"] for state in series.values()),
    )


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(
    spans: List[Span],
    *,
    runs: int,
    root_layer: str,
    walls: List[float],
    setup_spans: List[Span],
    code_lens: List[int],
    obs_delta: dict,
    parse_cache: Tuple[int, int],
    compile_cache: Tuple[int, int],
    native_delta: Dict[str, int],
    service: Optional[Dict[str, float]],
    groups: Dict[str, List[str]],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of one traced loop, plus each layer group's
    share of the timed calls' wall time.  ``trace.coverage_ratio`` is the
    share attributed to layers below the run's root span.

    ``walls`` are the timed calls measured outside the wrappers;
    ``parse_cache``/``compile_cache`` are (hits, misses) deltas.
    """
    selfs = self_times(spans)
    per_layer: Dict[str, float] = defaultdict(float)
    for s in spans:
        per_layer[s.layer] += selfs[s.sid]

    tree_of: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        tree_of[s.root].append(s)
    attributed: Dict[str, float] = defaultdict(float)
    for s in spans:
        if s.sid == s.root and s.layer == root_layer:
            for layer, t in attribute(tree_of[s.sid], s).items():
                attributed[layer] += t
    wall = sum(walls)
    # The root's residual (instants with no layer below it open) is what
    # the named layers leave unexplained.
    below_root = sum(t for layer, t in attributed.items() if layer != root_layer)

    def ms(layer: str) -> float:
        return per_layer.get(layer, 0.0) * 1e3 / runs

    vm = counter_series(obs_delta, "lol_vm_events_total", "event")
    comm = counter_series(obs_delta, "lol_comm_ops_total", "op")
    barriers, barrier_wait = histogram_totals(obs_delta, "lol_barrier_wait_seconds")
    reused = counter_total(obs_delta, "lol_pool_segments_reused_total")
    created = counter_total(obs_delta, "lol_pool_segments_created_total")
    builds = [s.t1 - s.t0 for s in setup_spans if s.layer == "native.build"]
    service = service or {}

    metrics = {
        "lang.parse_ms": ms("lang.parse"),
        "lang.parse_hit_ratio": ratio(parse_cache[0], sum(parse_cache)),
        "analysis.check_ms": ms("analysis.check"),
        "vm.compile_ms": ms("vm.compile"),
        "vm.compile_hit_ratio": ratio(compile_cache[0], sum(compile_cache)),
        "vm.code_len": ratio(sum(code_lens), len(code_lens)),
        "vm.run_ms": ms("vm.run"),
        "vm.vec_runs": vm.get("vec_runs", 0) / runs,
        "vm.vec_bails": vm.get("vec_bails", 0) / runs,
        "vm.sym_misses": vm.get("sym_misses", 0) / runs,
        "shmem.world_ms": ms("shmem.world"),
        "shmem.ctx_ms": ms("shmem.ctx"),
        "shmem.barriers": barriers / runs,
        "shmem.barrier_wait_ms": barrier_wait * 1e3 / runs,
        "shmem.gets": comm.get("get", 0) / runs,
        "shmem.puts": comm.get("put", 0) / runs,
        "shmem.comm_bytes": counter_total(obs_delta, "lol_comm_bytes_total") / runs,
        "launcher.self_ms": ms("launcher"),
        "service.rtt_ms": service.get("rtt_ms", 0.0),
        "service.queue_ms": service.get("queue_ms", 0.0),
        "service.overhead_ms": service.get("overhead_ms", 0.0),
        "pool.run_ms": ms("pool.run"),
        "pool.segment_reuse_ratio": ratio(reused, reused + created),
        "pool.workers_replaced": counter_total(
            obs_delta, "lol_pool_workers_replaced_total"
        ),
        "native.build_ms": ratio(sum(builds), len(builds)) * 1e3,
        "native.build_hit_ratio": ratio(
            native_delta.get("cache_hits", 0),
            native_delta.get("cache_hits", 0) + native_delta.get("builds", 0),
        ),
        "native.exec_ms": ms("native.exec"),
        "workloads.check_ms": ms("workloads.check"),
        "trace.coverage_ratio": ratio(below_root, wall),
    }
    shares = {
        group: ratio(sum(attributed.get(layer, 0.0) for layer in layers), wall)
        for group, layers in groups.items()
    }
    return metrics, shares
