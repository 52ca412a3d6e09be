"""Structured tracing: span records exported as Chrome trace-event JSON.

A :class:`Tracer` collects :dfn:`spans` — named, categorised intervals
with monotonic timestamps and parent IDs — per process.  Workers (pool
or process executor) :meth:`~Tracer.drain` their buffer into a
picklable payload that rides the existing reply pipes; the parent
merges it back via :meth:`~Tracer.absorb`, so one run yields one
merged timeline.
:meth:`~Tracer.export_chrome` writes the Chrome trace-event format
(``{"traceEvents": [...]}``), which opens directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.

Timestamps come from :func:`time.perf_counter` — CLOCK_MONOTONIC on
Linux, so values are comparable across processes on one machine and
worker spans nest correctly under the parent's root span.

Like :mod:`repro.obs.metrics` this is a leaf module: it imports nothing
from :mod:`repro`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Span categories, the taxonomy documented in docs/observability.md.
CAT_COMPILE = "compile"   # parse, closure/vm compile, per-engine
CAT_BUILD = "build"       # native cc/link, cache probes
CAT_LAUNCH = "launch"     # run_lolcode orchestration root
CAT_RUN = "run"           # one PE's program execution
CAT_COMM = "comm"         # barrier / put / get
CAT_POOL = "pool"         # job send / reply over worker pipes
CAT_SCHED = "sched"       # queued -> dispatch -> done

#: Hard cap on buffered spans per process; beyond it spans are counted
#: as dropped rather than grown without bound.
MAX_SPANS = 200_000


class Tracer:
    """Per-process span buffer with thread-local parent stacks."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.pid = os.getpid()
        self.max_spans = max_spans
        self.dropped = 0
        self._spans: List[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._tls = threading.local()

    # -- parent bookkeeping --------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def current_parent(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- recording -----------------------------------------------------------

    def _append(self, span: dict) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span)

    def complete(
        self,
        cat: str,
        name: str,
        ts: float,
        dur: float,
        *,
        tid: Optional[str] = None,
        parent: Optional[int] = None,
        args: Optional[dict] = None,
    ) -> int:
        """Record an already-measured interval (the hot-site form: the
        caller reads ``perf_counter`` itself, so the disarmed path pays
        nothing and the armed path pays one method call)."""
        sid = next(self._ids)
        self._append(
            {
                "sid": sid,
                "parent": parent if parent is not None else self.current_parent(),
                "cat": cat,
                "name": name,
                "ts": ts,
                "dur": dur,
                "pid": self.pid,
                "tid": tid if tid is not None else threading.current_thread().name,
                "args": args or {},
            }
        )
        return sid

    def instant(
        self,
        cat: str,
        name: str,
        *,
        tid: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> int:
        """Zero-duration marker (queue events, fault fires)."""
        sid = next(self._ids)
        self._append(
            {
                "sid": sid,
                "parent": self.current_parent(),
                "cat": cat,
                "name": name,
                "ts": time.perf_counter(),
                "dur": 0.0,
                "pid": self.pid,
                "tid": tid if tid is not None else threading.current_thread().name,
                "args": args or {},
                "ph": "i",
            }
        )
        return sid

    @contextmanager
    def span(
        self,
        cat: str,
        name: str,
        *,
        tid: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> Iterator[int]:
        """Scoped span: children opened inside (same thread) get this
        span as their parent."""
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            self._append(
                {
                    "sid": sid,
                    "parent": parent,
                    "cat": cat,
                    "name": name,
                    "ts": t0,
                    "dur": dur,
                    "pid": self.pid,
                    "tid": tid
                    if tid is not None
                    else threading.current_thread().name,
                    "args": args or {},
                }
            )

    # -- cross-process merge --------------------------------------------------

    def spans(self) -> List[dict]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> dict:
        """Worker side: hand over buffered spans and reset, so repeated
        jobs on a warm worker never re-send old spans."""
        with self._lock:
            spans, self._spans = self._spans, []
            dropped, self.dropped = self.dropped, 0
        return {"pid": self.pid, "spans": spans, "dropped": dropped}

    def absorb(self, payload: dict) -> None:
        """Parent side: fold a worker's drained spans into this buffer.

        Span IDs are renumbered into this tracer's sequence (parent
        links inside the payload are remapped) so merged timelines never
        collide; the originating pid is preserved on each span.
        """
        spans = payload.get("spans") or []
        remap: Dict[int, int] = {}
        for span in spans:
            remap[span["sid"]] = next(self._ids)
        with self._lock:
            self.dropped += payload.get("dropped", 0)
            for span in spans:
                span = dict(span)
                span["sid"] = remap[span["sid"]]
                old_parent = span.get("parent")
                span["parent"] = remap.get(old_parent)
                if len(self._spans) >= self.max_spans:
                    self.dropped += 1
                    continue
                self._spans.append(span)

    # -- export ----------------------------------------------------------------

    def export_chrome(self) -> dict:
        """Chrome trace-event JSON (the object form, Perfetto-loadable)."""
        events: List[dict] = []
        names: Dict[int, str] = {}
        threads: Dict[tuple, str] = {}
        for span in self.spans():
            pid = span.get("pid", self.pid)
            tid = str(span.get("tid", "main"))
            names.setdefault(pid, "repro" if pid == self.pid else f"worker-{pid}")
            threads.setdefault((pid, tid), tid)
            event = {
                "name": span["name"],
                "cat": span["cat"],
                "ph": span.get("ph", "X"),
                "ts": round(span["ts"] * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": dict(span.get("args") or {}, sid=span["sid"]),
            }
            if span.get("parent") is not None:
                event["args"]["parent"] = span["parent"]
            if event["ph"] == "X":
                event["dur"] = round(span["dur"] * 1e6, 3)
            else:
                event["s"] = "t"
            events.append(event)
        for pid, label in names.items():
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": "0",
                    "args": {"name": label},
                }
            )
        for (pid, tid), label in threads.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
        events.sort(key=lambda e: (e.get("ts", -1), e["pid"], str(e["tid"])))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.export_chrome(), indent=indent)

    def summary(self) -> dict:
        """Per-category span counts and total recorded time."""
        by_cat: Dict[str, dict] = {}
        for span in self.spans():
            entry = by_cat.setdefault(span["cat"], {"spans": 0, "total_s": 0.0})
            entry["spans"] += 1
            entry["total_s"] += span["dur"]
        for entry in by_cat.values():
            entry["total_s"] = round(entry["total_s"], 6)
        return {
            "spans": len(self._spans),
            "dropped": self.dropped,
            "by_cat": dict(sorted(by_cat.items())),
        }
