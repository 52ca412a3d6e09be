"""Central metrics registry: counters, gauges, and histograms.

Every ad-hoc counter in the tree (the VM's ``sym_misses``/``vec_runs``,
the native builder's ``corrupt_rebuilds``, the pool's respawn counts,
the scheduler's shed/retry totals, the fault plane's arrival/fire maps)
feeds one process-wide :class:`MetricsRegistry`, so ``lolserve stats``
and the Prometheus ``metrics`` op read the same numbers instead of
hand-assembled copies that can drift.

Design constraints, in order:

* **leaf module** — imports nothing from :mod:`repro` (everything else
  imports *it*), so instrumentation can live in the VM, the SHMEM
  runtimes, the compiler and the service without cycles;
* **cross-process mergeable** — :meth:`MetricsRegistry.snapshot` (with
  ``reset=True`` it is a *drain*) produces a picklable delta a pool
  worker ships to its parent over the existing reply pipes, and
  :meth:`MetricsRegistry.merge` folds it in (counters add, histogram
  buckets add, gauges overwrite);
* **Prometheus-exportable** — :func:`render_prometheus` emits the text
  exposition format (``# HELP``/``# TYPE``, ``_bucket``/``_sum``/
  ``_count`` histogram series, ``le="+Inf"``), checked by
  :mod:`repro.obs.promcheck`.

Histograms keep a bounded reservoir of raw samples next to their
cumulative buckets so :func:`percentile` (the shared p50/p99 helper)
works on exact values, not bucket interpolation.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``samples``.

    Shared latency helper for histogram summaries.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    return float(np.percentile(list(samples), q))


#: Default histogram buckets (seconds) — spans micro-barriers to jobs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Raw samples retained per histogram series for exact percentiles.
SAMPLE_CAP = 4096

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Base: one named family of label-keyed series."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._series: Dict[_LabelKey, object] = {}

    def reset(self) -> None:
        """Drop every series (test isolation; drains use snapshot(reset))."""
        with self._lock:
            self._series.clear()


class Counter(Metric):
    """Monotonic counter.  Name should end in ``_total``."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return sum(self._series.values())


class Gauge(Metric):
    """Point-in-time value (queue depth, live workers)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._series[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)


class _HistSeries:
    """One label combination's cumulative state."""

    __slots__ = ("bucket_counts", "sum", "count", "samples")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets  # non-cumulative, per bucket
        self.sum = 0.0
        self.count = 0
        self.samples: List[float] = []


class Histogram(Metric):
    """Cumulative-bucket histogram plus a bounded sample reservoir.

    The buckets feed the Prometheus exposition; the reservoir feeds
    exact p50/p99 summaries (``lolserve stats``, ``lolbench`` rows).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, lock)
        self.buckets = tuple(sorted(buckets))

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistSeries(len(self.buckets) + 1)
                self._series[key] = series
            idx = len(self.buckets)  # +Inf slot
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    idx = i
                    break
            series.bucket_counts[idx] += 1
            series.sum += value
            series.count += 1
            if len(series.samples) < SAMPLE_CAP:
                series.samples.append(value)

    def summary(self, **labels: str) -> Optional[dict]:
        """count/sum/p50/p99 for one label combination (None if empty)."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or series.count == 0:
                return None
            samples = series.samples
        return {
            "count": series.count,
            "sum_s": round(series.sum, 6),
            "p50_s": round(percentile(samples, 50), 6),
            "p99_s": round(percentile(samples, 99), 6),
        }

    def merged_summary(self) -> Optional[dict]:
        """Summary pooled across every label combination."""
        with self._lock:
            samples: List[float] = []
            count = 0
            total = 0.0
            for series in self._series.values():
                samples.extend(series.samples)
                count += series.count
                total += series.sum
        if not samples:
            return None
        return {
            "count": count,
            "sum_s": round(total, 6),
            "p50_s": round(percentile(samples, 50), 6),
            "p99_s": round(percentile(samples, 99), 6),
        }


class MetricsRegistry:
    """Thread-safe collection of metrics plus snapshot/merge plumbing.

    ``register_collector`` hooks lazily-evaluated sources (compile-cache
    ``cache_info()``, pool worker liveness, fault-plane counters): each
    callback runs just before a snapshot or render and typically sets
    gauges.  Collector errors are swallowed — observability must never
    take down the thing it observes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Callable[[], None]] = []

    # -- metric construction (get-or-create, idempotent) --------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, help, Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, help, Gauge)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Histogram(name, help, threading.Lock(), buckets)
                self._metrics[name] = metric
            elif not isinstance(metric, Histogram):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def _get_or_create(self, name: str, help: str, cls) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, threading.Lock())
                self._metrics[name] = metric
            elif type(metric) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[Metric]:
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.name)

    # -- collectors ----------------------------------------------------------

    def register_collector(self, fn: Callable[[], None]) -> None:
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    def run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            try:
                fn()
            except Exception:  # noqa: BLE001 - observers must not crash us
                pass

    # -- snapshot / merge (the cross-process wire format) --------------------

    def snapshot(self, *, reset: bool = False, collect: bool = True) -> dict:
        """Picklable state dump.  ``reset=True`` drains: the caller gets
        the delta since the previous drain and the registry restarts at
        zero — the pool-worker reply protocol, which lets the parent
        ``merge`` per-job deltas without double counting."""
        if collect:
            self.run_collectors()
        out: dict = {}
        for metric in self.metrics():
            with metric._lock:
                if isinstance(metric, Histogram):
                    series = {
                        json.dumps(key): {
                            "buckets": list(s.bucket_counts),
                            "sum": s.sum,
                            "count": s.count,
                            "samples": list(s.samples),
                        }
                        for key, s in metric._series.items()
                    }
                    out[metric.name] = {
                        "type": "histogram",
                        "help": metric.help,
                        "bounds": list(metric.buckets),
                        "series": series,
                    }
                else:
                    out[metric.name] = {
                        "type": metric.kind,
                        "help": metric.help,
                        "series": {
                            json.dumps(key): v
                            for key, v in metric._series.items()
                        },
                    }
                if reset:
                    metric._series.clear()
        return out

    def merge(self, snapshot: Mapping) -> None:
        """Fold a worker's drained snapshot in: counters and histogram
        buckets/samples add; gauges overwrite (point-in-time wins)."""
        for name, payload in snapshot.items():
            kind = payload.get("type", "counter")
            if kind == "histogram":
                metric = self.histogram(
                    name, payload.get("help", ""),
                    tuple(payload.get("bounds", DEFAULT_BUCKETS)),
                )
                with metric._lock:
                    for raw_key, state in payload.get("series", {}).items():
                        key = tuple(tuple(kv) for kv in json.loads(raw_key))
                        series = metric._series.get(key)
                        if series is None:
                            series = _HistSeries(len(metric.buckets) + 1)
                            metric._series[key] = series
                        counts = state.get("buckets", [])
                        for i, n in enumerate(counts[: len(series.bucket_counts)]):
                            series.bucket_counts[i] += n
                        series.sum += state.get("sum", 0.0)
                        series.count += state.get("count", 0)
                        room = SAMPLE_CAP - len(series.samples)
                        if room > 0:
                            series.samples.extend(state.get("samples", [])[:room])
            elif kind == "gauge":
                metric = self.gauge(name, payload.get("help", ""))
                with metric._lock:
                    for raw_key, value in payload.get("series", {}).items():
                        key = tuple(tuple(kv) for kv in json.loads(raw_key))
                        metric._series[key] = value
            else:
                metric = self.counter(name, payload.get("help", ""))
                with metric._lock:
                    for raw_key, value in payload.get("series", {}).items():
                        key = tuple(tuple(kv) for kv in json.loads(raw_key))
                        metric._series[key] = metric._series.get(key, 0) + value

    def reset(self) -> None:
        """Zero every metric, keep registrations (test isolation)."""
        for metric in self.metrics():
            metric.reset()


def diff_snapshots(before: Mapping, after: Mapping) -> dict:
    """Per-metric delta between two (non-reset) snapshots.

    Counters and histogram counts subtract; histogram ``samples`` are
    the tail added after ``before`` (exact as long as the reservoir did
    not fill); gauges pass through ``after``.  This is how ``lolbench``
    attributes one cell's comm/barrier activity without draining the
    registry out from under concurrent readers.
    """
    out: dict = {}
    for name, payload in after.items():
        prev = before.get(name, {})
        prev_series = prev.get("series", {})
        kind = payload.get("type", "counter")
        if kind == "histogram":
            series = {}
            for raw_key, state in payload.get("series", {}).items():
                prev_state = prev_series.get(raw_key, {})
                prev_count = prev_state.get("count", 0)
                prev_buckets = prev_state.get("buckets", [])
                buckets = [
                    n - (prev_buckets[i] if i < len(prev_buckets) else 0)
                    for i, n in enumerate(state.get("buckets", []))
                ]
                delta = {
                    "buckets": buckets,
                    "sum": state.get("sum", 0.0) - prev_state.get("sum", 0.0),
                    "count": state.get("count", 0) - prev_count,
                    "samples": state.get("samples", [])[prev_count:],
                }
                if delta["count"]:
                    series[raw_key] = delta
            if series:
                out[name] = {**payload, "series": series}
        elif kind == "gauge":
            out[name] = payload
        else:
            series = {
                raw_key: value - prev_series.get(raw_key, 0)
                for raw_key, value in payload.get("series", {}).items()
                if value != prev_series.get(raw_key, 0)
            }
            if series:
                out[name] = {**payload, "series": series}
    return out


# -- Prometheus text exposition ---------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(key: _LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs = pairs + [extra]
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _fmt_bound(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else _fmt_value(float(bound))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    registry.run_collectors()
    lines: List[str] = []
    for metric in registry.metrics():
        help_text = (metric.help or metric.name).replace("\n", " ")
        lines.append(f"# HELP {metric.name} {help_text}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        with metric._lock:
            if isinstance(metric, Histogram):
                for key in sorted(metric._series):
                    series = metric._series[key]
                    cumulative = 0
                    for bound, n in zip(
                        list(metric.buckets) + [float("inf")],
                        series.bucket_counts,
                    ):
                        cumulative += n
                        labels = _fmt_labels(key, ("le", _fmt_bound(bound)))
                        lines.append(
                            f"{metric.name}_bucket{labels} {cumulative}"
                        )
                    lines.append(
                        f"{metric.name}_sum{_fmt_labels(key)} "
                        f"{_fmt_value(series.sum)}"
                    )
                    lines.append(
                        f"{metric.name}_count{_fmt_labels(key)} {series.count}"
                    )
            else:
                if not metric._series:
                    # An empty family still exposes a zero sample so the
                    # catalog is visible before the first event.
                    lines.append(f"{metric.name} 0")
                for key in sorted(metric._series):
                    lines.append(
                        f"{metric.name}{_fmt_labels(key)} "
                        f"{_fmt_value(metric._series[key])}"
                    )
    return "\n".join(lines) + "\n"


# -- the process-wide default registry --------------------------------------

_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented layer feeds."""
    return _registry


def reset_registry() -> None:
    """Zero all metrics in the default registry (test isolation)."""
    _registry.reset()
