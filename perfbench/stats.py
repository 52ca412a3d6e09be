"""Order statistics for the benchmark's reports."""

from __future__ import annotations

from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), interpolating linearly between
    the closest ranks (the ``numpy.percentile`` default)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50)


def normalized(records: Sequence[tuple], probes: Sequence[float]) -> list:
    """Scale each run to the reference host of ``perfbench.calibrate``.

    ``records`` are ``(latency or None, iteration wall, block)``; run
    ``block`` ran between the slowness probes ``probes[block]`` and
    ``probes[block + 1]``, and is divided by their mean.  Returns
    ``(latency or None, iteration wall)`` pairs for :func:`whole_loop`.
    """
    out = []
    for lat, wall, block in records:
        slow = (probes[block] + probes[block + 1]) / 2
        out.append((None if lat is None else lat / slow, wall / slow))
    return out


def whole_loop(records: Sequence[tuple]) -> dict:
    """p50, p90 and throughput over every run of the loop.

    ``records`` are ``(latency or None if the run failed, iteration
    wall)`` per attempted run; throughput counts verified runs per second
    of the whole loop.
    """
    ok = [lat for lat, _ in records if lat is not None]
    return {
        "run_p50_ms": median(ok) * 1e3 if ok else 0.0,
        "run_p90_ms": percentile(ok, 90) * 1e3 if ok else 0.0,
        "runs_per_s": len(ok) / sum(wall for _, wall in records),
    }
