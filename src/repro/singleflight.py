"""Single-flight guard for memoized compilation.

The compiled-program caches (:func:`repro.interp.compile_closures_cached`
and :func:`repro.interp.compile_vm_cached`) are ``lru_cache``-backed,
and ``lru_cache`` releases its internal lock *while the wrapped function
runs*: N threads asking for the same not-yet-cached key all compile, and
N-1 results are thrown away.  That was harmless when every caller was one
SPMD launch; it is not once the execution service accepts concurrent
submissions of the same source.

:class:`SingleFlight` serialises callers *per key*: the first caller
computes (populating the LRU underneath), later callers block on the same
key's lock and then hit the warm cache.  Distinct keys never contend, and
a failed computation is not cached — a blocked caller retries and sees
the same deterministic error.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, TypeVar

from . import obs as _obs

T = TypeVar("T")

#: Callers that found another computation of their key already in
#: flight — i.e. compiles the guard saved.  Registry-backed so the
#: Prometheus ``metrics`` op sees it next to the compile-cache gauges.
_M_CONTENDED = _obs.get_registry().counter(
    "lol_singleflight_contended_total",
    "Single-flight callers that piggybacked on an in-flight computation",
)


class SingleFlight:
    """Per-key in-flight guard around an (externally memoized) callable."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        #: key -> [per-key lock, number of callers holding a reference]
        self._inflight: dict[Hashable, list] = {}

    def guard(self, key: Hashable, fn: Callable[[], T]) -> T:
        """Run ``fn()`` with at most one concurrent execution per ``key``.

        ``fn`` must be idempotent and memoized (an LRU hit on re-entry):
        the guard guarantees *serialisation*, the memo guarantees the
        second caller reuses the first caller's result.
        """
        with self._mutex:
            entry = self._inflight.get(key)
            if entry is None:
                entry = [threading.Lock(), 0]
                self._inflight[key] = entry
            else:
                _M_CONTENDED.inc()
            entry[1] += 1
        try:
            with entry[0]:
                return fn()
        finally:
            with self._mutex:
                entry[1] -= 1
                if entry[1] == 0 and self._inflight.get(key) is entry:
                    del self._inflight[key]

    def inflight_keys(self) -> int:
        """Number of keys with callers currently in flight (for tests)."""
        with self._mutex:
            return len(self._inflight)


def single_flight(cached_fn: Callable[..., T]) -> Callable[..., T]:
    """Wrap an ``lru_cache``-decorated function in a single-flight guard.

    The wrapper forwards positional arguments only (matching how the
    compile caches are called) and re-exports ``cache_clear`` /
    ``cache_info`` from the underlying LRU so existing cache-management
    call sites keep working.
    """
    flight = SingleFlight()

    def wrapper(*args):
        return flight.guard(args, lambda: cached_fn(*args))

    wrapper.__name__ = getattr(cached_fn, "__name__", "cached")
    wrapper.__doc__ = cached_fn.__doc__
    wrapper.cache_clear = cached_fn.cache_clear
    wrapper.cache_info = cached_fn.cache_info
    wrapper.__wrapped__ = cached_fn
    wrapper._single_flight = flight
    return wrapper
