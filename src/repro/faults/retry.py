"""Retry policy with exponential backoff and *deterministic* jitter.

The jitter draw is keyed by (seed, attempt) through the same
content-hash generator the fault plans use, so a retried run under a
seeded fault schedule replays with identical timing decisions — chaos
outcomes stay reproducible, which is the whole point of seeding them.

Retryability is a protocol, not a registry: an exception opts in by
carrying a truthy ``retryable`` class attribute.  The typed errors that
do — :class:`~repro.service.pool.WorkerCrashError`,
:class:`~repro.compiler.native.NativeBuildTransientError`,
:class:`~repro.faults.plan.InjectedFaultError`,
:class:`~repro.service.scheduler.QueueFullError` — all model failures
where a fresh attempt runs against fresh state (respawned workers, a
re-run compiler, a drained queue).  Program-level errors (a LOLCODE
exception, a failed checker) never carry the attribute: retrying a
deterministic program cannot change its answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plan import _det_unit


def is_retryable(exc: BaseException) -> bool:
    """True when a fresh attempt of the failed operation may succeed."""
    return bool(getattr(exc, "retryable", False))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: ``base * factor**(attempt-1)``,
    capped at ``max_backoff``, plus a deterministic jitter fraction."""

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def delay(self, attempt: int, seed: int = 0) -> float:
        """Backoff before the retry *after* 1-based ``attempt`` failed."""
        base = min(
            self.max_backoff,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        return base * (1.0 + self.jitter * _det_unit(seed, "retry", attempt))

    def describe(self) -> dict:
        """Wire/stats-friendly summary."""
        return {
            "max_attempts": self.max_attempts,
            "backoff_base_s": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "max_backoff_s": self.max_backoff,
            "jitter": self.jitter,
        }
