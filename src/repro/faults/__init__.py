"""Deterministic fault-injection plane + retry machinery.

Two halves, one goal — failures that are *survivable* and *replayable*:

* :mod:`repro.faults.plan` — seeded :class:`FaultPlan` schedules fired
  at named injection sites inside the pool, the native build pipeline,
  the server, and the scheduler (env-activatable via ``LOL_FAULTS`` so
  subprocesses arm themselves);
* :mod:`repro.faults.retry` — :class:`RetryPolicy` (exponential backoff
  with deterministic jitter) and the ``retryable``-attribute protocol
  :func:`is_retryable` classifies typed errors with.

See ``docs/robustness.md`` for the failure-model table and the chaos
suite (``tests/test_chaos.py``) for the sites exercised end to end.
"""

from .plan import (
    ENV_VAR,
    SITES,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    InjectedFaultError,
    activate,
    active_plan,
    deactivate,
    fault_stats,
    inject,
    plan_from_rules,
    reset_faults,
)
from .retry import RetryPolicy, is_retryable

__all__ = [
    "ENV_VAR",
    "SITES",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "InjectedFaultError",
    "activate",
    "active_plan",
    "deactivate",
    "fault_stats",
    "inject",
    "plan_from_rules",
    "reset_faults",
    "RetryPolicy",
    "is_retryable",
]
