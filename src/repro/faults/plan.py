"""Deterministic fault-injection plans.

A :class:`FaultPlan` is a seeded, serializable schedule of failures to
inject at **named sites** threaded through the layers that can fail in
production — the warm worker pool, the native build pipeline, the
service server, and the scheduler's admission path.  Runs of this repo
are deterministic by construction (seeded RNG, bit-differential
engines), which is exactly what makes seeded chaos testing work:
replaying the same plan against the same workload reproduces the same
failure, the same recovery, and the same final outcome.

Sites (see ``docs/robustness.md`` for the full failure-model table):

=====================  =====================================================
site                   fires in / supported kinds
=====================  =====================================================
``pool.worker_spawn``  parent, per worker slot — ``fail``
``pool.job_send``      parent, per PE dispatch — ``kill``, ``drop``
``pool.reply``         *worker*, before its reply — ``kill``, ``delay``,
                       ``garbage``
``native.build``       builder, before invoking cc — ``fail``
``native.cache``       builder, on a warm binary hit — ``truncate``,
                       ``corrupt``
``native.worker``      launcher, per PE of a parked fork-server set before
                       dispatch — ``kill``
``server.conn``        server, after reading a request — ``drop``
``scheduler.enqueue``  scheduler, on submit — ``queue_full``
=====================  =====================================================

Activation is process-wide (:func:`activate` / :func:`deactivate`) and
**environment-propagated**: exporting the plan as ``LOL_FAULTS`` (JSON,
see :meth:`FaultPlan.to_json`) arms every later-spawned subprocess —
pool workers pick it up at import time, so worker-side sites
(``pool.reply``) fire inside the real worker process, exercising the
real recovery machinery rather than a simulation of it.

When no plan is active, :func:`inject` is a module-global ``None``
check — injection sites cost nothing in production.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from typing import Iterable, Optional

from ..lang.errors import LolError

#: Environment variable carrying a JSON-serialized plan into subprocesses.
ENV_VAR = "LOL_FAULTS"

#: Every registered injection site and the fault kinds it honours.
SITES: dict[str, tuple[str, ...]] = {
    "pool.worker_spawn": ("fail",),
    "pool.job_send": ("kill", "drop"),
    "pool.reply": ("kill", "delay", "garbage"),
    "native.build": ("fail",),
    "native.cache": ("truncate", "corrupt"),
    "native.worker": ("kill",),
    "server.conn": ("drop",),
    "scheduler.enqueue": ("queue_full",),
}


class FaultPlanError(LolError):
    """A malformed fault plan (unknown site/kind, bad JSON, ...)."""


class InjectedFaultError(LolError):
    """An injected fault surfaced directly as an error.

    Carries the site and kind so chaos tests (and operators reading
    logs) can tie the failure back to the plan that caused it.  Always
    classified retryable: an injected fault models a *transient*
    infrastructure failure.
    """

    retryable = True

    def __init__(self, rule: "FaultRule") -> None:
        self.site = rule.site
        self.kind = rule.kind
        detail = f" rank={rule.rank}" if rule.rank is not None else ""
        super().__init__(
            f"injected fault at site '{rule.site}' (kind '{rule.kind}'{detail})"
        )


def _det_unit(seed: int, site: str, n: int) -> float:
    """Deterministic uniform-[0,1) draw for arrival ``n`` at ``site``.

    Keyed by content (not by Python's randomized ``hash``), so the same
    plan replays identically across processes and interpreter runs.
    """
    digest = hashlib.blake2b(
        f"{seed}:{site}:{n}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class FaultRule:
    """One line of a plan: *where*, *what*, and *when* to fail.

    Selection is deterministic: a rule fires on specific ``hits``
    (1-based arrival indices at the site, counted per observing
    process), on specific pool ``jobs`` (the pool's monotonically
    increasing job counter — stable across worker respawns, unlike
    per-process arrival counts), with seeded probability ``p``, or
    always (no selector).  ``rank`` restricts to one PE/worker slot and
    ``times`` caps total fires.
    """

    site: str
    kind: str
    rank: Optional[int] = None
    hits: Optional[tuple[int, ...]] = None
    jobs: Optional[tuple[int, ...]] = None
    p: float = 0.0
    times: Optional[int] = None
    delay_s: float = 0.5

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r} "
                f"(choose from {sorted(SITES)})"
            )
        if self.kind not in SITES[self.site]:
            raise FaultPlanError(
                f"site {self.site!r} does not support kind {self.kind!r} "
                f"(supported: {SITES[self.site]})"
            )

    def to_dict(self) -> dict:
        out: dict = {"site": self.site, "kind": self.kind}
        if self.rank is not None:
            out["rank"] = self.rank
        if self.hits is not None:
            out["hits"] = list(self.hits)
        if self.jobs is not None:
            out["jobs"] = list(self.jobs)
        if self.p:
            out["p"] = self.p
        if self.times is not None:
            out["times"] = self.times
        if self.delay_s != 0.5:
            out["delay_s"] = self.delay_s
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultRule":
        if not isinstance(raw, dict):
            raise FaultPlanError(f"fault rule must be an object, got {raw!r}")
        known = {
            "site", "kind", "rank", "hits", "jobs", "p", "times", "delay_s"
        }
        unknown = set(raw) - known
        if unknown:
            raise FaultPlanError(f"unknown fault rule fields {sorted(unknown)}")
        try:
            return cls(
                site=raw["site"],
                kind=raw["kind"],
                rank=raw.get("rank"),
                hits=tuple(raw["hits"]) if raw.get("hits") else None,
                jobs=tuple(raw["jobs"]) if raw.get("jobs") else None,
                p=float(raw.get("p", 0.0)),
                times=raw.get("times"),
                delay_s=float(raw.get("delay_s", 0.5)),
            )
        except KeyError as exc:
            raise FaultPlanError(f"fault rule missing field {exc}") from None


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable set of :class:`FaultRule`\\ s."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "rules": [r.to_dict() for r in self.rules]}
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"bad fault plan JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        return cls(
            seed=int(raw.get("seed", 0)),
            rules=tuple(
                FaultRule.from_dict(r) for r in raw.get("rules", [])
            ),
        )

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        raw = os.environ.get(ENV_VAR)
        return cls.from_json(raw) if raw else None

    def env(self) -> dict[str, str]:
        """``{ENV_VAR: json}`` — merge into a subprocess environment."""
        return {ENV_VAR: self.to_json()}


# ---------------------------------------------------------------------------
# Process-wide activation + the hot-path ``inject`` check.
# ---------------------------------------------------------------------------

_plan: Optional[FaultPlan] = None
_lock = threading.Lock()
_arrivals: dict[str, int] = {}
_fires: dict[str, int] = {}
_rule_fires: dict[int, int] = {}


def activate(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide and reset all counters."""
    global _plan
    with _lock:
        _arrivals.clear()
        _fires.clear()
        _rule_fires.clear()
        _plan = plan


def deactivate() -> None:
    """Disarm fault injection (counters are kept for inspection)."""
    global _plan
    with _lock:
        _plan = None


def active_plan() -> Optional[FaultPlan]:
    return _plan


def reset_faults() -> None:
    """Disarm *and* clear all counters — back to the never-armed state
    (:func:`fault_stats` returns ``None`` again).  Test isolation."""
    global _plan
    with _lock:
        _plan = None
        _arrivals.clear()
        _fires.clear()
        _rule_fires.clear()


def fault_stats() -> Optional[dict]:
    """Arrival/fire counters while a plan is (or was) active.

    Returns ``None`` when injection has never been armed in this
    process — the shape ``lolserve stats`` forwards.
    """
    with _lock:
        if _plan is None and not _arrivals:
            return None
        return {
            "armed": _plan is not None,
            "arrivals": dict(_arrivals),
            "fires": dict(_fires),
        }


def inject(
    site: str,
    *,
    rank: Optional[int] = None,
    job: Optional[int] = None,
) -> Optional[FaultRule]:
    """Report one arrival at ``site``; return the rule to apply, if any.

    The no-plan path is a single global ``None`` check — sites are free
    when injection is disarmed.  With a plan active, the site's arrival
    counter increments once per call and each rule is matched against
    (site, rank, job, arrival index, seeded draw), first match wins.
    """
    plan = _plan
    if plan is None:
        return None
    with _lock:
        n = _arrivals.get(site, 0) + 1
        _arrivals[site] = n
        for idx, rule in enumerate(plan.rules):
            if rule.site != site:
                continue
            if rule.rank is not None and rule.rank != rank:
                continue
            if rule.times is not None and _rule_fires.get(idx, 0) >= rule.times:
                continue
            if rule.jobs is not None:
                if job is None or job not in rule.jobs:
                    continue
            elif rule.hits is not None:
                if n not in rule.hits:
                    continue
            elif rule.p:
                if _det_unit(plan.seed, site, n) >= rule.p:
                    continue
            _rule_fires[idx] = _rule_fires.get(idx, 0) + 1
            key = f"{site}:{rule.kind}"
            _fires[key] = _fires.get(key, 0) + 1
            return rule
    return None


def plan_from_rules(seed: int, rules: Iterable[dict]) -> FaultPlan:
    """Convenience constructor from plain dicts (tests, CLIs)."""
    return FaultPlan(
        seed=seed, rules=tuple(FaultRule.from_dict(r) for r in rules)
    )


def _fault_collector() -> None:
    """Publish the arrival/fire maps as per-site gauges (point-in-time
    reads of cumulative dicts, pid-tagged on cross-process drains)."""
    from .. import obs as _obs

    stats = fault_stats()
    if stats is None:
        return  # never armed here: emit nothing rather than zeros
    reg = _obs.get_registry()
    reg.gauge("lol_faults_armed", "1 while a fault plan is active").set(
        1 if stats["armed"] else 0
    )
    arrivals = reg.gauge(
        "lol_fault_arrivals", "Calls reaching each injection site"
    )
    for site, n in stats["arrivals"].items():
        arrivals.set(n, site=site)
    fires = reg.gauge("lol_fault_fires", "Faults actually fired per site")
    for site, n in stats["fires"].items():
        fires.set(n, site=site)


def _register_obs_collector() -> None:
    from .. import obs as _obs

    _obs.get_registry().register_collector(_fault_collector)


_register_obs_collector()


# Arm from the environment at import time: spawned subprocesses (pool
# workers, native PEs' parents) inherit ``LOL_FAULTS`` and re-import
# this module, so a plan exported by the test/CI driver reaches every
# process in the tree without explicit plumbing.
_env_plan = FaultPlan.from_env()
if _env_plan is not None:
    activate(_env_plan)
del _env_plan
