"""Declarative workload model and registry.

A :class:`Workload` packages everything the bench orchestrator needs to
measure one parallel pattern end to end:

* a name / domain / communication pattern (the README table columns);
* a set of integer :class:`Param` specs with defaults, bounds, and a
  small *smoke* override used by CI;
* a LOLCODE source generator (``source``), so examples, benchmarks and
  tests all run the *same* kernel text and cannot drift;
* a result checker (``check``) that inspects the :class:`SpmdResult`
  and returns a list of problems (empty = pass).

Workloads register themselves into the module-level :data:`WORKLOADS`
table at import time (the benchbuild-style project registry); the kernel
modules under :mod:`repro.workloads` are imported by the package
``__init__`` so ``all_workloads()`` is complete after
``import repro.workloads``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..shmem.runtime_threads import SpmdResult


class WorkloadError(ValueError):
    """Bad registry lookup or parameter binding."""


@dataclass(frozen=True, slots=True)
class Param:
    """One integer workload parameter (sizes, steps, scales)."""

    name: str
    default: int
    minimum: int = 1
    maximum: Optional[int] = None
    doc: str = ""

    def validate(self, value: object) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise WorkloadError(
                f"parameter {self.name!r} must be an int, got {value!r}"
            )
        if value < self.minimum:
            raise WorkloadError(
                f"parameter {self.name!r} must be >= {self.minimum}, "
                f"got {value}"
            )
        if self.maximum is not None and value > self.maximum:
            raise WorkloadError(
                f"parameter {self.name!r} must be <= {self.maximum}, "
                f"got {value}"
            )
        return value


#: Checker signature: (result, n_pes, bound params) -> list of problems.
CheckFn = Callable[[SpmdResult, int, Mapping[str, int]], List[str]]
SourceFn = Callable[[Mapping[str, int]], str]


@dataclass(frozen=True, slots=True)
class Workload:
    """A registered, parameterized parallel LOLCODE kernel."""

    name: str
    domain: str
    comm_pattern: str
    description: str
    source_fn: SourceFn
    check_fn: CheckFn
    params: Sequence[Param] = ()
    #: param overrides for fast CI smoke runs (small sizes)
    smoke: Mapping[str, int] = field(default_factory=dict)
    #: False => output legitimately varies run to run (e.g. the paper's
    #: racy n-body listing), so the cross-engine differential is skipped
    deterministic: bool = True
    min_pes: int = 1

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise WorkloadError(
            f"workload {self.name!r} has no parameter {name!r} "
            f"(has: {', '.join(p.name for p in self.params) or 'none'})"
        )

    def bind_params(
        self, overrides: Optional[Mapping[str, int]] = None, *, smoke: bool = False
    ) -> Dict[str, int]:
        """Defaults (or smoke sizes), then overrides — all validated."""
        bound = {p.name: p.default for p in self.params}
        if smoke:
            bound.update(self.smoke)
        for key, value in (overrides or {}).items():
            bound[key] = self.param(key).validate(value)
        return bound

    def source(
        self, params: Optional[Mapping[str, int]] = None, *, smoke: bool = False
    ) -> str:
        """Generate the kernel's LOLCODE text for the bound parameters."""
        return self.source_fn(self.bind_params(params, smoke=smoke))

    def check(
        self,
        result: SpmdResult,
        n_pes: int,
        params: Optional[Mapping[str, int]] = None,
        *,
        smoke: bool = False,
    ) -> List[str]:
        """Verify a finished run; returns problems (empty list = pass)."""
        return self.check_fn(result, n_pes, self.bind_params(params, smoke=smoke))


#: The global registry, name -> workload (insertion ordered).
WORKLOADS: Dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in WORKLOADS:
        raise WorkloadError(f"duplicate workload name {workload.name!r}")
    WORKLOADS[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise WorkloadError(
            f"unknown workload {name!r} (registered: {known})"
        ) from None


def all_workloads() -> List[Workload]:
    return list(WORKLOADS.values())


def workload_names() -> List[str]:
    return list(WORKLOADS)


# ---------------------------------------------------------------------------
# Shared checker helpers.
# ---------------------------------------------------------------------------


def approx_problems(
    label: str, got: float, want: float, *, tol: float = 5e-3
) -> List[str]:
    """VISIBLE prints NUMBARs with 2 decimals, so compare to that grain."""
    scale = max(1.0, abs(want))
    if abs(got - want) <= tol * scale + 5e-3:
        return []
    return [f"{label}: got {got!r}, expected {want!r}"]
