"""The fuzzing loop: generate/mutate -> gate -> diff -> minimize -> save.

Determinism contract: a :class:`Fuzzer` constructed with the same seed
and config produces the same candidate sequence, the same coverage
trajectory, and the same findings, independent of wall clock (iteration
mode) — the budget mode stops on elapsed time but the candidate at each
iteration index is still seed-determined.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from ..lang import ast
from ..lang.formatter import format_program
from .corpus import save_finding
from .coverage import CoverageMap, candidate_features
from .diff import DEFAULT_ENGINES, DiffResult, program_is_divergent, run_differential
from .grammar import GenConfig, generate_program, mutate_program, program_size
from .minimize import minimize_program


@dataclass
class Finding:
    """One confirmed cross-engine divergence."""

    iteration: int
    gen_seed: int
    n_pes: int
    seed: int
    kind: str  # worst divergence kind: crash > hang > error > ok(value)
    engines: tuple[str, ...]  # engines that disagreed with the reference
    source: str
    minimized_source: str
    detail: str = ""

    def meta(self) -> dict:
        return {
            "iteration": self.iteration,
            "gen_seed": self.gen_seed,
            "n_pes": self.n_pes,
            "seed": self.seed,
            "kind": self.kind,
            "engines": list(self.engines),
            "detail": self.detail,
            "original_source": self.source,
        }


@dataclass
class FuzzStats:
    iterations: int = 0
    generated: int = 0
    mutated: int = 0
    lint_discards: int = 0
    gate_discards: int = 0
    divergences: int = 0
    new_coverage_events: int = 0
    features: int = 0
    elapsed_s: float = 0.0
    discard_reasons: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dict(self.__dict__)


_KIND_RANK = {"crash": 4, "hang": 3, "stepout": 2, "error": 1, "ok": 0, "skip": 0}


class Fuzzer:
    def __init__(
        self,
        *,
        seed: int = 0,
        n_pes: int = 4,
        engines: Sequence[str] = DEFAULT_ENGINES,
        executors: Sequence[str] = ("thread",),
        max_steps: int = 200_000,
        barrier_timeout: float = 20.0,
        corpus_dir: Optional[Path] = None,
        config: Optional[GenConfig] = None,
        minimize_checks: int = 150,
        pool_cap: int = 128,
        mutation_rate: float = 0.5,
        seed_pool: Sequence[ast.Program] = (),
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.seed = seed
        self.n_pes = n_pes
        self.engines = tuple(engines)
        self.executors = tuple(executors)
        self.max_steps = max_steps
        self.barrier_timeout = barrier_timeout
        self.corpus_dir = Path(corpus_dir) if corpus_dir else None
        self.config = config or GenConfig()
        self.minimize_checks = minimize_checks
        self.pool_cap = pool_cap
        self.mutation_rate = mutation_rate
        self.rng = random.Random(seed)
        self.coverage = CoverageMap()
        self.pool: list[ast.Program] = list(seed_pool)[:pool_cap]
        self.stats = FuzzStats()
        self.findings: list[Finding] = []
        self._log = log or (lambda _msg: None)

    # -- candidate production ---------------------------------------------

    def next_candidate(self, iteration: int) -> tuple[ast.Program, int]:
        """Deterministically produce candidate #``iteration``."""
        gen_seed = self.seed * 1_000_003 + iteration
        if self.pool and self.rng.random() < self.mutation_rate:
            parent = self.rng.choice(self.pool)
            self.stats.mutated += 1
            return mutate_program(parent, random.Random(gen_seed), self.config), gen_seed
        self.stats.generated += 1
        return generate_program(gen_seed, self.config), gen_seed

    # -- one iteration -----------------------------------------------------

    def step(self, iteration: int) -> Optional[Finding]:
        program, gen_seed = self.next_candidate(iteration)
        try:
            source = format_program(program)
        except Exception:
            return None  # mutant rendered unrenderable; drop it
        result = run_differential(
            source,
            self.n_pes,
            engines=self.engines,
            executors=self.executors,
            seed=self.seed,
            max_steps=self.max_steps,
            barrier_timeout=self.barrier_timeout,
            filename=f"<fuzz:{gen_seed}>",
        )
        self.stats.iterations += 1
        if result.status == "discarded":
            key = result.reason.split(":", 1)[0]
            self.stats.discard_reasons[key] = self.stats.discard_reasons.get(key, 0) + 1
            if result.reason.startswith("lint"):
                self.stats.lint_discards += 1
            else:
                self.stats.gate_discards += 1
            return None
        new = self.coverage.observe(
            candidate_features(program, source, result.opcode_counts))
        if new:
            self.stats.new_coverage_events += 1
            self.pool.append(program)
            if len(self.pool) > self.pool_cap:
                # Evict deterministically: drop the oldest half's largest.
                self.pool.pop(0)
        if result.status != "divergent":
            return None
        return self._handle_divergence(iteration, gen_seed, program, source, result)

    def _handle_divergence(
        self,
        iteration: int,
        gen_seed: int,
        program: ast.Program,
        source: str,
        result: DiffResult,
    ) -> Finding:
        self.stats.divergences += 1
        kinds = [d.outcome.kind for d in result.divergences]
        kind = max(kinds, key=lambda k: _KIND_RANK.get(k, 0))
        if kind == "ok":
            kind = "value"
        engines = tuple(sorted({d.engine for d in result.divergences}))
        match = (frozenset(d.engine for d in result.divergences),
                 frozenset(d.outcome.kind for d in result.divergences))
        self._log(f"divergence at iter {iteration}: {kind} on {', '.join(engines)}")

        def still_divergent(candidate: ast.Program) -> bool:
            return program_is_divergent(
                candidate, self.n_pes, engines=self.engines, seed=self.seed,
                max_steps=self.max_steps, barrier_timeout=self.barrier_timeout,
                match=match,
            )

        minimized = minimize_program(program, still_divergent,
                                     max_checks=self.minimize_checks)
        minimized_source = format_program(minimized)
        finding = Finding(
            iteration=iteration,
            gen_seed=gen_seed,
            n_pes=self.n_pes,
            seed=self.seed,
            kind=kind,
            engines=engines,
            source=source,
            minimized_source=minimized_source,
            detail="; ".join(d.describe() for d in result.divergences[:4]),
        )
        self.findings.append(finding)
        if self.corpus_dir is not None:
            path = save_finding(self.corpus_dir, source=minimized_source,
                                kind=finding.kind,
                                meta={**finding.meta(), "engines": list(self.engines)})
            self._log(f"minimized repro ({program_size(minimized)} nodes) -> {path}")
        return finding

    # -- the loop ----------------------------------------------------------

    def run(
        self,
        *,
        iterations: Optional[int] = None,
        budget_s: Optional[float] = None,
        stop_after: Optional[int] = None,
    ) -> FuzzStats:
        """Fuzz for a fixed iteration count and/or wall-clock budget."""
        if iterations is None and budget_s is None:
            iterations = 100
        start = time.monotonic()
        i = 0
        while True:
            if iterations is not None and i >= iterations:
                break
            if budget_s is not None and time.monotonic() - start >= budget_s:
                break
            self.step(i)
            if stop_after is not None and len(self.findings) >= stop_after:
                break
            i += 1
        self.stats.elapsed_s = time.monotonic() - start
        self.stats.features = len(self.coverage)
        return self.stats
