#!/usr/bin/env python3
"""Digest the static checker's verdicts over a fixed corpus of programs.

Every program is linted with ``check_program`` and its diagnostics are
rendered as ``lollint --format json`` would print them.  One line is
printed per family of programs::

    <family> <programs> <sha256 of the family's rendered output>

The families are the registry workloads at smoke and default sizes, the
example listings, the analysis and fuzz golden corpora, generated
programs for seeds 0-1999 and 500 mutants of generated programs (the
mutants reach E008 and W107, which unmutated programs never do).  A
refactor of the checker or the analyses should leave every digest
unchanged; a family whose digest moves points at the verdicts to diff.

Run from the repository root::

    PYTHONPATH=src python tools/lint_corpus.py
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import sys
from typing import Iterable, Iterator

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import render_json  # noqa: E402
from repro.fuzz.grammar import (  # noqa: E402
    generate_program,
    generate_source,
    mutate_program,
)
from repro.lang.checker import check_program  # noqa: E402
from repro.lang.errors import LolError  # noqa: E402
from repro.lang.formatter import format_program  # noqa: E402
from repro.lang.parser import parse  # noqa: E402
from repro.workloads import all_workloads  # noqa: E402

GENERATED_SEEDS = 2000
MUTANTS = 500


def _files(directory: str) -> Iterator[tuple[str, str]]:
    for path in sorted((REPO_ROOT / directory).glob("*.lol")):
        yield path.name, path.read_text(encoding="utf-8")


def _registry(smoke: bool) -> Iterator[tuple[str, str]]:
    for workload in all_workloads():
        yield f"{workload.name}.lol", workload.source(smoke=smoke)


def _generated() -> Iterator[tuple[str, str]]:
    for seed in range(GENERATED_SEEDS):
        yield f"gen_{seed}.lol", generate_source(seed)


def _mutants() -> Iterator[tuple[str, str]]:
    for seed in range(MUTANTS):
        mutant = mutate_program(generate_program(seed), random.Random(seed))
        yield f"mut_{seed}.lol", format_program(mutant)


FAMILIES = {
    "registry-smoke": lambda: _registry(True),
    "registry-default": lambda: _registry(False),
    "examples": lambda: _files("examples/lol"),
    "golden-analysis": lambda: _files("tests/golden/analysis"),
    "golden-fuzz": lambda: _files("tests/golden/fuzz"),
    "generated": _generated,
    "mutants": _mutants,
}


def digest(programs: Iterable[tuple[str, str]]) -> tuple[int, str]:
    """Program count and sha256 over every program's rendered verdict."""
    h = hashlib.sha256()
    count = 0
    for name, source in programs:
        try:
            rendered = render_json(check_program(parse(source, name)))
        except LolError as exc:
            rendered = f"error: {exc}"
        h.update(f"{name}\n{rendered}\n".encode())
        count += 1
    return count, h.hexdigest()


def main() -> int:
    for family, programs in FAMILIES.items():
        count, sha = digest(programs())
        print(f"{family} {count} {sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
