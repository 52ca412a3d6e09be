"""Path-sensitive static analysis over parallel LOLCODE.

The package summarizes a program in one walk (:mod:`.summary`: its
functions, symmetric names and the facts the VM vectorizer reads),
builds control-flow graphs over :mod:`repro.lang.ast` (:mod:`.cfg`,
one per definition), solves iterative dataflow problems on them
(:mod:`.dataflow`), and derives diagnostics that the old straight-line
checker could only guess at:

* :mod:`.pe_taint` — PE-dependence abstract interpretation and the
  barrier-matching verdict (``W101``),
* :mod:`.locks` — may/must lock-release analysis (``W103`` /
  ``W105`` / ``W106``),
* :mod:`.races` — barrier-epoch static happens-before (``W102``),
* :mod:`.bounds` — interval/affine analysis of symmetric array indices
  and PE targets (``E008`` / ``W107``).

:func:`analyze_program` runs the full stack and returns the combined,
position-sorted diagnostic list; :func:`repro.lang.checker.check_program`
calls it after its scope/type pass, on the same summary, so every entry
point (``lollint``, ``run_lolcode(check=...)``, ``lcc --check``) sees
one unified report.
"""

from __future__ import annotations

from ..lang import ast
from .bounds import BoundsResult, analyze_bounds
from .cfg import CFG, BasicBlock, build_cfg, build_program_cfgs
from .dataflow import ForwardAnalysis, run_forward
from .diagnostics import (
    Diagnostic,
    FixIt,
    render_json,
    render_sarif,
    sort_key,
)
from .locks import check_locks
from .pe_taint import TaintResult, analyze_taint, check_barriers
from .races import check_races
from .summary import ProgramSummary, summarize, summary_of

__all__ = [
    "CFG",
    "BasicBlock",
    "BoundsResult",
    "Diagnostic",
    "FixIt",
    "ForwardAnalysis",
    "ProgramSummary",
    "TaintResult",
    "analyze_bounds",
    "analyze_program",
    "analyze_taint",
    "build_cfg",
    "build_program_cfgs",
    "check_barriers",
    "check_locks",
    "check_races",
    "render_json",
    "render_sarif",
    "run_forward",
    "sort_key",
    "summarize",
]


def analyze_program(tree: ast.Program | ProgramSummary) -> list[Diagnostic]:
    """Run every CFG-based analysis on a program or its summary's tree;
    diagnostics sorted by position."""
    summary = summary_of(tree)
    taint = analyze_taint(summary.program, summary)
    bounds = analyze_bounds(summary.program, summary)
    diags: list[Diagnostic] = []
    diags.extend(check_barriers(taint))
    diags.extend(check_locks(taint))
    diags.extend(bounds.diags)
    diags.extend(check_races(taint, bounds))
    return sorted(diags, key=sort_key)
