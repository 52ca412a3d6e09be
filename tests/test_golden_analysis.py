"""Golden-file snapshots of the static analyzer's diagnostics.

Each ``tests/golden/analysis/<case>.lol`` is linted and the rendered
diagnostics (fix-it lines included) are diffed against the checked-in
``<case>.diag`` snapshot — ``(clean)`` for cases that must stay
silent.  The corpus pins the path-sensitivity upgrades in place:

* a barrier under a *uniform* branch no longer warns, a divergent
  mismatch still does;
* a lock released on *every* path no longer triggers ``W103``; the
  missed-path, double-acquire, and divergent-acquire variants do;
* the Figure 2 race flags (with its insert-``HUGZ`` fix-it) and its
  ``HUGZ``-fixed twin is silent.
* the interprocedural paths report where the bug is: a barrier, lock,
  put or bad index inside a function, and a function defined twice
  with both bodies checked against their own parameters.
* names resolve as the engines resolve them: an arm's or a function's
  own declaration shadows the outer variable without touching it, and
  an in-place cast is a read and a write.

Every ``(clean)`` case is also run on ``ast`` at 2 and 4 PEs with the
dynamic race detector on: a program ``lollint`` calls clean must
neither fail, deadlock nor race.

An intentional diagnostic change regenerates the snapshots with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_analysis.py

and the diff is reviewed like any other source change.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.lang.checker import check_source
from repro.launcher import run_lolcode

CORPUS = pathlib.Path(__file__).resolve().parent / "golden" / "analysis"
CASES = sorted(p.stem for p in CORPUS.glob("*.lol"))

#: cases that must produce no diagnostics at all
MUST_BE_CLEAN = {
    "uniform_branch_barrier",
    "divergent_aligned_barriers",
    "lock_released_every_path",
    "trylock_spin",
    "figure2_fixed",
    "dynamic_unlock",
    "shadowed_local_race",
}

#: cases whose snapshot is ``(clean)``
CLEAN = sorted(
    case
    for case in CASES
    if (CORPUS / f"{case}.diag").read_text(encoding="utf-8") == "(clean)\n"
)


def render(path: pathlib.Path) -> str:
    source = path.read_text(encoding="utf-8")
    diags = check_source(source, filename=path.name)
    if not diags:
        return "(clean)\n"
    return "".join(d.render_text() + "\n" for d in diags)


@pytest.mark.parametrize("case", CASES)
def test_diagnostics_match_golden(case):
    lol = CORPUS / f"{case}.lol"
    golden = CORPUS / f"{case}.diag"
    rendered = render(lol)
    if os.environ.get("UPDATE_GOLDEN"):
        golden.write_text(rendered, encoding="utf-8")
        pytest.skip(f"regenerated {golden.name}")
    assert golden.exists(), (
        f"missing snapshot {golden}; regenerate with UPDATE_GOLDEN=1"
    )
    assert rendered == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(MUST_BE_CLEAN))
def test_clean_cases_stay_clean(case):
    # independent of the snapshots: these cases embody the
    # false-positive fixes and must never regress to warning
    assert render(CORPUS / f"{case}.lol") == "(clean)\n"


@pytest.mark.parametrize("n_pes", [2, 4])
@pytest.mark.parametrize("case", CLEAN)
def test_clean_cases_run_clean(case, n_pes):
    source = (CORPUS / f"{case}.lol").read_text(encoding="utf-8")
    result = run_lolcode(
        source,
        n_pes,
        filename=f"{case}.lol",
        engine="ast",
        executor="thread",
        seed=1,
        race_detection=True,
        barrier_timeout=5.0,
    )
    assert result.races == []


def test_corpus_is_complete():
    assert MUST_BE_CLEAN <= set(CLEAN)
    assert len(CASES) >= 12
