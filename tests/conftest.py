"""Shared helpers for the test suite."""

from __future__ import annotations

import pathlib

import pytest

from repro import run_lolcode
from repro.compiler.native import find_cc
from repro.interp import run_serial
from repro.vm.isa import VMProgram

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_LOL = REPO_ROOT / "examples" / "lol"


def pytest_collection_modifyitems(config, items):
    """Honour the ``requires_cc`` marker: skip (never fail) without a
    host C compiler, so interpreter-only machines stay green while
    toolchain machines run the full native suite."""
    if find_cc() is not None:
        return
    skip_cc = pytest.mark.skip(reason="no C compiler (cc/gcc/clang) on PATH")
    for item in items:
        if "requires_cc" in item.keywords:
            item.add_marker(skip_cc)


def lol(body: str) -> str:
    """Wrap a statement body in HAI/KTHXBYE."""
    return f"HAI 1.2\n{body}\nKTHXBYE\n"


def run1(body: str, **kwargs) -> str:
    """Run a body serially (1 PE) and return VISIBLE output."""
    return run_serial(lol(body), **kwargs)


def runp(body: str, n_pes: int, **kwargs):
    """Run a body SPMD on the thread executor; returns SpmdResult."""
    kwargs.setdefault("seed", 7)
    return run_lolcode(lol(body), n_pes, **kwargs)


@pytest.fixture
def example_path():
    def _get(name: str) -> pathlib.Path:
        path = EXAMPLES_LOL / name
        assert path.exists(), f"missing example {name}"
        return path

    return _get


@pytest.fixture
def vm_machines(monkeypatch):
    """Every Machine the vm engine runs while the test is active (their
    ``vec_runs``/``vec_bails`` show what ``LOOP_VEC`` did)."""
    machines: list = []
    run = VMProgram.run

    def spy(self, ctx, max_steps=None):
        m = run(self, ctx, max_steps=max_steps)
        machines.append(m)
        return m

    monkeypatch.setattr(VMProgram, "run", spy)
    return machines
