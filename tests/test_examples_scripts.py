"""Smoke tests for the runnable example scripts (they must work for a
fresh user exactly as documented in the README)."""

import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"

pytestmark = pytest.mark.slow


def run_script(name: str, *args: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_script("quickstart.py")
    assert "O HAI! I IZ PE 0 OF 8" in out
    assert "PE 0 HAZ c=" in out
    assert "[race detector]" in out
    assert "shmem_barrier_all" in out


def test_pi_monte_carlo():
    out = run_script("pi_monte_carlo.py", "--pes", "4", "--darts", "4000")
    assert "PI IZ BOUT 3." in out


def test_heat_diffusion():
    out = run_script("heat_diffusion.py", "--pes", "4", "--cells", "6", "--steps", "8")
    assert "BLOCK HEAT" in out
    assert "communication matrix" in out
    assert "Epiphany" in out


def test_nbody_scaling_small():
    out = run_script(
        "nbody_scaling.py", "--pes", "1", "2", "--particles", "6", "--steps", "2"
    )
    assert "interp[s]" in out
    assert "vm[s]" in out
    assert "Cray XC40" in out
