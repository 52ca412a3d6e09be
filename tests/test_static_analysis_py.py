"""Meta-lint: the analysis package holds itself to ruff + strict mypy.

Both tools are optional locally (the CI ``analysis`` job installs and
enforces them); when absent the tests skip rather than fail, so the
tier-1 suite has no new dependencies.
"""

import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCOPE = ROOT / "src" / "repro" / "analysis"


def _run(cmd):
    return subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_analysis_package_compiles():
    # always-on floor: every module byte-compiles.  Compiled in memory,
    # so the run leaves no .pyc files in the source tree.
    modules = sorted(SCOPE.rglob("*.py"))
    assert modules
    failed = []
    for path in modules:
        try:
            compile(path.read_text(), str(path), "exec")
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}: {exc}")
    assert not failed, "\n".join(failed)


@pytest.mark.skipif(
    shutil.which("ruff") is None, reason="ruff not installed"
)
def test_ruff_clean():
    proc = _run(["ruff", "check", str(SCOPE)])
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(
    shutil.which("ruff") is None, reason="ruff not installed"
)
def test_ruff_imports_sorted():
    proc = _run(["ruff", "check", "--select", "I", str(SCOPE)])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _has_mypy():
    try:
        import mypy  # noqa: F401

        return True
    except ImportError:
        return False


@pytest.mark.skipif(not _has_mypy(), reason="mypy not installed")
def test_mypy_strict_clean():
    proc = _run(
        [sys.executable, "-m", "mypy", "--strict", str(SCOPE)]
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
