"""[E-E] Section VI.E — compilation and execution of LOLCODE programs.

The paper's pipeline: ``lcc code.lol -o executable.x`` then launch.
This bench reproduces the toolchain legs we can run offline:

* ``lcc`` front-end + C emission throughput (source lines/second);
* the paper's interpreter-vs-compiler claim: an end-to-end native run
  (``engine="c"``) beats interpretation on the n-body kernel;
* when gcc is present, the full ``lcc | cc`` leg is timed too.
"""

import shutil
import subprocess
import time

import pytest

from repro import run_lolcode
from repro.compiler import compile_c, find_cc

from .conftest import nbody_source, print_table

SRC = nbody_source(8, 2)
GCC = shutil.which("gcc") or shutil.which("cc")


@pytest.mark.benchmark(group="pipeline")
def test_lcc_c_emission_throughput(benchmark):
    benchmark(compile_c, SRC)
    lines = len(SRC.splitlines())
    print(f"\n  input: {lines} LOLCODE lines per round")


@pytest.mark.skipif(find_cc() is None, reason="no C compiler")
def test_interpreter_vs_compiler_speedup():
    """Paper: 'Using a compiler for LOLCODE is more flexible and
    efficient than an interpreter.'  Measure the paths end to end: the
    paper's claim is about *tree-walking* interpretation, so that is the
    baseline; the VM engine (this repo's default) is measured as a
    third row — it closes most of the gap while staying an interpreter.
    The compiled leg is the native ``lcc`` + cc binary; its warm-up run
    fills the build cache, so the timed run is launch plus execution."""
    # warm-up + measure
    run_lolcode(SRC, 2, seed=42, engine="ast")
    t0 = time.perf_counter()
    run_lolcode(SRC, 2, seed=42, engine="ast")
    t_interp = time.perf_counter() - t0

    run_lolcode(SRC, 2, seed=42, engine="vm")
    t0 = time.perf_counter()
    run_lolcode(SRC, 2, seed=42, engine="vm")
    t_vm = time.perf_counter() - t0

    run_lolcode(SRC, 2, seed=42, engine="c")
    t0 = time.perf_counter()
    run_lolcode(SRC, 2, seed=42, engine="c")
    t_compiled = time.perf_counter() - t0

    speedup = t_interp / t_compiled
    print_table(
        "Section VI.E: interpreter vs compiled execution (n-body kernel)",
        ["path", "seconds", "speedup"],
        [
            ["tree-walker (loli-style)", f"{t_interp:.4f}", "1.00x"],
            ["VM engine (default)", f"{t_vm:.4f}", f"{t_interp / t_vm:.2f}x"],
            ["native (lcc + cc)", f"{t_compiled:.4f}", f"{speedup:.2f}x"],
        ],
    )
    assert speedup > 1.0, (
        f"compiled path must beat the tree-walker, got {speedup:.2f}x"
    )


@pytest.mark.skipif(GCC is None, reason="no C compiler")
def test_full_lcc_cc_pipeline(tmp_path):
    """The literal Section VI.E command sequence, single-PE sim:
    lcc code.lol -o code.c && cc code.c -o executable && ./executable."""
    c_file = tmp_path / "code.c"
    exe = tmp_path / "executable.x"
    t0 = time.perf_counter()
    c_file.write_text(compile_c(SRC))
    subprocess.run(
        [GCC, "-DLOL_SHMEM_SIM", "-std=c99", "-O2", str(c_file), "-o",
         str(exe), "-lm"],
        check=True,
        capture_output=True,
    )
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    out = subprocess.run(
        [str(exe)], capture_output=True, text=True, timeout=60, check=True
    )
    run_s = time.perf_counter() - t0
    assert "I HAS PARTICLZ 2 MUV" in out.stdout
    print_table(
        "Section VI.E: lcc + cc pipeline (single-PE OpenSHMEM sim)",
        ["leg", "seconds"],
        [["lcc + cc build", f"{build_s:.3f}"], ["native run", f"{run_s:.3f}"]],
    )
