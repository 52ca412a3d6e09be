"""Concurrent ``run_lolcode`` callers — the precondition the execution
service relies on.

The service's scheduler runs jobs on worker threads, mixing engines and
executors freely; these tests pin down that ``run_lolcode`` is safe to
call concurrently from multiple threads (shared compile caches, shared
default pool, independent worlds) and that results match the
single-threaded baseline bit for bit.
"""

import threading

import pytest

from repro import run_lolcode
from repro.interp import compile_vm_cached

from .conftest import lol

pytestmark = pytest.mark.service

RING = lol(
    "WE HAS A x ITZ SRSLY A NUMBR\n"
    "x R PRODUKT OF ME AN 7\n"
    "HUGZ\n"
    "I HAS A nxt ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
    "TXT MAH BFF nxt AN STUFF\n"
    "  VISIBLE UR x\n"
    "TTYL\n"
)
SEQ = lol(
    "I HAS A acc ITZ 0\n"
    "IM IN YR spin UPPIN YR i TIL BOTH SAEM i AN 200\n"
    "  acc R SUM OF acc AN PRODUKT OF i AN i\n"
    "IM OUTTA YR spin\n"
    "VISIBLE acc"
)


def _run_matrix(matrix, repeats=2):
    """Run every (source, n_pes, engine, executor) cell from its own
    thread, ``repeats`` threads per cell; returns {cell: [outputs...]}
    plus a list of raised exceptions."""
    results = {}
    errors = []
    mutex = threading.Lock()

    def one(cell):
        source, n_pes, engine, executor = cell
        try:
            out = run_lolcode(
                source, n_pes, engine=engine, executor=executor, seed=11
            ).outputs
            with mutex:
                results.setdefault(cell, []).append(out)
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            with mutex:
                errors.append(f"{cell}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=one, args=(cell,))
        for cell in matrix
        for _ in range(repeats)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180)
    return results, errors


class TestConcurrentRunLolcode:
    def test_mixed_engines_thread_executor(self):
        matrix = [
            (src, n_pes, engine, "thread")
            for src in (RING, SEQ)
            for n_pes in (1, 4)
            for engine in ("closure", "ast", "vm")
        ]
        results, errors = _run_matrix(matrix)
        assert not errors, errors
        for cell, outs in results.items():
            source, n_pes, engine, executor = cell
            expected = run_lolcode(
                source, n_pes, engine=engine, executor=executor, seed=11
            ).outputs
            assert all(o == expected for o in outs), f"{cell} diverged"

    @pytest.mark.procs
    def test_mixed_executors_including_pool(self):
        matrix = [
            (RING, 2, "closure", "thread"),
            (RING, 2, "closure", "pool"),
            (RING, 2, "ast", "pool"),
            (RING, 2, "vm", "thread"),
            (SEQ, 1, "closure", "serial"),
            (SEQ, 1, "vm", "pool"),
        ]
        results, errors = _run_matrix(matrix, repeats=3)
        assert not errors, errors
        baseline = run_lolcode(RING, 2, engine="closure", executor="thread",
                               seed=11).outputs
        for cell, outs in results.items():
            if cell[0] is RING:
                assert all(o == baseline for o in outs), f"{cell} diverged"

    def test_same_source_many_threads_shares_compiled_program(self):
        """All threads race one uncached source; every output matches and
        the program object is shared (the cache did its job)."""
        from repro.interp import compile_closures_cached

        compile_closures_cached.cache_clear()
        src = lol('VISIBLE "RACE ONE SOURCE"')
        results, errors = _run_matrix([(src, 2, "closure", "thread")], repeats=8)
        assert not errors, errors
        outs = results[(src, 2, "closure", "thread")]
        assert outs == [["RACE ONE SOURCE\n"] * 2] * 8
        assert compile_closures_cached.cache_info().misses == 1


class TestCompiledSingleFlight:
    """Satellite regression: the VM's compile cache compiles a source
    once under N concurrent identical callers."""

    def test_concurrent_identical_compiles_once(self, monkeypatch):
        import time

        from repro.vm import compile as vm_compile

        compile_vm_cached.cache_clear()
        calls = []
        mutex = threading.Lock()
        real = vm_compile.compile_program_vm

        def counting(program, **kwargs):
            with mutex:
                calls.append(program)
            time.sleep(0.05)
            return real(program, **kwargs)

        monkeypatch.setattr(vm_compile, "compile_program_vm", counting)
        src = lol('VISIBLE "VM SINGLEFLIGHT"')
        barrier = threading.Barrier(8)
        results = []

        def one():
            barrier.wait()
            results.append(compile_vm_cached(src, "<sf.lol>", False))

        threads = [threading.Thread(target=one) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1, f"compiled {len(calls)} times"
        assert all(r is results[0] for r in results)
        compile_vm_cached.cache_clear()

    def test_distinct_keys_do_not_serialize(self):
        flight = compile_vm_cached._single_flight
        assert flight.inflight_keys() == 0
        a = compile_vm_cached(lol("VISIBLE 1"), "<k1.lol>", False)
        b = compile_vm_cached(lol("VISIBLE 2"), "<k2.lol>", False)
        assert a is not b
        assert flight.inflight_keys() == 0  # bookkeeping fully unwinds
