"""Build and launch natively compiled LOLCODE — the ``engine="c"`` path.

This is the half of the paper's deployment story the C backend alone
cannot provide: after :func:`~repro.compiler.c_backend.compile_c` emits
the translation unit, something must play the role of ``cc`` plus
``coprsh -np 16 ./x``.  On a development machine that is:

1. :func:`build_native` — write the TU next to the bundled single-node
   SHMEM shim (``lol_shmem_shim.c``/``.h``), invoke the system C
   compiler, and cache the binary on disk under ``~/.cache/repro-lcc``
   (override with ``$LOL_CC_CACHE``) keyed by the SHA-256 of the folded
   C text + shim sources + compiler + flags, with a single-flight guard
   so concurrent identical builds compile once;
2. :func:`run_native` — launch ``n_pes`` OS processes of that binary
   around a fresh shared world file (``/dev/shm`` when available),
   capture each PE's stdout/exit status, and marshal them into the
   standard :class:`~repro.shmem.runtime_threads.SpmdResult` shape.

Missing toolchains raise :class:`NativeToolchainError` (distinct from
program-level :class:`~repro.compiler.symtab.CompileError` restrictions)
so callers — the launcher, ``lolbench`` skip rows, the ``requires_cc``
test marker — can tell "this host cannot build" from "this program
cannot compile".

Knobs the native engine cannot honour (``max_steps``, op tracing, the
race detector) are refused by the launcher before this module is ever
reached; ``seed`` is forwarded as ``$LOL_SEED`` (reproducible within the
native engine, but the C ``rand()`` stream is not the interpreters'
Mersenne Twister — see :func:`uses_random` for the differential-skip
helper built on that fact).
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Optional, Sequence

from .. import obs as _obs
from ..faults import inject
from ..lang.errors import LolError, LolParallelError
from ..lang.parser import parse_cached
from ..shmem.api import DEFAULT_BARRIER_TIMEOUT
from ..shmem.runtime_threads import SpmdResult
from ..singleflight import SingleFlight
from .c_backend import compile_c
from .symtab import analyze

_SHIM_DIR = pathlib.Path(__file__).resolve().parent
SHIM_HEADER = _SHIM_DIR / "lol_shmem_shim.h"
SHIM_SOURCE = _SHIM_DIR / "lol_shmem_shim.c"

#: Flags for the generated TU + shim.  -O2 is the point of the engine;
#: the sources are kept warning-clean but -Werror is deliberately not
#: used (unknown host compilers must not fail the build on taste).
CFLAGS = ("-O2", "-std=c11", "-Wall")

_build_flight = SingleFlight()

#: In-process memo of finished builds: (source, n_pes, cc) -> binary
#: path.  Saves the codegen + hashing work on warm calls (the service's
#: steady state, and every timed bench rep); the on-disk cache remains
#: the cross-process source of truth, so a hit is re-validated with an
#: existence check and entries never go stale.
_BUILD_MEMO: dict[tuple, pathlib.Path] = {}
_BUILD_MEMO_LOCK = threading.Lock()
_BUILD_MEMO_MAX = 256

#: Extra cc attempts after a *transient* failure (a compiler killed by a
#: signal — OOM kill, interrupted — or an injected ``native.build``
#: fault).  A compiler that runs and *rejects* the C is never retried.
DEFAULT_BUILD_RETRIES = 2

#: Observability counters for the build/cache plane: one registry
#: counter family labelled by event, so ``lolserve stats`` (``native``)
#: and the Prometheus ``metrics`` op read the *same* series — the
#: registry is the single source of truth, not a copy that can drift.
_NATIVE_EVENTS = ("builds", "cache_hits", "corrupt_rebuilds", "transient_retries")
_M_NATIVE = _obs.get_registry().counter(
    "lol_native_events_total",
    "Native build/cache events (builds, cache hits, corrupt rebuilds, "
    "transient cc retries)",
)


def _bump(key: str) -> None:
    _M_NATIVE.inc(event=key)


def native_stats() -> dict:
    """Snapshot of the native build/cache counters (the ``native``
    block of ``lolserve stats``) — read straight off the registry."""
    return {key: int(_M_NATIVE.value(event=key)) for key in _NATIVE_EVENTS}


@lru_cache(maxsize=1)
def _shim_sources() -> tuple[str, str]:
    """The bundled shim's header and implementation text (read once)."""
    return SHIM_HEADER.read_text(), SHIM_SOURCE.read_text()


class NativeToolchainError(LolError):
    """This host cannot produce native binaries (no C compiler found).

    Deliberately *not* a :class:`~repro.compiler.symtab.CompileError`:
    the program may be perfectly compilable — the environment is what is
    lacking — and consumers (bench skip rows, the ``requires_cc``
    marker) skip rather than diagnose the source.  Strictly reserved
    for the compiler-not-found case: a compiler that *runs and rejects*
    the generated C is a codegen/program failure
    (:class:`NativeBuildError`) and must stay loud.
    """


class NativeBuildError(LolError):
    """The C compiler rejected the generated translation unit.

    Either a program-level problem the backend failed to diagnose or a
    codegen regression; never an environment condition, so benches
    record it as a failure, not a skip.
    """


class NativeBuildTransientError(NativeBuildError):
    """The toolchain failed in a way a fresh attempt may survive.

    Raised only when the in-module retry budget
    (:data:`DEFAULT_BUILD_RETRIES`, override ``$LOL_BUILD_RETRIES``) is
    exhausted: a cc killed by a signal, or an injected ``native.build``
    fault.  Carries ``retryable = True`` so the scheduler's
    :class:`~repro.faults.RetryPolicy` re-submits the job.
    """

    retryable = True


def find_cc() -> Optional[str]:
    """Absolute path of the system C compiler, or ``None``.

    ``$LOL_CC`` wins; otherwise the conventional names are probed in
    order (``cc``, ``gcc``, ``clang``).
    """
    override = os.environ.get("LOL_CC")
    candidates = [override] if override else ["cc", "gcc", "clang"]
    for cand in candidates:
        path = shutil.which(cand)
        if path:
            return path
    return None


def cache_dir() -> pathlib.Path:
    root = os.environ.get("LOL_CC_CACHE")
    base = (
        pathlib.Path(root)
        if root
        else pathlib.Path.home() / ".cache" / "repro-lcc"
    )
    base.mkdir(parents=True, exist_ok=True)
    return base


def _checksum_path(binary: pathlib.Path) -> pathlib.Path:
    return binary.parent / (binary.name + ".sha256")


def _file_sha256(path: pathlib.Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _verify_cached(binary: pathlib.Path) -> bool:
    """Integrity-check an on-disk cached binary before warm reuse.

    The cache *key* hashes the inputs (C text, shim, compiler, flags) —
    it says nothing about the bytes actually sitting in the file, which
    a truncated write, a disk error, or a meddling sibling process can
    have corrupted.  So every build also records the binary's own
    sha256 next to it; a mismatch (or a missing/unreadable checksum)
    evicts the entry and reports ``False`` so the caller rebuilds —
    a corrupt cache entry costs one silent rebuild, never an exec of a
    bad binary.
    """
    expected = None
    try:
        expected = _checksum_path(binary).read_text().strip()
    except OSError:
        pass
    if expected is not None and _file_sha256(binary) == expected:
        return True
    _bump("corrupt_rebuilds")
    for stale in (binary, _checksum_path(binary)):
        try:
            stale.unlink()
        except OSError:
            pass
    return False


def _apply_cache_fault(binary: pathlib.Path, kind: str) -> None:
    """Damage a cached binary in place (``native.cache`` injection).

    Corruption happens to real cache files in the real cache directory,
    so the verification path under test is exactly the production one.
    """
    try:
        if kind == "truncate":
            size = binary.stat().st_size
            with open(binary, "r+b") as fh:
                fh.truncate(max(1, size // 2))
        elif kind == "corrupt":
            size = binary.stat().st_size
            with open(binary, "r+b") as fh:
                fh.seek(size // 2)
                span = fh.read(min(16, max(1, size - size // 2)))
                # XOR, not overwrite-with-a-pattern: the region might
                # already hold that pattern (ELF padding is zeros), and
                # a "corruption" that leaves the bytes unchanged tests
                # nothing.
                fh.seek(size // 2)
                fh.write(bytes(b ^ 0xFF for b in span))
    except OSError:
        pass


def uses_random(source: str, filename: str = "<string>") -> bool:
    """True when the program draws ``WHATEVR``/``WHATEVAR`` values.

    The native engine's rand() stream differs from the interpreters'
    seeded Mersenne Twister, so consumers (bench differential, the
    engine-differential suite) must not expect bit-identical output from
    such programs and use this predicate to skip the comparison
    explicitly.
    """
    return analyze(parse_cached(source, filename), allow_srs=True).uses_random


def build_native(
    source: str,
    filename: str = "<string>",
    *,
    n_pes: int = 1,
    cc: Optional[str] = None,
) -> pathlib.Path:
    """Compile LOLCODE to a cached native binary; returns its path.

    Program restrictions surface as ``CompileError`` before any
    toolchain work; a missing compiler raises
    :class:`NativeToolchainError`, and a compiler that rejects the
    generated C raises :class:`NativeBuildError`.  The cache key covers
    the folded C text (hence ``source`` *and* ``n_pes``), both shim
    sources, the compiler path, and the flag set, so stale binaries
    cannot be reused across any input that changes the build.
    """
    cc = cc or find_cc()
    if cc is None:
        raise NativeToolchainError(
            "engine='c' needs a host C compiler (cc, gcc, clang, or "
            "$LOL_CC); none was found on PATH"
        )
    # Warm path: skip codegen + hashing entirely (filename only affects
    # diagnostic positions, never the generated C, so it is not keyed).
    memo_key = (source, n_pes, cc)
    with _BUILD_MEMO_LOCK:
        hit = _BUILD_MEMO.get(memo_key)
    if hit is not None and hit.exists():
        rule = inject("native.cache")
        if rule is not None:
            _apply_cache_fault(hit, rule.kind)
        if _verify_cached(hit):
            _bump("cache_hits")
            return hit
        # Corrupt/truncated on disk: drop the memo entry and fall
        # through to a full (silent) rebuild.
        with _BUILD_MEMO_LOCK:
            _BUILD_MEMO.pop(memo_key, None)
    c_source = compile_c(source, filename, n_pes=n_pes)
    shim_header, shim_source = _shim_sources()
    digest = hashlib.sha256(
        "\x00".join(
            [c_source, shim_header, shim_source, cc, " ".join(CFLAGS)]
        ).encode()
    ).hexdigest()
    binary = cache_dir() / f"lol-{digest[:24]}"

    def _build() -> pathlib.Path:
        if binary.exists():
            # Warm hit (possibly from a concurrent builder) — verified
            # against its recorded checksum before reuse.
            rule = inject("native.cache")
            if rule is not None:
                _apply_cache_fault(binary, rule.kind)
            if _verify_cached(binary):
                _bump("cache_hits")
                return binary
        workdir = pathlib.Path(
            tempfile.mkdtemp(prefix="build-", dir=cache_dir())
        )
        rt = _obs.ACTIVE
        t0 = time.perf_counter() if rt is not None else 0.0
        try:
            tu = workdir / "program.c"
            tu.write_text(c_source)
            tmp_bin = workdir / "program"
            retries = int(
                os.environ.get("LOL_BUILD_RETRIES", DEFAULT_BUILD_RETRIES)
            )
            attempts = 1 + max(0, retries)
            for attempt in range(1, attempts + 1):
                rule = inject("native.build")
                if rule is not None and rule.kind == "fail":
                    # Injected transient toolchain failure (a cc OOM
                    # kill, a flaky NFS cache dir, ...).
                    if attempt < attempts:
                        _bump("transient_retries")
                        continue
                    raise NativeBuildTransientError(
                        f"injected fault at site 'native.build' exhausted "
                        f"{attempts} build attempts"
                    )
                proc = subprocess.run(
                    [
                        cc,
                        *CFLAGS,
                        "-DLOL_SHMEM_SHIM",
                        f"-I{_SHIM_DIR}",
                        str(tu),
                        str(SHIM_SOURCE),
                        "-o",
                        str(tmp_bin),
                        "-lm",
                    ],
                    capture_output=True,
                    text=True,
                )
                if proc.returncode == 0:
                    break
                if proc.returncode < 0:
                    # Killed by a signal: environmental, not a verdict
                    # on the generated C — retry within budget.
                    if attempt < attempts:
                        _bump("transient_retries")
                        continue
                    raise NativeBuildTransientError(
                        f"{cc} was killed by signal {-proc.returncode} "
                        f"on all {attempts} attempts:\n{proc.stderr.strip()}"
                    )
                raise NativeBuildError(
                    f"{cc} rejected the generated C "
                    f"(exit {proc.returncode}):\n{proc.stderr.strip()}"
                )
            # Record the binary's own checksum *before* publishing the
            # binary: a reader that can see the binary can always see
            # its checksum (the reverse orphan is harmlessly evicted).
            digest = hashlib.sha256(tmp_bin.read_bytes()).hexdigest()
            tmp_sum = workdir / "program.sha256"
            tmp_sum.write_text(digest + "\n")
            os.replace(tmp_sum, _checksum_path(binary))
            os.replace(tmp_bin, binary)  # atomic vs. concurrent builders
            _bump("builds")
            if rt is not None and rt.trace_on:
                rt.tracer.complete(
                    "build",
                    "cc",
                    t0,
                    time.perf_counter() - t0,
                    args={"cc": cc, "binary": binary.name, "attempts": attempt},
                )
            return binary
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    built = _build_flight.guard(str(binary), _build)
    with _BUILD_MEMO_LOCK:
        if len(_BUILD_MEMO) >= _BUILD_MEMO_MAX:
            _BUILD_MEMO.clear()  # whole-source keys: a flat reset is fine
        _BUILD_MEMO[memo_key] = built
    return built


def _shm_dir() -> Optional[str]:
    """Preferred directory for the world file (RAM-backed when possible)."""
    return "/dev/shm" if os.path.isdir("/dev/shm") else None


def _drain(
    proc: subprocess.Popen,
    stdin_data: Optional[str],
    deadline: float,
) -> tuple[int, str, str, bool]:
    """Feed stdin / collect output for one PE; returns (rc, out, err, late)."""
    try:
        out, err = proc.communicate(
            input=stdin_data, timeout=max(0.1, deadline - time.monotonic())
        )
        return proc.returncode, out, err, False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return proc.returncode, out or "", err or "", True


def run_native(
    binary: pathlib.Path,
    n_pes: int,
    *,
    seed: Optional[int] = None,
    stdin_lines: Optional[Sequence[Sequence[str]]] = None,
    barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
) -> SpmdResult:
    """Launch ``n_pes`` processes of a built binary as one SHMEM world.

    Every PE's stdout is captured separately (the per-PE ``outputs`` of
    the result); stderr is reserved for shim/program diagnostics and
    quoted in the error when a PE fails.  Stragglers are killed at the
    overall deadline and named by rank, mirroring the pool executor.
    """
    if n_pes < 1:
        raise LolParallelError(f"need at least 1 PE, got {n_pes}")
    with tempfile.TemporaryDirectory(
        prefix="lol-world-", dir=_shm_dir()
    ) as tmp:
        world = pathlib.Path(tmp) / "world"
        world.touch()
        feeds: list[Optional[str]] = [
            (
                "\n".join(stdin_lines[pe]) + "\n"
                if stdin_lines and stdin_lines[pe] is not None
                else None
            )
            for pe in range(n_pes)
        ]
        procs: list[subprocess.Popen] = []
        try:
            for pe in range(n_pes):
                env = dict(os.environ)
                env["LOL_SHMEM_PE"] = str(pe)
                env["LOL_SHMEM_NPES"] = str(n_pes)
                env["LOL_SHMEM_FILE"] = str(world)
                env["LOL_SHMEM_TIMEOUT_MS"] = str(
                    int(barrier_timeout * 1000)
                )
                if seed is not None:
                    env["LOL_SEED"] = str(seed)
                procs.append(
                    subprocess.Popen(
                        [str(binary)],
                        stdin=(
                            subprocess.PIPE
                            if feeds[pe] is not None
                            else subprocess.DEVNULL
                        ),
                        stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE,
                        env=env,
                        text=True,
                    )
                )
            # Grace beyond the in-binary barrier deadline so the shim's
            # own per-PE diagnostic (exit 3) wins the race when PEs
            # diverge and only truly wedged processes get killed here.
            deadline = time.monotonic() + barrier_timeout + 15.0
            with ThreadPoolExecutor(max_workers=n_pes) as pool:
                results = list(
                    pool.map(
                        lambda pe: _drain(procs[pe], feeds[pe], deadline),
                        range(n_pes),
                    )
                )
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()

    late = [pe for pe, (_, _, _, timed_out) in enumerate(results) if timed_out]
    if late:
        raise LolParallelError(
            f"native PEs {late} failed to terminate within "
            f"{barrier_timeout + 15.0:.0f}s (deadlock?)"
        )
    failed = [
        (pe, rc, err)
        for pe, (rc, _, err, _) in enumerate(results)
        if rc != 0
    ]
    if failed:
        # A dying PE trips the shim's abort flag, so siblings exit with
        # the secondary "a sibling PE aborted" diagnostic; report the
        # root-cause PE, not the lowest-ranked casualty.
        failed.sort(key=lambda f: ("a sibling PE aborted" in f[2], f[0]))
        pe, rc, err = failed[0]
        detail = err.strip().splitlines()
        raise LolParallelError(
            f"native PE {pe} exited with status {rc}"
            + (f": {detail[-1]}" if detail else "")
            + (
                f" ({len(failed) - 1} more PE(s) also failed)"
                if len(failed) > 1
                else ""
            )
        )
    return SpmdResult(
        n_pes=n_pes,
        outputs=[out for _, out, _, _ in results],
        returns=[None] * n_pes,
    )


def run_native_source(
    source: str,
    n_pes: int = 1,
    *,
    filename: str = "<string>",
    seed: Optional[int] = None,
    stdin_lines: Optional[Sequence[Sequence[str]]] = None,
    barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
) -> SpmdResult:
    """Compile (cached), build (cached), and run in one call.

    This is what ``run_lolcode(..., engine="c")`` dispatches to; compile
    restrictions and toolchain absence both surface here, in the caller,
    never from inside a worker.
    """
    binary = build_native(source, filename, n_pes=n_pes)
    return run_native(
        binary,
        n_pes,
        seed=seed,
        stdin_lines=stdin_lines,
        barrier_timeout=barrier_timeout,
    )
