"""Build and launch natively compiled LOLCODE — the ``engine="c"`` path.

This is the half of the paper's deployment story the C backend alone
cannot provide: after :func:`~repro.compiler.c_backend.compile_c` emits
the translation unit, something must play the role of ``cc`` plus
``coprsh -np 16 ./x``.  On a development machine that is:

1. :func:`build_native` — compile the TU with the system C compiler,
   link it against the bundled single-node SHMEM shim
   (``lol_shmem_shim.c``/``.h``, itself compiled once to a cached
   object), and cache the binary on disk under ``~/.cache/repro-lcc``
   (override with ``$LOL_CC_CACHE``) keyed by the SHA-256 of the folded
   C text + shim sources + compiler + flags, with a single-flight guard
   so concurrent identical builds compile once.  A warm lookup is an
   in-process dict hit (``find_cc`` resolved once per ``($LOL_CC,
   $PATH)``, no hashing);
2. :func:`run_native` — run one job on a warm set of ``n_pes`` parked
   fork servers of that binary around a shared world file (``/dev/shm``
   when available): each server *is* its PE, and runs the job itself
   after restoring the program's pristine state (symmetric and
   ``lol_state`` sections, runtime-string arena, stdio memfds; the
   full list is in ``lol_shmem_shim.h``).  Per job that costs one
   header write and one frame read per PE; each PE's stdout/exit status
   come back in its frame and are marshalled into the standard
   :class:`~repro.shmem.runtime_threads.SpmdResult` shape.  Sets are
   started once per (binary, ``n_pes``), after a sha256 check of the
   binary, and parked in a small LRU; a job that any PE fails retires
   its set.  :func:`shutdown_native_workers` (also run at exit) stops
   them.

Missing toolchains raise :class:`NativeToolchainError` (distinct from
program-level :class:`~repro.compiler.c_backend.CompileError` restrictions)
so callers — the launcher, ``lolbench`` skip rows, the ``requires_cc``
test marker — can tell "this host cannot build" from "this program
cannot compile".

Knobs the native engine cannot honour (``max_steps``, op tracing, the
race detector) are refused by the launcher before this module is ever
reached; ``seed`` is forwarded as ``$LOL_SEED``, which seeds the
prelude's copy of the interpreters' per-PE Mersenne Twister, so a seeded
``WHATEVR`` program prints what ``ast`` and ``vm`` print.
"""

from __future__ import annotations

import atexit
import hashlib
import locale
import os
import pathlib
import queue
import select
import shutil
import signal
import struct
import subprocess
import tempfile
import threading
import time
from concurrent.futures import Future
from functools import lru_cache
from typing import Callable, Optional, Sequence, TypeVar

from .. import obs as _obs
from ..faults import inject
from ..lang.errors import LolError, LolParallelError
from ..shmem.api import DEFAULT_BARRIER_TIMEOUT
from ..shmem.runtime_threads import SpmdResult
from ..singleflight import SingleFlight
from .c_backend import compile_c

T = TypeVar("T")

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
#: steady state, and every timed bench rep).  A binary's sha256 is
#: checked when it enters the memo (built, or verified off the disk
#: cache) and again before each set spawn in :func:`run_native` (every
#: exec), not on every hit; the on-disk cache remains the cross-process
#: source of truth.
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
_NATIVE_EVENTS = (
    "builds",
    "cache_hits",
    "corrupt_rebuilds",
    "transient_retries",
    "warm_hits",
    "spawns",
    "respawns",
)
_M_NATIVE = _obs.get_registry().counter(
    "lol_native_events_total",
    "Native build/cache/launch events (builds, cache hits, corrupt "
    "rebuilds, transient cc retries, warm fork-server hits, set spawns, "
    "respawns of dead sets)",
)


def _bump(key: str) -> None:
    _M_NATIVE.inc(event=key)


def native_stats() -> dict:
    """Snapshot of the native counters (the ``native`` block of
    ``lolserve stats``) — read straight off the registry.

    ``builds``/``cache_hits`` count program binaries (the shared shim
    object is not counted); ``corrupt_rebuilds``/``transient_retries``
    count both.  ``warm_hits`` are jobs run on a parked fork-server set,
    ``spawns`` sets started, and ``respawns`` parked sets found dead and
    replaced (each also counts as a spawn).
    """
    return {key: int(_M_NATIVE.value(event=key)) for key in _NATIVE_EVENTS}


@lru_cache(maxsize=1)
def _shim_sources() -> tuple[str, str]:
    """The bundled shim's header and implementation text (read once)."""
    return SHIM_HEADER.read_text(), SHIM_SOURCE.read_text()


class NativeToolchainError(LolError):
    """This host cannot produce native binaries (no C compiler found).

    Deliberately *not* a :class:`~repro.compiler.c_backend.CompileError`:
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
    (:data:`DEFAULT_BUILD_RETRIES` extra attempts) is
    exhausted: a cc killed by a signal, or an injected ``native.build``
    fault.  Carries ``retryable = True`` so the scheduler's
    :class:`~repro.faults.RetryPolicy` re-submits the job.
    """

    retryable = True


class NativeBinaryEvictedError(NativeBuildTransientError):
    """A cached binary failed its sha256 check just before exec.

    It has been evicted, so building the source again compiles afresh;
    :func:`run_native_source` does that once.
    """


#: ``find_cc`` answers per ``($LOL_CC, $PATH)``: ``shutil.which`` walks
#: the whole PATH, and a warm build lookup must not.
_CC_MEMO: dict[tuple, Optional[str]] = {}


def find_cc() -> Optional[str]:
    """Absolute path of the system C compiler, or ``None``.

    ``$LOL_CC`` wins; otherwise the conventional names are probed in
    order (``cc``, ``gcc``, ``clang``).  Resolved once per ``($LOL_CC,
    $PATH)`` pair.
    """
    override = os.environ.get("LOL_CC")
    key = (override, os.environ.get("PATH"))
    try:
        return _CC_MEMO[key]
    except KeyError:
        pass
    found = None
    for cand in [override] if override else ["cc", "gcc", "clang"]:
        found = shutil.which(cand)
        if found:
            break
    if len(_CC_MEMO) >= 64:
        _CC_MEMO.clear()
    _CC_MEMO[key] = found
    return found


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
    """Damage a cached binary on disk (``native.cache`` injection).

    Corruption happens to real cache files in the real cache directory,
    so the verification path under test is exactly the production one.
    The damaged bytes replace the file rather than being written into
    it: a binary that parked fork servers are executing cannot be opened
    for writing (``ETXTBSY``), while a replacement models the same
    on-disk damage.
    """
    try:
        data = bytearray(binary.read_bytes())
        size = len(data)
        if kind == "truncate":
            del data[max(1, size // 2) :]
        elif kind == "corrupt":
            # XOR, not overwrite-with-a-pattern: the region might
            # already hold that pattern (ELF padding is zeros), and a
            # "corruption" that leaves the bytes unchanged tests nothing.
            for i in range(size // 2, min(size, size // 2 + 16)):
                data[i] ^= 0xFF
        damaged = binary.parent / (binary.name + ".damaged")
        damaged.write_bytes(bytes(data))
        os.chmod(damaged, binary.stat().st_mode)
        os.replace(damaged, binary)
    except OSError:
        pass


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
    hit = _BUILD_MEMO.get(memo_key)
    if hit is not None and hit.exists():
        # The bytes were checked when they entered the memo; only an
        # injected ``native.cache`` fault re-checks them here.
        rule = inject("native.cache")
        if rule is not None:
            _apply_cache_fault(hit, rule.kind)
        if rule is None or _verify_cached(hit):
            _bump("cache_hits")
            return hit
        # Corrupt/truncated on disk: drop the memo entry and fall
        # through to a full (silent) rebuild.
        _forget_build(hit)
    c_source = compile_c(source, filename, n_pes=n_pes)
    shim_header, shim_source = _shim_sources()
    digest = hashlib.sha256(
        "\x00".join(
            [c_source, shim_header, shim_source, cc, " ".join(CFLAGS)]
        ).encode()
    ).hexdigest()
    binary = cache_dir() / f"lol-{digest[:24]}"

    def _link(workdir: pathlib.Path, out: pathlib.Path) -> list[str]:
        tu = workdir / "program.c"
        tu.write_text(c_source)
        # The shim object goes last: its zero-size page-aligned anchor
        # pads the lol_sym section out to a whole page (see the header).
        return [
            *_cc_argv(cc),
            str(tu),
            str(_shim_object(cc)),
            "-o",
            str(out),
            "-lm",
        ]

    built = _cached_build(binary, cc, _link, program=True)
    with _BUILD_MEMO_LOCK:
        if len(_BUILD_MEMO) >= _BUILD_MEMO_MAX:
            _BUILD_MEMO.clear()  # whole-source keys: a flat reset is fine
        _BUILD_MEMO[memo_key] = built
    return built


def _forget_build(binary: pathlib.Path) -> None:
    """Drop every memo entry that points at ``binary``."""
    with _BUILD_MEMO_LOCK:
        for key in [k for k, v in _BUILD_MEMO.items() if v == binary]:
            del _BUILD_MEMO[key]


def _cc_argv(cc: str) -> list[str]:
    return [cc, *CFLAGS, "-DLOL_SHMEM_SHIM", f"-I{_SHIM_DIR}"]


def _shim_object(cc: str) -> pathlib.Path:
    """The shim compiled once to a cached object file for ``cc``.

    Every program build links this object instead of recompiling the
    shim; it is keyed on both shim sources, the compiler and the flags,
    and verified like a binary before each reuse.
    """
    shim_header, shim_source = _shim_sources()
    digest = hashlib.sha256(
        "\x00".join([shim_header, shim_source, cc, " ".join(CFLAGS)]).encode()
    ).hexdigest()
    obj = cache_dir() / f"shim-{digest[:24]}.o"

    def _compile(workdir: pathlib.Path, out: pathlib.Path) -> list[str]:
        return [*_cc_argv(cc), "-c", str(SHIM_SOURCE), "-o", str(out)]

    return _cached_build(obj, cc, _compile, program=False)


def _cached_build(
    target: pathlib.Path,
    cc: str,
    argv: Callable[[pathlib.Path, pathlib.Path], list[str]],
    *,
    program: bool,
) -> pathlib.Path:
    """Produce ``target`` with ``cc`` unless a verified copy is cached.

    ``argv(workdir, out)`` returns the compiler command writing ``out``.
    Single-flight guarded per target; the result is published with an
    atomic rename after its sha256 sidecar.  ``program`` selects whether
    the ``builds``/``cache_hits`` counters (which count program
    binaries) move.
    """

    def _build() -> pathlib.Path:
        if target.exists():
            # Warm hit (possibly from a concurrent builder) — verified
            # against its recorded checksum before reuse.
            rule = inject("native.cache")
            if rule is not None:
                _apply_cache_fault(target, rule.kind)
            if _verify_cached(target):
                if program:
                    _bump("cache_hits")
                return target
        workdir = pathlib.Path(
            tempfile.mkdtemp(prefix="build-", dir=cache_dir())
        )
        rt = _obs.ACTIVE
        t0 = time.perf_counter() if rt is not None else 0.0
        try:
            out = workdir / "out"
            attempts = _run_cc(
                cc,
                argv(workdir, out),
                "the generated C" if program else "the SHMEM shim",
            )
            # Record the artifact's own checksum *before* publishing it:
            # a reader that can see the artifact can always see its
            # checksum (the reverse orphan is harmlessly evicted).
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            tmp_sum = workdir / "out.sha256"
            tmp_sum.write_text(digest + "\n")
            os.replace(tmp_sum, _checksum_path(target))
            os.replace(out, target)  # atomic vs. concurrent builders
            if program:
                _bump("builds")
            if rt is not None and rt.trace_on:
                rt.tracer.complete(
                    "build",
                    "cc",
                    t0,
                    time.perf_counter() - t0,
                    args={
                        "cc": cc,
                        "binary": target.name,
                        "attempts": attempts,
                    },
                )
            return target
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    return _build_flight.guard(str(target), _build)


def _run_cc(cc: str, argv: list[str], what: str) -> int:
    """Run one compiler command building ``what``, retrying transient
    failures; returns the number of attempts it took."""
    attempts = 1 + DEFAULT_BUILD_RETRIES
    for attempt in range(1, attempts + 1):
        rule = inject("native.build")
        if rule is not None and rule.kind == "fail":
            # Injected transient toolchain failure (a cc OOM kill, a
            # flaky NFS cache dir, ...).
            if attempt < attempts:
                _bump("transient_retries")
                continue
            raise NativeBuildTransientError(
                f"injected fault at site 'native.build' exhausted "
                f"{attempts} build attempts"
            )
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode == 0:
            return attempt
        if proc.returncode < 0:
            # Killed by a signal: environmental, not a verdict on the
            # generated C — retry within budget.
            if attempt < attempts:
                _bump("transient_retries")
                continue
            raise NativeBuildTransientError(
                f"{cc} was killed by signal {-proc.returncode} "
                f"on all {attempts} attempts:\n{proc.stderr.strip()}"
            )
        raise NativeBuildError(
            f"{cc} rejected {what} "
            f"(exit {proc.returncode}):\n{proc.stderr.strip()}"
        )
    raise AssertionError("unreachable: the loop returns or raises")


def _shm_dir() -> Optional[str]:
    """Preferred directory for the world file (RAM-backed when possible)."""
    return "/dev/shm" if os.path.isdir("/dev/shm") else None


# -- warm fork-server sets ---------------------------------------------------
#
# ``run_native`` never execs a binary per job.  Each (binary, n_pes) gets a
# set of n_pes parked fork servers -- the program binary exec'd once with
# LOL_SHMEM_FORKSERVER=1, which makes the shim's lol_shmem_main a job loop
# -- around one world file.  A job is a header plus stdin bytes written to
# every server, answered by one frame per PE once that PE has run the
# program from its pristine state.  The byte layouts, and what a server
# resets between jobs, are documented in lol_shmem_shim.h.

_HEADER = struct.Struct("=qqqq")  # seed present, seed, stdin bytes, timeout ms
_FRAME = struct.Struct("=qqq")  # exit status, stdout bytes, stderr bytes

#: Idle warm sets kept parked, least recently used evicted first.
_WARM_SETS_MAX = 8


def _text(data: bytes) -> str:
    """Decode a PE's output exactly as ``Popen(text=True)`` would."""
    text = data.decode(locale.getpreferredencoding(False))
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class _Spawner:
    """Starts every fork server from one long-lived thread.

    The servers set ``PR_SET_PDEATHSIG``, which the kernel fires when
    the *thread* that forked them exits, not the process.  Spawned from
    a short-lived caller thread, a set would die under the next caller
    that checked it out.
    """

    def __init__(self) -> None:
        self.forget()

    def forget(self) -> None:
        """Start over (also after ``fork``: the thread does not exist in
        the child)."""
        self._lock = threading.Lock()
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: Optional[threading.Thread] = None

    def call(self, fn: Callable[[], T]) -> T:
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="lol-native-spawner", daemon=True
                )
                self._thread.start()
        done: Future = Future()
        self._queue.put((fn, done))
        return done.result()

    def _loop(self) -> None:
        while True:
            fn, done = self._queue.get()
            try:
                done.set_result(fn())
            except BaseException as exc:  # handed to the caller
                done.set_exception(exc)


_SPAWNER = _Spawner()


class _ForkServerSet:
    """``n_pes`` parked fork servers of one binary, sharing a world file.

    The file is created empty here, so its control page (barrier state,
    abort flag) starts zeroed; each server maps it once, before its first
    frame, and the file is unlinked as soon as every server has sent one,
    so a launcher killed after that leaves no name behind.  A job that
    any PE fails ends that PE's server, so such a set is never reused.
    Each server leads its own process group, which :meth:`kill` signals.
    """

    def __init__(self, binary: pathlib.Path, n_pes: int) -> None:
        world_fd, self.world = tempfile.mkstemp(
            prefix="lol-world-", dir=_shm_dir()
        )
        os.close(world_fd)  # the servers open it by path
        self.world_linked = True
        self.procs: list[subprocess.Popen] = []
        try:
            _SPAWNER.call(lambda: self._spawn(binary, n_pes))
        except BaseException:
            self.close()
            raise

    def _spawn(self, binary: pathlib.Path, n_pes: int) -> None:
        for pe in range(n_pes):
            env = dict(os.environ)
            env["LOL_SHMEM_FORKSERVER"] = "1"
            env["LOL_SHMEM_PE"] = str(pe)
            env["LOL_SHMEM_NPES"] = str(n_pes)
            env["LOL_SHMEM_FILE"] = self.world
            self.procs.append(
                subprocess.Popen(
                    [str(binary)],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    env=env,
                    bufsize=0,
                    start_new_session=True,
                )
            )

    def alive(self) -> bool:
        """Every server still running (checked without reaping, so a
        dead server's pid stays reserved until :meth:`close`)."""
        for proc in self.procs:
            if proc.returncode is not None:
                return False
            try:
                if os.waitid(
                    os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT
                ) is not None:
                    return False
            except ChildProcessError:
                return False
        return True

    def kill_server(self, pe: int) -> None:
        """SIGKILL one parked server and wait until it is dead (the
        ``native.worker`` fault)."""
        proc = self.procs[pe]
        os.kill(proc.pid, signal.SIGKILL)
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)

    def kill(self) -> None:
        """SIGKILL every server's process group; safe from any thread."""
        for proc in self.procs:
            if proc.returncode is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass

    def close(self) -> None:
        self.kill()
        for proc in self.procs:
            for pipe in (proc.stdin, proc.stdout):
                if pipe is not None:
                    pipe.close()
            proc.wait()
        self._unlink_world()

    def _unlink_world(self) -> None:
        if self.world_linked:
            self.world_linked = False
            try:
                os.unlink(self.world)
            except OSError:
                pass

    def run(
        self,
        feeds: list[bytes],
        seed: Optional[int],
        timeout_ms: int,
        deadline: float,
    ) -> tuple[list, list[int], Optional[int]]:
        """Dispatch one job to every server and collect the frames.

        Returns ``(frames, late, dead)``: ``frames[pe]`` is ``(rc, out,
        err)`` or ``None``; ``late`` lists PEs without a frame at the
        deadline; ``dead`` is the first PE whose server died mid-job.
        The set is only reusable when ``late`` is empty and ``dead`` is
        ``None``.
        """
        n_pes = len(self.procs)
        frames: list = [None] * n_pes
        for pe, proc in enumerate(self.procs):
            header = _HEADER.pack(
                seed is not None, seed or 0, len(feeds[pe]), timeout_ms
            )
            try:
                _write_all(proc.stdin.fileno(), header + feeds[pe])
            except BrokenPipeError:
                return frames, [], pe
        poller = select.poll()
        pending: dict[int, int] = {}
        for pe, proc in enumerate(self.procs):
            fd = proc.stdout.fileno()
            poller.register(fd, select.POLLIN)
            pending[fd] = pe
        bufs = [bytearray() for _ in range(n_pes)]
        while pending:
            left = deadline - time.monotonic()
            if left <= 0:
                break
            for fd, _ in poller.poll(left * 1000):
                pe = pending[fd]
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return frames, [], pe
                buf = bufs[pe]
                buf += chunk
                if len(buf) < _FRAME.size:
                    continue
                rc, n_out, n_err = _FRAME.unpack_from(buf)
                end = _FRAME.size + n_out + n_err
                if len(buf) >= end:
                    out = bytes(buf[_FRAME.size : _FRAME.size + n_out])
                    err = bytes(buf[_FRAME.size + n_out : end])
                    frames[pe] = (rc, _text(out), _text(err))
                    poller.unregister(fd)
                    del pending[fd]
        if not pending:
            self._unlink_world()
        return frames, sorted(pending.values()), None


class _WarmSets:
    """Parked fork-server sets keyed by (binary path, ``n_pes``).

    A set is checked out for exactly one job at a time; concurrent jobs
    on one key each get their own set.  At most :data:`_WARM_SETS_MAX`
    idle sets stay parked, least recently used evicted first.
    """

    def __init__(self) -> None:
        self.forget()

    def forget(self) -> None:
        """Start over (also after ``fork``: the parent's sets belong to
        the parent, and a child writing to their pipes would interleave
        with it)."""
        self._lock = threading.Lock()
        self._idle: list[tuple[tuple, _ForkServerSet]] = []
        self._busy: set = set()

    def take(self, key: tuple) -> Optional[_ForkServerSet]:
        with self._lock:
            for i in range(len(self._idle) - 1, -1, -1):
                if self._idle[i][0] == key:
                    servers = self._idle.pop(i)[1]
                    self._busy.add(servers)
                    return servers
        return None

    def spawn(self, binary: pathlib.Path, n_pes: int) -> _ForkServerSet:
        servers = _ForkServerSet(binary, n_pes)
        with self._lock:
            self._busy.add(servers)
        return servers

    def give_back(self, key: tuple, servers: _ForkServerSet) -> None:
        with self._lock:
            self._busy.discard(servers)
            self._idle.append((key, servers))
            evicted = (
                self._idle.pop(0)[1]
                if len(self._idle) > _WARM_SETS_MAX
                else None
            )
        if evicted is not None:
            evicted.close()

    def discard(self, servers: _ForkServerSet) -> None:
        with self._lock:
            self._busy.discard(servers)
        servers.close()

    def shutdown(self) -> None:
        with self._lock:
            idle = [servers for _, servers in self._idle]
            self._idle = []
            busy = list(self._busy)
        for servers in busy:
            servers.kill()  # its job sees EOF and discards it
        for servers in idle:
            servers.close()


_WARM = _WarmSets()


def _forget_after_fork() -> None:
    _SPAWNER.forget()
    _WARM.forget()


os.register_at_fork(after_in_child=_forget_after_fork)


def shutdown_native_workers() -> None:
    """Stop every parked fork server (also run at interpreter exit)."""
    _WARM.shutdown()


atexit.register(shutdown_native_workers)


def run_native(
    binary: pathlib.Path,
    n_pes: int,
    *,
    seed: Optional[int] = None,
    stdin_lines: Optional[Sequence[Sequence[str]]] = None,
    barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
) -> SpmdResult:
    """Run a built binary as one ``n_pes``-PE SHMEM world.

    The job goes to a warm set of fork servers for ``(binary, n_pes)``
    (spawned on a miss, respawned if any server died while parked).
    Every PE's stdout is captured separately (the per-PE ``outputs`` of
    the result); stderr is reserved for shim/program diagnostics and
    quoted in the error when a PE fails.  Stragglers are killed at the
    overall deadline and named by rank, mirroring the pool executor.
    """
    if n_pes < 1:
        raise LolParallelError(f"need at least 1 PE, got {n_pes}")
    feeds = [
        (
            ("\n".join(stdin_lines[pe]) + "\n").encode()
            if stdin_lines and stdin_lines[pe] is not None
            else b""
        )
        for pe in range(n_pes)
    ]
    if seed is not None and not -(2**63) <= seed < 2**63:
        raise LolParallelError(
            f"engine='c' needs a seed that fits in 64 bits, got {seed}"
        )
    rt = _obs.ACTIVE
    key = (str(binary), n_pes)
    servers = _WARM.take(key)
    if servers is not None:
        for pe in range(n_pes):
            rule = inject("native.worker", rank=pe)
            if rule is not None and rule.kind == "kill":
                servers.kill_server(pe)
        if servers.alive():
            _bump("warm_hits")
        else:
            # Dispatching to a half-dead set would stall the live PEs at
            # shmem_init's barrier until the deadline: replace it first.
            _bump("respawns")
            _WARM.discard(servers)
            servers = None
    if servers is None:
        t0 = time.perf_counter() if rt is not None else 0.0
        # Every exec runs bytes checked here, once per set.
        if not _verify_cached(binary):
            _forget_build(binary)
            raise NativeBinaryEvictedError(
                f"native binary {binary.name} failed its integrity check "
                f"before exec and was evicted from the cache"
            )
        servers = _WARM.spawn(binary, n_pes)
        _bump("spawns")
        if rt is not None and rt.trace_on:
            rt.tracer.complete(
                "native",
                "spawn",
                t0,
                time.perf_counter() - t0,
                args={"binary": binary.name, "n_pes": n_pes},
            )
    t0 = time.perf_counter() if rt is not None else 0.0
    # Grace beyond the in-binary barrier deadline so the shim's own
    # per-PE diagnostic (exit 3) wins the race when PEs diverge and only
    # truly wedged processes get killed here.
    deadline = time.monotonic() + barrier_timeout + 15.0
    try:
        frames, late, dead = servers.run(
            feeds, seed, int(barrier_timeout * 1000), deadline
        )
    except BaseException:
        _WARM.discard(servers)
        raise
    if rt is not None and rt.trace_on:
        rt.tracer.complete(
            "native",
            "job",
            t0,
            time.perf_counter() - t0,
            args={"binary": binary.name, "n_pes": n_pes},
        )
    failed = [
        (pe, frame[0], frame[2])
        for pe, frame in enumerate(frames)
        if frame is not None and frame[0] != 0
    ]
    if late or dead is not None or failed:
        _WARM.discard(servers)
    else:
        _WARM.give_back(key, servers)

    if dead is not None:
        raise LolParallelError(
            f"native PE {dead}'s fork server died mid-job; its warm set "
            f"was discarded"
        )
    if late:
        raise LolParallelError(
            f"native PEs {late} failed to terminate within "
            f"{barrier_timeout + 15.0:.0f}s (deadlock?)"
        )
    if failed:
        # A dying PE trips the shim's abort flag, so siblings exit with
        # the secondary "a sibling PE aborted" diagnostic, and a PE that
        # waited on a dead sibling may time out; report the root-cause
        # PE, not the lowest-ranked casualty: a death by signal first,
        # then any other diagnostic, a barrier timeout, a sibling abort.
        failed.sort(
            key=lambda f: (
                f[1] >= 0,
                "a sibling PE aborted" in f[2],
                "barrier timed out" in f[2],
                f[0],
            )
        )
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
        outputs=[out for _, out, _ in frames],
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
    for attempt in (1, 2):
        binary = build_native(source, filename, n_pes=n_pes)
        try:
            return run_native(
                binary,
                n_pes,
                seed=seed,
                stdin_lines=stdin_lines,
                barrier_timeout=barrier_timeout,
            )
        except NativeBinaryEvictedError:
            if attempt == 2:
                raise
    raise AssertionError("unreachable: the loop returns or raises")
