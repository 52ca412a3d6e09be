/* Bundled single-node OpenSHMEM shim for lcc-emitted programs.
 *
 * This header is included by the generated translation unit when it is
 * built with -DLOL_SHMEM_SHIM (the engine="c" path driven by
 * repro.compiler.native).  It implements the subset of the OpenSHMEM
 * API the C backend emits -- init/finalize, my_pe/n_pes, barrier_all,
 * typed scalar p/g, contiguous get/put, and the set/test/clear lock
 * trio -- over one mmap'd file shared by n_pes ordinary OS processes.
 *
 * The trick that makes the backend's "file-scope statics are per-PE"
 * model hold: every symmetric object is tagged LOL_SYMMETRIC, which
 * places it in the dedicated page-aligned `lol_sym` section.  When the
 * world is set up each PE copies that section into its own slot of the
 * shared file and remaps the section MAP_FIXED onto the slot, so
 *
 *   - plain C accesses to a symmetric variable keep working unchanged
 *     (same virtual addresses, now backed by the shared file), and
 *   - a sibling PE's copy is reachable as  slot(pe) + (addr - section
 *     start); the section layout is identical in every process because
 *     all PEs run the same executable.
 *
 * The remap works in whole pages, so the section must also *end* on a
 * page boundary, or the data the linker puts after it would move into
 * the world file too.  Every translation unit that includes this header
 * emits a zero-size page-aligned anchor into the section, and the shim's
 * object is linked last, so its anchor pads the section out to a page.
 *
 * Launch protocol (what repro.compiler.native sets up):
 *   LOL_SHMEM_NPES        number of PEs (default 1)
 *   LOL_SHMEM_PE          this process's PE id (default 0)
 *   LOL_SHMEM_FILE        path to the shared file, created empty; may be
 *                         omitted when NPES is 1, in which case the
 *                         binary runs standalone in private memory
 *   LOL_SHMEM_TIMEOUT_MS  barrier/lock deadline (default 120000)
 *   LOL_SHMEM_FORKSERVER  "1" makes the process a job server (below);
 *                         internal to the launcher, never a user setting
 *
 * The generated program's entry is `lol_main`; its `main` hands it to
 * lol_shmem_main.  Disarmed, that runs the entry once, so a binary built
 * by `lolcc --build` runs directly as a serial program with no
 * environment at all.
 *
 * Job server.  Exec, dynamic linking and libc start-up cost more than
 * most jobs, so the launcher starts each PE's process once per (binary,
 * NPES) and parks it, and the process runs every job of that PE itself.
 * Armed, lol_shmem_main maps the world once, snapshots the program's
 * state, and then reads jobs from fd 0.  Each job is a header of four
 * native-endian int64s
 *
 *   seed present (0/1), seed, stdin byte count, timeout in ms
 *
 * followed by that many stdin bytes.  Before calling the entry the
 * server resets, per job:
 *
 *   - the symmetric section (this PE's slot) and the `lol_state`
 *     section -- every other file-scope object the backend emits, and
 *     the WHATEVR generator -- from the snapshot taken before the first
 *     job;
 *   - the arena behind lol_shmem_alloc (lol_fmt_*, lol_concat,
 *     lol_readline), freed wholesale;
 *   - fds 0-2, three memfds: stdin refilled with the job's bytes and its
 *     FILE buffer purged, stdout and stderr emptied;
 *   - the seed lol_shmem_seed returns and the barrier/lock deadline.
 *
 * What persists is the shim's own bookkeeping, which lives outside both
 * restored sections: the world mapping, the barrier sense, the arena's
 * first chunk and the job pipes (moved off fds 0 and 1).  The world's
 * control page is zeroed once, when the launcher creates the file for a
 * set; a finished job leaves its barrier count at zero.
 *
 * After the entry returns, the server writes one frame to the original
 * fd 1: three int64s
 *
 *   exit status (minus the signal number if killed), stdout bytes,
 *   stderr bytes
 *
 * then the stdout and stderr bytes.  A PE that ends itself mid-job --
 * lol_die (status 3), or SIGFPE/SIGSEGV/SIGBUS/SIGILL (minus the
 * signal) -- writes its frame first, trips the world's abort flag,
 * wakes the barrier waiters and then exits, so the launcher discards the
 * set.  A server that vanishes without a frame was killed from outside.
 * EOF on fd 0 retires the server.
 */
#ifndef LOL_SHMEM_SHIM_H
#define LOL_SHMEM_SHIM_H

#include <stddef.h>

/* Symmetric data lives in the remappable page-aligned section. */
#define LOL_SYMMETRIC __attribute__((section("lol_sym"), aligned(8)))

/* Every other mutable file-scope object of the program: restored from
 * its snapshot before each job. */
#define LOL_STATE __attribute__((section("lol_state")))

/* Pin both sections into existence (even for programs with no such
 * data); the page alignment of the `lol_sym` anchor keeps MAP_FIXED off
 * unrelated data on either side of it.  Zero-size, so an anchor never
 * adds a page of its own; `used` keeps -O2 from discarding it. */
__attribute__((section("lol_sym"), aligned(4096), used)) static char
    __lol_sym_anchor[0];
__attribute__((section("lol_state"), used)) static char __lol_state_anchor[0];

void shmem_init(void);
void shmem_finalize(void);
int shmem_my_pe(void);
int shmem_n_pes(void);
void shmem_barrier_all(void);

long long shmem_longlong_g(const long long *src, int pe);
void shmem_longlong_p(long long *dst, long long value, int pe);
double shmem_double_g(const double *src, int pe);
void shmem_double_p(double *dst, double value, int pe);
int shmem_int_g(const int *src, int pe);
void shmem_int_p(int *dst, int value, int pe);

void shmem_longlong_get(long long *dst, const long long *src, size_t n, int pe);
void shmem_longlong_put(long long *dst, const long long *src, size_t n, int pe);
void shmem_double_get(double *dst, const double *src, size_t n, int pe);
void shmem_double_put(double *dst, const double *src, size_t n, int pe);
void shmem_int_get(int *dst, const int *src, size_t n, int pe);
void shmem_int_put(int *dst, const int *src, size_t n, int pe);

void shmem_set_lock(long *lock);
void shmem_clear_lock(long *lock);
int shmem_test_lock(long *lock);

/* Run the program: once (standalone), or once per job (armed). */
int lol_shmem_main(int (*entry)(void));
/* Per-job arena for runtime YARNs; never returns NULL. */
void *lol_shmem_alloc(size_t n);
/* The job's seed as decimal text, or NULL when the run is unseeded. */
const char *lol_shmem_seed(void);

#endif /* LOL_SHMEM_SHIM_H */
