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
 * places it in the dedicated page-aligned `lol_sym` section.  At
 * shmem_init each PE copies that section into its own slot of the
 * shared file and remaps the section MAP_FIXED onto the slot, so
 *
 *   - plain C accesses to a symmetric variable keep working unchanged
 *     (same virtual addresses, now backed by the shared file), and
 *   - a sibling PE's copy is reachable as  slot(pe) + (addr - section
 *     start); the section layout is identical in every process because
 *     all PEs run the same executable.
 *
 * Launch protocol (what repro.compiler.native sets up):
 *   LOL_SHMEM_NPES        number of PEs (default 1)
 *   LOL_SHMEM_PE          this process's PE id (default 0)
 *   LOL_SHMEM_FILE        path to the (initially empty) shared file;
 *                         may be omitted when NPES is 1, in which case
 *                         the binary runs standalone in private memory
 *   LOL_SHMEM_TIMEOUT_MS  barrier/lock deadline (default 120000)
 *   LOL_SHMEM_FORKSERVER  "1" arms the fork server below; internal to
 *                         the driver, never a user setting
 *
 * A binary built by `lolcc --build` therefore runs directly as a
 * serial program with no environment at all.
 *
 * Fork server.  Exec, dynamic linking and libc start-up cost more than
 * most jobs, so the driver starts each PE's process once per (binary,
 * NPES) and parks it.  Armed, a constructor in the shim reads jobs from
 * fd 0 before main ever runs.  Each job is a header of four native-
 * endian int64s
 *
 *   seed present (0/1), seed, stdin byte count, timeout in ms
 *
 * followed by that many stdin bytes.  For each job the server makes
 * memfds for the child's stdin/stdout/stderr and fork()s; the child
 * points fds 0-2 at them, sets or unsets LOL_SEED, sets
 * LOL_SHMEM_TIMEOUT_MS, and returns from the constructor into main.
 * The server waits for the child and writes one frame to fd 1: three
 * int64s
 *
 *   exit status (minus the signal number if killed), stdout bytes,
 *   stderr bytes
 *
 * then the stdout and stderr bytes.  EOF on fd 0 retires the server.
 * Forking rather than looping inside main is the point: every job
 * starts from the image exec produced -- symmetric section, file-scope
 * data, WHATEVR generator state and the heap the lol_fmt_* helpers
 * never free -- so no reset code exists to get wrong.  The driver
 * truncates LOL_SHMEM_FILE to zero before each job, so shmem_init
 * re-zeroes the control page (barrier state and abort flag) of the
 * previous job.
 */
#ifndef LOL_SHMEM_SHIM_H
#define LOL_SHMEM_SHIM_H

#include <stddef.h>

/* Symmetric data lives in the remappable page-aligned section. */
#define LOL_SYMMETRIC __attribute__((section("lol_sym"), aligned(8)))

/* Force the section to exist (even for programs with no symmetric
 * data) and pin its start to a page boundary so MAP_FIXED cannot
 * clobber unrelated data in front of it.  Each translation unit gets
 * its own anchor; `used` keeps -O2 from discarding it. */
__attribute__((section("lol_sym"), aligned(4096), used)) static char
    __lol_sym_anchor;

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

#endif /* LOL_SHMEM_SHIM_H */
