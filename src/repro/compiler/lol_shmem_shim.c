/* Single-node OpenSHMEM shim implementation.  See lol_shmem_shim.h for
 * the model and the launch protocol.
 *
 * World layout inside the shared file:
 *
 *   [ control page ][ PE 0 slot ][ PE 1 slot ] ... [ PE n-1 slot ]
 *
 * where every slot is the program's `lol_sym` section rounded up to a
 * whole number of pages.  The control page carries the sense-reversing
 * barrier and a layout checksum; symmetric locks are ordinary symmetric
 * longs and are arbitrated with compare-and-swap on PE 0's copy, which
 * is the OpenSHMEM lock-home convention.
 *
 * Synchronisation uses the GCC/Clang __atomic builtins on plain
 * integers in the shared mapping (lock-free at 4/8 bytes on every
 * target we care about); waits spin briefly, then yield, then sleep,
 * and give up with a diagnostic once the deadline passes so a diverged
 * program turns into a per-PE error instead of a hung test suite.
 *
 * The constructor at the end of this file is the fork server: armed by
 * LOL_SHMEM_FORKSERVER=1, it turns the process into a parked PE that
 * forks one child per job (see the launch protocol in the header).
 */
#define _GNU_SOURCE /* memfd_create, MAP_ANONYMOUS on glibc */
#include "lol_shmem_shim.h"

#include <errno.h>
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

extern char __start_lol_sym[], __stop_lol_sym[];

typedef struct {
    uint64_t slot_bytes;   /* published by the first PE; sanity check   */
    uint32_t barrier_count;
    uint32_t barrier_sense;
    uint32_t abort_flag;   /* a dying PE trips this so siblings exit    */
} lol_ctrl_t;

static int g_pe = 0;
static int g_npes = 1;
static char *g_world = NULL;      /* whole-file mapping; NULL = standalone */
static lol_ctrl_t *g_ctrl = NULL;
static size_t g_ctrl_bytes = 0;
static size_t g_slot = 0;
static int g_sense = 1;
static long long g_timeout_ms = 120000;

static long long lol_now_ms(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000 + ts.tv_nsec / 1000000;
}

static void lol_die(const char *what)
{
    fprintf(stderr, "lol-shmem[PE %d]: %s (errno: %s)\n", g_pe, what,
            strerror(errno));
    if (g_ctrl)
        __atomic_store_n(&g_ctrl->abort_flag, 1u, __ATOMIC_SEQ_CST);
    exit(3);
}

static void lol_pause(unsigned spins)
{
    if (spins < 1024)
        return; /* stay hot: barriers are usually near-simultaneous */
    if (spins < 4096) {
        sched_yield();
        return;
    }
    struct timespec ts = {0, 200000}; /* 200us */
    nanosleep(&ts, NULL);
}

static void lol_check_world(long long deadline, const char *who)
{
    if (g_ctrl && __atomic_load_n(&g_ctrl->abort_flag, __ATOMIC_SEQ_CST))
        lol_die("a sibling PE aborted");
    if (lol_now_ms() > deadline)
        lol_die(who);
}

/* Translate a symmetric address in THIS process to the same object in
 * `pe`'s slot.  Offsets are portable across the PEs because they all
 * run the same executable, hence the same section layout. */
static char *lol_sym_addr(const void *local, int pe)
{
    ptrdiff_t off = (const char *)local - __start_lol_sym;
    if (pe < 0 || pe >= g_npes)
        lol_die("remote target PE out of range");
    if (off < 0 || off >= __stop_lol_sym - __start_lol_sym)
        lol_die("address is not a symmetric object");
    if (g_world == NULL) /* standalone single PE: no remapping happened */
        return (char *)(uintptr_t)local;
    return g_world + g_ctrl_bytes + (size_t)pe * g_slot + (size_t)off;
}

void shmem_init(void)
{
    const char *pe_env = getenv("LOL_SHMEM_PE");
    const char *np_env = getenv("LOL_SHMEM_NPES");
    const char *file = getenv("LOL_SHMEM_FILE");
    const char *to_env = getenv("LOL_SHMEM_TIMEOUT_MS");

    g_pe = pe_env ? atoi(pe_env) : 0;
    g_npes = np_env ? atoi(np_env) : 1;
    if (to_env)
        g_timeout_ms = atoll(to_env);
    if (g_npes < 1 || g_pe < 0 || g_pe >= g_npes)
        lol_die("bad LOL_SHMEM_PE/LOL_SHMEM_NPES");
    if (file == NULL) {
        if (g_npes != 1)
            lol_die("LOL_SHMEM_NPES > 1 needs LOL_SHMEM_FILE");
        return; /* standalone serial run: private memory is already correct */
    }

    size_t page = (size_t)sysconf(_SC_PAGESIZE);
    size_t seg = (size_t)(__stop_lol_sym - __start_lol_sym);
    g_slot = (seg + page - 1) / page * page;
    g_ctrl_bytes = (sizeof(lol_ctrl_t) + page - 1) / page * page;
    size_t total = g_ctrl_bytes + g_slot * (size_t)g_npes;

    int fd = open(file, O_RDWR);
    if (fd < 0)
        lol_die("cannot open LOL_SHMEM_FILE");
    if (ftruncate(fd, (off_t)total) != 0) /* idempotent: all PEs agree */
        lol_die("cannot size the shared world file");
    g_world = mmap(NULL, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (g_world == MAP_FAILED)
        lol_die("cannot map the shared world file");
    g_ctrl = (lol_ctrl_t *)g_world;

    /* Every PE publishes the slot size it computed; a mismatch means
     * different binaries were pointed at one world file. */
    uint64_t zero = 0;
    if (!__atomic_compare_exchange_n(&g_ctrl->slot_bytes, &zero,
                                     (uint64_t)g_slot, 0, __ATOMIC_SEQ_CST,
                                     __ATOMIC_SEQ_CST) &&
        zero != (uint64_t)g_slot)
        lol_die("shared world was created by a different binary");

    /* Seed my slot with my section's current contents, then remap the
     * section onto the slot.  The copy covers the whole page span; the
     * tail bytes past the section end belong only to this PE's slot
     * and are never addressed remotely (remote offsets are bounded by
     * the section size), so sharing them is harmless. */
    memcpy(g_world + g_ctrl_bytes + (size_t)g_pe * g_slot, __start_lol_sym,
           g_slot);
    if (mmap(__start_lol_sym, g_slot, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_FIXED, fd,
             (off_t)(g_ctrl_bytes + (size_t)g_pe * g_slot)) == MAP_FAILED)
        lol_die("cannot remap the symmetric section");
    close(fd);

    /* No PE may touch a sibling before that sibling has remapped. */
    shmem_barrier_all();
}

void shmem_finalize(void)
{
    if (g_world != NULL)
        shmem_barrier_all();
    fflush(stdout);
}

int shmem_my_pe(void) { return g_pe; }
int shmem_n_pes(void) { return g_npes; }

void shmem_barrier_all(void)
{
    if (g_npes == 1 || g_ctrl == NULL)
        return;
    __atomic_thread_fence(__ATOMIC_SEQ_CST);
    long long deadline = lol_now_ms() + g_timeout_ms;
    uint32_t pos = __atomic_fetch_add(&g_ctrl->barrier_count, 1u,
                                      __ATOMIC_SEQ_CST);
    if (pos + 1 == (uint32_t)g_npes) {
        /* Last arriver: reset the counter for the next round, then
         * release everyone by flipping the sense. */
        __atomic_store_n(&g_ctrl->barrier_count, 0u, __ATOMIC_SEQ_CST);
        __atomic_store_n(&g_ctrl->barrier_sense, (uint32_t)g_sense,
                         __ATOMIC_RELEASE);
    } else {
        unsigned spins = 0;
        while (__atomic_load_n(&g_ctrl->barrier_sense, __ATOMIC_ACQUIRE) !=
               (uint32_t)g_sense) {
            lol_check_world(deadline, "HUGZ barrier timed out "
                                      "(PEs diverged or a sibling died)");
            lol_pause(spins++);
        }
    }
    g_sense = !g_sense;
    __atomic_thread_fence(__ATOMIC_SEQ_CST);
}

/* -- one-sided data movement ------------------------------------------ */

#define LOL_DEF_SCALAR(NAME, TYPE)                                          \
    TYPE shmem_##NAME##_g(const TYPE *src, int pe)                          \
    {                                                                       \
        TYPE v;                                                             \
        __atomic_thread_fence(__ATOMIC_SEQ_CST);                            \
        memcpy(&v, lol_sym_addr(src, pe), sizeof v);                        \
        __atomic_thread_fence(__ATOMIC_SEQ_CST);                            \
        return v;                                                           \
    }                                                                       \
    void shmem_##NAME##_p(TYPE *dst, TYPE value, int pe)                    \
    {                                                                       \
        __atomic_thread_fence(__ATOMIC_SEQ_CST);                            \
        memcpy(lol_sym_addr(dst, pe), &value, sizeof value);                \
        __atomic_thread_fence(__ATOMIC_SEQ_CST);                            \
    }                                                                       \
    void shmem_##NAME##_get(TYPE *dst, const TYPE *src, size_t n, int pe)   \
    {                                                                       \
        __atomic_thread_fence(__ATOMIC_SEQ_CST);                            \
        memcpy(dst, lol_sym_addr(src, pe), n * sizeof *dst);                \
        __atomic_thread_fence(__ATOMIC_SEQ_CST);                            \
    }                                                                       \
    void shmem_##NAME##_put(TYPE *dst, const TYPE *src, size_t n, int pe)   \
    {                                                                       \
        __atomic_thread_fence(__ATOMIC_SEQ_CST);                            \
        memcpy(lol_sym_addr(dst, pe), src, n * sizeof *dst);                \
        __atomic_thread_fence(__ATOMIC_SEQ_CST);                            \
    }

LOL_DEF_SCALAR(longlong, long long)
LOL_DEF_SCALAR(double, double)
LOL_DEF_SCALAR(int, int)

/* -- locks -------------------------------------------------------------
 * OpenSHMEM convention: the lock word's home is PE 0's copy; owners
 * store pe+1 so 0 always means "free". */

void shmem_set_lock(long *lock)
{
    long *home = (long *)lol_sym_addr(lock, 0);
    long long deadline = lol_now_ms() + g_timeout_ms;
    unsigned spins = 0;
    for (;;) {
        long expected = 0;
        if (__atomic_compare_exchange_n(home, &expected, (long)g_pe + 1, 0,
                                        __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST))
            return;
        lol_check_world(deadline,
                        "IM SRSLY MESIN WIF: lock wait timed out");
        lol_pause(spins++);
    }
}

int shmem_test_lock(long *lock)
{
    long *home = (long *)lol_sym_addr(lock, 0);
    long expected = 0;
    if (__atomic_compare_exchange_n(home, &expected, (long)g_pe + 1, 0,
                                    __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST))
        return 0; /* acquired */
    return 1;
}

void shmem_clear_lock(long *lock)
{
    long *home = (long *)lol_sym_addr(lock, 0);
    __atomic_store_n(home, 0L, __ATOMIC_SEQ_CST);
}

/* -- fork server -------------------------------------------------------
 * Runs before main.  Disarmed (no LOL_SHMEM_FORKSERVER=1) it returns at
 * once, so standalone binaries behave exactly as before.  Armed, it
 * never returns in the server: each job is run by a fork()ed child that
 * returns from here into the program's unchanged main with a pristine
 * copy of the process image -- symmetric section, file-scope data,
 * rand() state and heap all as exec left them -- so nothing needs
 * resetting between jobs. */

static int lol_read_full(int fd, void *buf, size_t n)
{
    char *p = buf;
    while (n > 0) {
        ssize_t got = read(fd, p, n);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return 0;
        p += got;
        n -= (size_t)got;
    }
    return 1;
}

static int lol_write_full(int fd, const void *buf, size_t n)
{
    const char *p = buf;
    while (n > 0) {
        ssize_t put = write(fd, p, n);
        if (put < 0 && errno == EINTR)
            continue;
        if (put <= 0)
            return 0;
        p += put;
        n -= (size_t)put;
    }
    return 1;
}

/* Move n bytes from `from` to `to`; to < 0 discards them.  Returns 0
 * when `from` ends early (the driver is gone). */
static int lol_pump(int to, int from, int64_t n)
{
    char buf[65536];
    while (n > 0) {
        size_t want = n < (int64_t)sizeof buf ? (size_t)n : sizeof buf;
        if (!lol_read_full(from, buf, want))
            return 0;
        if (to >= 0 && !lol_write_full(to, buf, want))
            to = -1; /* keep the pipe framed even if the memfd failed */
        n -= (int64_t)want;
    }
    return 1;
}

static int64_t lol_fd_size(int fd)
{
    struct stat st;
    return fd >= 0 && fstat(fd, &st) == 0 ? (int64_t)st.st_size : 0;
}

static void lol_setenv_ll(const char *name, long long value)
{
    char text[32];
    snprintf(text, sizeof text, "%lld", value);
    setenv(name, text, 1);
}

__attribute__((constructor)) static void lol_fork_server(void)
{
    const char *armed = getenv("LOL_SHMEM_FORKSERVER");
    if (armed == NULL || strcmp(armed, "1") != 0)
        return;
    unsetenv("LOL_SHMEM_FORKSERVER");
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    for (;;) {
        int64_t hdr[4]; /* seed present, seed, stdin bytes, timeout ms */
        if (!lol_read_full(0, hdr, sizeof hdr))
            _exit(0); /* driver closed the job pipe: the set is retired */
        int in = memfd_create("lol-stdin", MFD_CLOEXEC);
        int out = memfd_create("lol-stdout", MFD_CLOEXEC);
        int err = memfd_create("lol-stderr", MFD_CLOEXEC);
        int ready = in >= 0 && out >= 0 && err >= 0;
        if (!lol_pump(ready ? in : -1, 0, hdr[2]))
            _exit(0);
        if (ready)
            lseek(in, 0, SEEK_SET);
        pid_t pid = ready ? fork() : -1;
        if (pid == 0) {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            dup2(in, 0);
            dup2(out, 1);
            dup2(err, 2);
            close(in);
            close(out);
            close(err);
            if (hdr[0])
                lol_setenv_ll("LOL_SEED", (long long)hdr[1]);
            else
                unsetenv("LOL_SEED");
            lol_setenv_ll("LOL_SHMEM_TIMEOUT_MS", (long long)hdr[3]);
            return; /* into main */
        }
        /* Frame: exit status (minus the signal number when killed, as
         * Python's Popen reports it), stdout bytes, stderr bytes -- sent
         * in one write so the driver wakes once per job. */
        int64_t frame[3] = {3, 0, 0};
        char why[160] = "";
        if (pid > 0) {
            int status = 0;
            while (waitpid(pid, &status, 0) < 0 && errno == EINTR)
                ;
            frame[0] = WIFSIGNALED(status) ? -(int64_t)WTERMSIG(status)
                                           : (int64_t)WEXITSTATUS(status);
            frame[1] = lol_fd_size(out);
            frame[2] = lol_fd_size(err);
        } else {
            snprintf(why, sizeof why,
                     "lol-shmem: fork server cannot start a job (errno: %s)\n",
                     strerror(errno));
            frame[2] = (int64_t)strlen(why);
        }
        size_t total = sizeof frame + (size_t)frame[1] + (size_t)frame[2];
        char *reply = malloc(total);
        if (reply == NULL)
            _exit(0);
        memcpy(reply, frame, sizeof frame);
        char *body = reply + sizeof frame;
        if (pid > 0) {
            if (pread(out, body, (size_t)frame[1], 0) != frame[1] ||
                pread(err, body + frame[1], (size_t)frame[2], 0) != frame[2])
                _exit(0);
        } else {
            memcpy(body, why, (size_t)frame[2]);
        }
        if (!lol_write_full(1, reply, total))
            _exit(0);
        free(reply);
        if (in >= 0)
            close(in);
        if (out >= 0)
            close(out);
        if (err >= 0)
            close(err);
    }
}
