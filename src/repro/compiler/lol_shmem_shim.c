/* Single-node OpenSHMEM shim implementation.  See lol_shmem_shim.h for
 * the model and the launch protocol.
 *
 * World layout inside the shared file:
 *
 *   [ control page ][ PE 0 slot ][ PE 1 slot ] ... [ PE n-1 slot ]
 *
 * where every slot is the program's `lol_sym` section (a whole number
 * of pages).  The control page carries the sense-reversing barrier and
 * a layout checksum; symmetric locks are ordinary symmetric longs and
 * are arbitrated with compare-and-swap on PE 0's copy, which is the
 * OpenSHMEM lock-home convention.
 *
 * Synchronisation uses the GCC/Clang __atomic builtins on plain
 * integers in the shared mapping (lock-free at 4/8 bytes on every
 * target we care about).  A barrier waiter spins briefly, then sleeps
 * in FUTEX_WAIT on the barrier sense until the last arriver wakes it;
 * every wait is bounded, so the abort flag and the deadline are still
 * checked and a diverged program turns into a per-PE error instead of a
 * hung test suite.
 *
 * lol_shmem_main at the end of this file is the job server: armed by
 * LOL_SHMEM_FORKSERVER=1, it turns the process into a parked PE that
 * runs one job after another (see the launch protocol in the header).
 */
#define _GNU_SOURCE /* memfd_create, MAP_ANONYMOUS, __fpurge on glibc */
#include "lol_shmem_shim.h"

#include <errno.h>
#include <fcntl.h>
#include <limits.h>
#include <linux/futex.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdio_ext.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

extern char __start_lol_sym[], __stop_lol_sym[];
extern char __start_lol_state[], __stop_lol_state[];

typedef struct {
    uint64_t slot_bytes;   /* published by the first PE; sanity check   */
    uint32_t barrier_count;
    uint32_t barrier_sense; /* also the futex barrier waiters sleep on  */
    uint32_t abort_flag;   /* a dying PE trips this so siblings exit    */
    uint32_t sleepers;     /* waiters inside FUTEX_WAIT right now       */
} lol_ctrl_t;

/* Busy-wait rounds before a barrier waiter sleeps.  Short: the launcher
 * and the PEs share the CPUs, and on a 2-vCPU host a longer spin made
 * np=2 jobs slower (1024 rounds: 0.15-0.20 ms against 0.07-0.14 ms). */
#define LOL_SPINS 16

#if defined(__x86_64__) || defined(__i386__)
#define LOL_RELAX() __builtin_ia32_pause()
#elif defined(__aarch64__)
#define LOL_RELAX() __asm__ __volatile__("yield")
#else
#define LOL_RELAX() ((void)0)
#endif

/* The shim's own bookkeeping.  None of it lies in a section the job
 * server restores, so it carries over from one job to the next. */
static int g_pe = 0;
static int g_npes = 1;
static int g_ready = 0;           /* the world is set up               */
static char *g_world = NULL;      /* whole-file mapping; NULL = standalone */
static lol_ctrl_t *g_ctrl = NULL;
static size_t g_ctrl_bytes = 0;
static size_t g_slot = 0;
static int g_sense = 1;
static long long g_timeout_ms = 120000;
static int g_server = 0;          /* armed: one entry call per job      */
static volatile sig_atomic_t g_in_job = 0;
static int g_frames_fd = -1;      /* the launcher's pipes, moved off 0/1  */
static int g_jobs_fd = -1;
static const char *g_seed = NULL;
static char g_seed_text[32];
static char g_buf[65536];         /* frame and stdin staging            */

static long long lol_now_ms(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000 + ts.tv_nsec / 1000000;
}

static long lol_futex(uint32_t *addr, int op, uint32_t val,
                      const struct timespec *timeout)
{
    /* Shared (not FUTEX_PRIVATE) ops: the word lives in a file mapping
     * that every PE process has mapped. */
    return syscall(SYS_futex, addr, op, val, timeout, NULL, 0);
}

/* Trip the abort flag and wake every barrier waiter, which re-checks
 * it.  Async-signal-safe. */
static void lol_abort_world(void)
{
    if (g_ctrl == NULL)
        return;
    __atomic_store_n(&g_ctrl->abort_flag, 1u, __ATOMIC_SEQ_CST);
    lol_futex(&g_ctrl->barrier_sense, FUTEX_WAKE, INT_MAX, NULL);
}

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

static int64_t lol_fd_size(int fd)
{
    struct stat st;
    return fstat(fd, &st) == 0 ? (int64_t)st.st_size : 0;
}

/* Append n bytes of memfd `fd` to the frame pipe through g_buf. */
static int lol_copy_out(int fd, int64_t n)
{
    off_t at = 0;
    while (n > 0) {
        size_t want = n < (int64_t)sizeof g_buf ? (size_t)n : sizeof g_buf;
        if (pread(fd, g_buf, want, at) != (ssize_t)want ||
            !lol_write_full(g_frames_fd, g_buf, want))
            return 0;
        at += (off_t)want;
        n -= (int64_t)want;
    }
    return 1;
}

/* The job's frame: status (minus the signal number when killed, as
 * Python's Popen reports it), stdout bytes, stderr bytes, then both
 * memfds' contents -- in one write when it fits g_buf, so the launcher
 * wakes once per job.  Async-signal-safe. */
static int lol_send_frame(int64_t status)
{
    int64_t frame[3] = {status, lol_fd_size(1), lol_fd_size(2)};
    size_t total = sizeof frame + (size_t)frame[1] + (size_t)frame[2];
    if (total > sizeof g_buf)
        return lol_write_full(g_frames_fd, frame, sizeof frame) &&
               lol_copy_out(1, frame[1]) && lol_copy_out(2, frame[2]);
    char *body = g_buf + sizeof frame;
    memcpy(g_buf, frame, sizeof frame);
    if (pread(1, body, (size_t)frame[1], 0) != frame[1] ||
        pread(2, body + frame[1], (size_t)frame[2], 0) != frame[2])
        return 0;
    return lol_write_full(g_frames_fd, g_buf, total);
}

static void lol_die(const char *what)
{
    fprintf(stderr, "lol-shmem[PE %d]: %s (errno: %s)\n", g_pe, what,
            strerror(errno));
    if (g_in_job) {
        /* A job server's PE ends itself: report first, then let the
         * siblings go.  The launcher discards the set. */
        g_in_job = 0;
        fflush(stdout);
        lol_send_frame(3);
        lol_abort_world();
        _exit(3);
    }
    lol_abort_world();
    exit(3);
}

/* SIGFPE/SIGSEGV/SIGBUS/SIGILL: the same report as lol_die, with minus
 * the signal as the status, then die of the signal (SA_RESETHAND put
 * the default action back; SA_NODEFER lets raise deliver it now). */
static void lol_on_fatal(int sig)
{
    if (g_in_job) {
        g_in_job = 0;
        lol_send_frame(-(int64_t)sig);
    }
    lol_abort_world();
    raise(sig);
}

static void lol_catch_fatal(void)
{
    static const int sigs[] = {SIGFPE, SIGSEGV, SIGBUS, SIGILL};
    /* An alternate stack, so a stack overflow still gets its frame. */
    stack_t ss;
    memset(&ss, 0, sizeof ss);
    ss.ss_size = 65536;
    ss.ss_sp = malloc(ss.ss_size);
    if (ss.ss_sp != NULL)
        sigaltstack(&ss, NULL);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = lol_on_fatal;
    sa.sa_flags = SA_RESETHAND | SA_NODEFER | SA_ONSTACK;
    sigemptyset(&sa.sa_mask);
    for (size_t i = 0; i < sizeof sigs / sizeof sigs[0]; i++)
        sigaction(sigs[i], &sa, NULL);
}

static void lol_pause(unsigned spins)
{
    if (spins < 1024)
        return; /* stay hot: lock holders usually let go soon */
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

/* Read the launch environment and map the world: once per process. */
static void lol_setup(void)
{
    const char *pe_env = getenv("LOL_SHMEM_PE");
    const char *np_env = getenv("LOL_SHMEM_NPES");
    const char *file = getenv("LOL_SHMEM_FILE");
    const char *to_env = getenv("LOL_SHMEM_TIMEOUT_MS");

    g_ready = 1;
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
    g_slot = (size_t)(__stop_lol_sym - __start_lol_sym);
    if (g_slot % page != 0 || (uintptr_t)__start_lol_sym % page != 0)
        lol_die("the lol_sym section is not whole pages "
                "(the shim object must be linked last)");
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
     * section onto the slot. */
    if (g_slot > 0) {
        memcpy(g_world + g_ctrl_bytes + (size_t)g_pe * g_slot,
               __start_lol_sym, g_slot);
        if (mmap(__start_lol_sym, g_slot, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_FIXED, fd,
                 (off_t)(g_ctrl_bytes + (size_t)g_pe * g_slot)) == MAP_FAILED)
            lol_die("cannot remap the symmetric section");
    }
    close(fd);
    lol_catch_fatal();
}

void shmem_init(void)
{
    if (!g_ready)
        lol_setup();
    /* No PE may touch a sibling before that sibling has remapped (and,
     * in a job server, restored its slot for this job). */
    shmem_barrier_all();
}

void shmem_finalize(void)
{
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
    uint32_t want = (uint32_t)g_sense;
    uint32_t pos = __atomic_fetch_add(&g_ctrl->barrier_count, 1u,
                                      __ATOMIC_SEQ_CST);
    if (pos + 1 == (uint32_t)g_npes) {
        /* Last arriver: reset the counter for the next round, release
         * everyone by flipping the sense, and wake any sleepers.  A
         * waiter raises `sleepers` before it sleeps and FUTEX_WAIT
         * re-checks the sense, so no wake-up is lost. */
        __atomic_store_n(&g_ctrl->barrier_count, 0u, __ATOMIC_SEQ_CST);
        __atomic_store_n(&g_ctrl->barrier_sense, want, __ATOMIC_SEQ_CST);
        if (__atomic_load_n(&g_ctrl->sleepers, __ATOMIC_SEQ_CST))
            lol_futex(&g_ctrl->barrier_sense, FUTEX_WAKE, INT_MAX, NULL);
    } else {
        unsigned spins = 0;
        while (__atomic_load_n(&g_ctrl->barrier_sense, __ATOMIC_ACQUIRE) !=
                   want &&
               spins++ < LOL_SPINS)
            LOL_RELAX();
        long long deadline = lol_now_ms() + g_timeout_ms;
        while (__atomic_load_n(&g_ctrl->barrier_sense, __ATOMIC_ACQUIRE) !=
               want) {
            lol_check_world(deadline, "HUGZ barrier timed out "
                                      "(PEs diverged or a sibling died)");
            /* Bounded, so the deadline and abort flag are re-checked even
             * if a sibling dies without waking anyone. */
            struct timespec nap = {0, 100000000}; /* 100ms */
            int saved = errno; /* ETIMEDOUT/EAGAIN are no diagnosis */
            __atomic_fetch_add(&g_ctrl->sleepers, 1u, __ATOMIC_SEQ_CST);
            lol_futex(&g_ctrl->barrier_sense, FUTEX_WAIT, !want, &nap);
            __atomic_fetch_sub(&g_ctrl->sleepers, 1u, __ATOMIC_SEQ_CST);
            errno = saved;
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

/* -- per-job arena -----------------------------------------------------
 * Runtime YARNs are never freed one by one; the job server drops them
 * all between jobs.  The first standard-size chunk is kept. */

#define LOL_CHUNK 65536

typedef struct lol_chunk {
    struct lol_chunk *next; /* older chunks */
    size_t cap;
} lol_chunk_t;

static lol_chunk_t *g_arena = NULL;
static size_t g_arena_used = 0;

void *lol_shmem_alloc(size_t n)
{
    n = (n + 15) & ~(size_t)15;
    if (g_arena == NULL || g_arena->cap - g_arena_used < n) {
        size_t cap = n > LOL_CHUNK ? n : LOL_CHUNK;
        lol_chunk_t *chunk = malloc(sizeof *chunk + cap);
        if (chunk == NULL)
            lol_die("out of memory");
        chunk->next = g_arena;
        chunk->cap = cap;
        g_arena = chunk;
        g_arena_used = 0;
    }
    void *p = (char *)(g_arena + 1) + g_arena_used;
    g_arena_used += n;
    return p;
}

static void lol_arena_reset(void)
{
    while (g_arena != NULL &&
           (g_arena->next != NULL || g_arena->cap != LOL_CHUNK)) {
        lol_chunk_t *older = g_arena->next;
        free(g_arena);
        g_arena = older;
    }
    g_arena_used = 0;
}

const char *lol_shmem_seed(void)
{
    return g_server ? g_seed : getenv("LOL_SEED");
}

/* -- job server --------------------------------------------------------
 * Disarmed (no LOL_SHMEM_FORKSERVER=1) lol_shmem_main runs the entry
 * once, so standalone binaries behave exactly as a plain main would.
 * Armed, it never returns: it runs one job per header on fd 0, each
 * from the pristine state snapshotted before the first. */

/* The pristine bytes of [start, start + n), or NULL when all zero. */
static char *lol_snapshot(const char *start, size_t n)
{
    size_t i = 0;
    while (i < n && start[i] == 0)
        i++;
    if (i == n)
        return NULL;
    char *snap = malloc(n);
    if (snap == NULL)
        lol_die("cannot snapshot the program state");
    return memcpy(snap, start, n);
}

static void lol_restore(char *start, const char *snap, size_t n)
{
    if (snap != NULL)
        memcpy(start, snap, n);
    else
        memset(start, 0, n);
}

/* Put a fresh memfd on `fd`. */
static void lol_memfd_on(int fd, const char *name)
{
    int m = memfd_create(name, 0);
    if (m < 0 || dup2(m, fd) != fd)
        lol_die("cannot make the job's memfds");
    close(m);
}

/* Empty memfd `fd` and rewind it. */
static void lol_rewind(int fd)
{
    if (ftruncate(fd, 0) != 0 || lseek(fd, 0, SEEK_SET) != 0)
        lol_die("cannot reset the job's memfds");
}

/* Move the job's n stdin bytes from the job pipe into the stdin memfd.
 * Returns 0 when the pipe ends early (the launcher is gone). */
static int lol_take_stdin(int64_t n)
{
    lol_rewind(0);
    while (n > 0) {
        size_t want = n < (int64_t)sizeof g_buf ? (size_t)n : sizeof g_buf;
        if (!lol_read_full(g_jobs_fd, g_buf, want))
            return 0;
        if (!lol_write_full(0, g_buf, want))
            lol_die("cannot fill the job's stdin");
        n -= (int64_t)want;
    }
    if (lseek(0, 0, SEEK_SET) != 0)
        lol_die("cannot rewind the job's stdin");
    __fpurge(stdin); /* drop what the last job buffered but never read */
    clearerr(stdin);
    return 1;
}

int lol_shmem_main(int (*entry)(void))
{
    const char *armed = getenv("LOL_SHMEM_FORKSERVER");
    if (armed == NULL || strcmp(armed, "1") != 0)
        return entry();
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    g_server = 1;
    g_jobs_fd = fcntl(0, F_DUPFD_CLOEXEC, 3);
    g_frames_fd = fcntl(1, F_DUPFD_CLOEXEC, 3);
    if (g_jobs_fd < 0 || g_frames_fd < 0)
        lol_die("cannot move the job pipes");
    lol_memfd_on(0, "lol-stdin");
    lol_memfd_on(1, "lol-stdout");
    lol_memfd_on(2, "lol-stderr");
    lol_setup(); /* the launcher always names a world file */

    size_t sym_bytes = (size_t)(__stop_lol_sym - __start_lol_sym);
    size_t state_bytes = (size_t)(__stop_lol_state - __start_lol_state);
    char *sym_snap = lol_snapshot(__start_lol_sym, sym_bytes);
    char *state_snap = lol_snapshot(__start_lol_state, state_bytes);
    for (;;) {
        int64_t hdr[4]; /* seed present, seed, stdin bytes, timeout ms */
        if (!lol_read_full(g_jobs_fd, hdr, sizeof hdr) ||
            !lol_take_stdin(hdr[2]))
            _exit(0); /* launcher closed the job pipe: the set is retired */
        lol_rewind(1);
        lol_rewind(2);
        clearerr(stdout);
        g_seed = NULL;
        if (hdr[0]) {
            snprintf(g_seed_text, sizeof g_seed_text, "%lld",
                     (long long)hdr[1]);
            g_seed = g_seed_text;
        }
        g_timeout_ms = (long long)hdr[3];
        lol_restore(__start_lol_sym, sym_snap, sym_bytes);
        lol_restore(__start_lol_state, state_snap, state_bytes);
        lol_arena_reset();
        g_in_job = 1;
        int rc = entry();
        fflush(stdout);
        g_in_job = 0;
        if (!lol_send_frame(rc))
            _exit(0);
    }
}
