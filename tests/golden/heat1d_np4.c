/* Generated by repro lcc (I Can Has Supercomputer? reproduction).  */
#include <stdio.h>
#include <stdlib.h>
#include <stdint.h>
#include <string.h>
#include <math.h>

#ifdef LOL_SHMEM_SIM
/* -- single-PE OpenSHMEM simulation (for testing without libshmem) ---- */
static inline void shmem_init(void) {}
static inline void shmem_finalize(void) {}
static inline int shmem_my_pe(void) { return 0; }
static inline int shmem_n_pes(void) { return 1; }
static inline void shmem_barrier_all(void) {}
static inline double shmem_double_g(const double *a, int pe) { (void)pe; return *a; }
static inline void shmem_double_p(double *a, double v, int pe) { (void)pe; *a = v; }
static inline long long shmem_longlong_g(const long long *a, int pe) { (void)pe; return *a; }
static inline void shmem_longlong_p(long long *a, long long v, int pe) { (void)pe; *a = v; }
static inline int shmem_int_g(const int *a, int pe) { (void)pe; return *a; }
static inline void shmem_int_p(int *a, int v, int pe) { (void)pe; *a = v; }
static inline void shmem_double_get(double *dst, const double *src, size_t n, int pe)
{ (void)pe; memcpy(dst, src, n * sizeof *dst); }
static inline void shmem_double_put(double *dst, const double *src, size_t n, int pe)
{ (void)pe; memcpy(dst, src, n * sizeof *dst); }
static inline void shmem_longlong_get(long long *dst, const long long *src, size_t n, int pe)
{ (void)pe; memcpy(dst, src, n * sizeof *dst); }
static inline void shmem_longlong_put(long long *dst, const long long *src, size_t n, int pe)
{ (void)pe; memcpy(dst, src, n * sizeof *dst); }
static inline void shmem_set_lock(long *lock) { *lock = 1; }
static inline void shmem_clear_lock(long *lock) { *lock = 0; }
static inline int shmem_test_lock(long *lock)
{ if (*lock) return 1; *lock = 1; return 0; }
#define LOL_SYMMETRIC
#elif defined(LOL_SHMEM_SHIM)
/* -- bundled single-node multi-process shim (engine="c") -------------- */
#include "lol_shmem_shim.h"
#else
#include <shmem.h>
#define LOL_SYMMETRIC
#endif /* LOL_SHMEM_SIM */

#ifdef LOL_SHMEM_SHIM
/* One entry call per job: LOL_STATE data and the arena reset between. */
#define lol_alloc lol_shmem_alloc
#define lol_seed_text lol_shmem_seed
#define lol_run(entry) lol_shmem_main(entry)
#else
#define LOL_STATE
#define lol_alloc malloc
#define lol_seed_text() getenv("LOL_SEED")
#define lol_run(entry) (entry)()
#endif

/* -- LOLCODE dynamic value runtime ------------------------------------ */

typedef enum { LOL_NOOB, LOL_NUMBR, LOL_NUMBAR, LOL_YARN, LOL_TROOF } lol_tag_t;

typedef struct {
    lol_tag_t tag;
    union { long long n; double f; const char *s; int b; } u;
} lol_value_t;

static inline lol_value_t lol_noob(void)
{ lol_value_t v; v.tag = LOL_NOOB; v.u.n = 0; return v; }
static inline lol_value_t lol_from_i(long long n)
{ lol_value_t v; v.tag = LOL_NUMBR; v.u.n = n; return v; }
static inline lol_value_t lol_from_f(double f)
{ lol_value_t v; v.tag = LOL_NUMBAR; v.u.f = f; return v; }
static inline lol_value_t lol_from_s(const char *s)
{ lol_value_t v; v.tag = LOL_YARN; v.u.s = s; return v; }
static inline lol_value_t lol_from_b(int b)
{ lol_value_t v; v.tag = LOL_TROOF; v.u.b = !!b; return v; }

static inline int lol_truthy(lol_value_t v)
{
    switch (v.tag) {
    case LOL_NUMBR:  return v.u.n != 0;
    case LOL_NUMBAR: return v.u.f != 0.0;
    case LOL_YARN:   return v.u.s[0] != '\0';
    case LOL_TROOF:  return v.u.b;
    default:         return 0;
    }
}

static inline long long lol_to_i(lol_value_t v)
{
    switch (v.tag) {
    case LOL_NUMBR:  return v.u.n;
    case LOL_NUMBAR: return (long long)v.u.f;
    case LOL_TROOF:  return v.u.b;
    case LOL_YARN:   return strtoll(v.u.s, NULL, 10);
    default:         return 0;
    }
}

static inline double lol_to_f(lol_value_t v)
{
    switch (v.tag) {
    case LOL_NUMBR:  return (double)v.u.n;
    case LOL_NUMBAR: return v.u.f;
    case LOL_TROOF:  return v.u.b ? 1.0 : 0.0;
    case LOL_YARN:   return strtod(v.u.s, NULL);
    default:         return 0.0;
    }
}

static inline const char *lol_fmt_i(long long n)
{ char *buf = (char *)lol_alloc(32); snprintf(buf, 32, "%lld", n); return buf; }
static inline const char *lol_fmt_f(double f)
{ char *buf = (char *)lol_alloc(48); snprintf(buf, 48, "%.2f", f); return buf; }

static inline const char *lol_to_s(lol_value_t v)
{
    switch (v.tag) {
    case LOL_NUMBR:  return lol_fmt_i(v.u.n);
    case LOL_NUMBAR: return lol_fmt_f(v.u.f);
    case LOL_YARN:   return v.u.s;
    case LOL_TROOF:  return v.u.b ? "WIN" : "FAIL";
    default:         return "";
    }
}

static inline int lol_is_numeric_yarn(const char *s)
{ char *end; strtod(s, &end); return end != s && *end == '\0'; }

/* Numeric view of a dynamic operand for arithmetic: NUMBAR-ness is
 * decided at runtime, matching the interpreter. */
static inline int lol_op_is_f(lol_value_t v)
{
    if (v.tag == LOL_NUMBAR) return 1;
    if (v.tag == LOL_YARN)
        return strchr(v.u.s, '.') != NULL || strchr(v.u.s, 'e') != NULL
            || strchr(v.u.s, 'E') != NULL;
    return 0;
}

/* A dynamic operand as the number arithmetic sees: NUMBR or NUMBAR. */
static inline lol_value_t lol_num(lol_value_t v)
{ return lol_op_is_f(v) ? lol_from_f(lol_to_f(v)) : lol_from_i(lol_to_i(v)); }

static inline lol_value_t lol_arith(char op, lol_value_t a, lol_value_t b)
{
    int f = lol_op_is_f(a) || lol_op_is_f(b);
    if (op == '>' || op == '<') {
        /* BIGGR OF / SMALLR OF: the chosen operand, with its own kind. */
        int ge = f ? lol_to_f(a) >= lol_to_f(b) : lol_to_i(a) >= lol_to_i(b);
        int le = f ? lol_to_f(a) <= lol_to_f(b) : lol_to_i(a) <= lol_to_i(b);
        return lol_num((op == '>' ? ge : le) ? a : b);
    }
    if (f) {
        double x = lol_to_f(a), y = lol_to_f(b), r = 0.0;
        switch (op) {
        case '+': r = x + y; break;
        case '-': r = x - y; break;
        case '*': r = x * y; break;
        case '/': r = x / y; break;
        case '%': r = fmod(x, y); break;
        }
        return lol_from_f(r);
    }
    {
        long long x = lol_to_i(a), y = lol_to_i(b), r = 0;
        switch (op) {
        case '+': r = x + y; break;
        case '-': r = x - y; break;
        case '*': r = x * y; break;
        case '/': r = x / y; break;
        case '%': r = x % y; break;
        }
        return lol_from_i(r);
    }
}

static inline int lol_eq(lol_value_t a, lol_value_t b)
{
    int a_num = a.tag == LOL_NUMBR || a.tag == LOL_NUMBAR;
    int b_num = b.tag == LOL_NUMBR || b.tag == LOL_NUMBAR;
    if (a_num && b_num) return lol_to_f(a) == lol_to_f(b);
    if (a.tag != b.tag) return 0;
    switch (a.tag) {
    case LOL_YARN:  return strcmp(a.u.s, b.u.s) == 0;
    case LOL_TROOF: return a.u.b == b.u.b;
    case LOL_NOOB:  return 1;
    default:        return 0;
    }
}

static inline const char *lol_concat(const char *a, const char *b)
{
    size_t la = strlen(a), lb = strlen(b);
    char *buf = (char *)lol_alloc(la + lb + 1);
    memcpy(buf, a, la);
    memcpy(buf + la, b, lb + 1);
    return buf;
}

static inline long long lol_max_i(long long a, long long b) { return a >= b ? a : b; }
static inline long long lol_min_i(long long a, long long b) { return a <= b ? a : b; }
static inline double lol_max_f(double a, double b) { return a >= b ? a : b; }
static inline double lol_min_f(double a, double b) { return a <= b ? a : b; }
static inline long long lol_squar_i(long long v) { return v * v; }
static inline double lol_squar_f(double v) { return v * v; }
static inline long long lol_trunc_div(long long a, long long b) { return a / b; }
static inline long long lol_trunc_mod(long long a, long long b) { return a % b; }

static inline const char *lol_readline(void)
{
    char buf[4096];
    size_t n;
    char *line;
    if (!fgets(buf, sizeof buf, stdin)) return "";
    n = strcspn(buf, "\n");
    line = (char *)lol_alloc(n + 1);
    memcpy(line, buf, n);
    line[n] = '\0';
    return line;
}

/* -- WHATEVR / WHATEVAR: the interpreters' stream --------------------- */
/* MT19937 (Matsumoto & Nishimura, ACM TOMACS 8(1), 1998), seeded as
 * Python's random.Random(v) with v = seed * 7919 + pe: init_by_array
 * over the 32-bit words of |v|.  seed is lol_seed_text() (the job's
 * seed under the shim, $LOL_SEED elsewhere) or 0xC47.  Seeded on the
 * first draw; the product is done in 32-bit limbs.  lol_mt_next is not
 * inline, so each WHATEVR site compiles to a call, not another copy. */
LOL_STATE static uint32_t lol_mt[624];
LOL_STATE static int lol_mt_i = -1; /* -1: not seeded yet */

static void lol_mt_seed(void)
{
    const char *env = lol_seed_text();
    long long s = env ? strtoll(env, NULL, 10) : 0xC47;
    uint64_t m = s < 0 ? 0 - (uint64_t)s : (uint64_t)s;
    uint64_t pe = (uint64_t)shmem_my_pe();
    uint64_t w0 = (m & 0xFFFFFFFFu) * 7919u;
    uint64_t w1 = (m >> 32) * 7919u + (w0 >> 32);
    uint32_t key[3];
    int i = 1, j = 0, k, n;
    w0 &= 0xFFFFFFFFu;
    if (s >= 0) { w0 += pe; w1 += w0 >> 32; w0 &= 0xFFFFFFFFu; }
    else if (w1 == 0 && w0 < pe) w0 = pe - w0;
    else if (w0 >= pe) w0 -= pe;
    else { w0 += 0x100000000u - pe; w1 -= 1; }
    key[0] = (uint32_t)w0; key[1] = (uint32_t)w1; key[2] = (uint32_t)(w1 >> 32);
    n = key[2] ? 3 : key[1] ? 2 : 1;
    lol_mt[0] = 19650218u;
    for (k = 1; k < 624; k++)
        lol_mt[k] = 1812433253u * (lol_mt[k-1] ^ (lol_mt[k-1] >> 30)) + (uint32_t)k;
    for (k = 624; k; k--) {
        lol_mt[i] = (lol_mt[i] ^ ((lol_mt[i-1] ^ (lol_mt[i-1] >> 30)) * 1664525u))
                    + key[j] + (uint32_t)j;
        if (++i >= 624) { lol_mt[0] = lol_mt[623]; i = 1; }
        if (++j >= n) j = 0;
    }
    for (k = 623; k; k--) {
        lol_mt[i] = (lol_mt[i] ^ ((lol_mt[i-1] ^ (lol_mt[i-1] >> 30)) * 1566083941u))
                    - (uint32_t)i;
        if (++i >= 624) { lol_mt[0] = lol_mt[623]; i = 1; }
    }
    lol_mt[0] = 0x80000000u;
    lol_mt_i = 624;
}

static uint32_t lol_mt_next(void)
{
    uint32_t y;
    if (lol_mt_i < 0) lol_mt_seed();
    if (lol_mt_i >= 624) {
        int k;
        for (k = 0; k < 624; k++) {
            y = (lol_mt[k] & 0x80000000u) | (lol_mt[(k+1) % 624] & 0x7FFFFFFFu);
            lol_mt[k] = lol_mt[(k+397) % 624] ^ (y >> 1) ^ ((y & 1u) ? 0x9908B0DFu : 0u);
        }
        lol_mt_i = 0;
    }
    y = lol_mt[lol_mt_i++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9D2C5680u;
    y ^= (y << 15) & 0xEFC60000u;
    return y ^ (y >> 18);
}

/* randrange(0, 2**31 - 1): getrandbits(31) until below the bound. */
static inline long long lol_rand_i(void)
{
    uint32_t r;
    do r = lol_mt_next() >> 1; while (r >= 0x7FFFFFFFu);
    return (long long)r;
}

/* random(): 53 bits from two draws. */
static inline double lol_rand_f(void)
{
    uint32_t a = lol_mt_next() >> 5;
    uint32_t b = lol_mt_next() >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* -- symmetric & top-level program data -- */
static double u[10] LOL_SYMMETRIC; /* symmetric */
LOL_STATE static double unew[10];
LOL_STATE static lol_value_t left;
LOL_STATE static lol_value_t rite;
LOL_STATE static double total;

static int lol_main(void)
{
    shmem_init();
    lol_value_t __it = lol_noob();
    (void)left;
    (void)rite;
    (void)total;
    (void)u;
    (void)unew;
    left = lol_from_i(lol_trunc_mod((((long long)shmem_my_pe()) + (((long long)shmem_n_pes()) - 1LL)), ((long long)shmem_n_pes())));
    rite = lol_from_i(lol_trunc_mod((((long long)shmem_my_pe()) + 1LL), ((long long)shmem_n_pes())));
    __it = lol_from_b((((double)(((long long)shmem_my_pe())) == (double)(0LL))));
    if (lol_truthy(__it)) {
        u[1LL] = 100.0;
    } else {
    }
    shmem_barrier_all();
    { long long t = 0;
        while (1) {
            if ((((double)(t) == (double)(10LL)))) break;
            int __tgt1 = (int)(lol_to_i(left));
                shmem_double_p(&u[9LL], u[1LL], __tgt1);
            int __tgt2 = (int)(lol_to_i(rite));
                shmem_double_p(&u[0LL], u[8LL], __tgt2);
            shmem_barrier_all();
            { long long i = 0;
                while (1) {
                    if ((((double)(i) == (double)(8LL)))) break;
                    lol_value_t c = lol_from_i((i + 1LL));
                    lol_value_t lap = lol_from_f((u[lol_to_i(lol_arith('-', c, lol_from_i(1LL)))] + u[lol_to_i(lol_arith('+', c, lol_from_i(1LL)))]));
                    lap = lol_arith('-', lap, lol_from_f((2.0 * u[lol_to_i(c)])));
                    unew[lol_to_i(c)] = lol_to_f(lol_arith('+', lol_from_f(u[lol_to_i(c)]), lol_arith('*', lol_from_f(0.25), lap)));
                    i = i + 1;
                }
            }
            __it = lol_from_b((((double)(((long long)shmem_my_pe())) == (double)(0LL))));
            if (lol_truthy(__it)) {
                unew[1LL] = u[1LL];
            } else {
            }
            shmem_barrier_all();
            { long long i = 0;
                while (1) {
                    if ((((double)(i) == (double)(8LL)))) break;
                    u[(i + 1LL)] = unew[(i + 1LL)];
                    i = i + 1;
                }
            }
            shmem_barrier_all();
            t = t + 1;
        }
    }
    { long long i = 0;
        while (1) {
            if ((((double)(i) == (double)(8LL)))) break;
            total = (total + u[(i + 1LL)]);
            i = i + 1;
        }
    }
    fputs("PE ", stdout);
    fputs(lol_fmt_i(((long long)shmem_my_pe())), stdout);
    fputs(" BLOCK HEAT: ", stdout);
    fputs(lol_fmt_f(total), stdout);
    fputs("\n", stdout);
    (void)__it;
    shmem_finalize();
    return 0;
}

int main(void) { return lol_run(lol_main); }
