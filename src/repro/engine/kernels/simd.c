/* ------------------------------------------------------------------ *
 * Runtime-dispatched SIMD row primitives.
 *
 * Every kernel in kernels.c reduces to three row-sized operations:
 *
 *     or2      dst[w] = a[w] | b[w]          (swap-form first sender)
 *     oracc    dst[w] |= src[w]              (every other OR)
 *     missing  sum(popcount(mask & ~row))    (completion deficits)
 *
 * Each has a portable scalar form plus x86 vector forms compiled with
 * per-function target attributes (the unit itself is built WITHOUT
 * -march=native, so an "avx2" function really is AVX2 and nothing
 * wider).  repro_simd_set installs one level into the function
 * pointers; levels are 0=scalar, 1=avx2, 2=avx512.  Dispatch
 * happens once per row, not per word, so the indirection is noise
 * next to the word traffic.  The scalar forms carry a no-vectorize
 * attribute so a level-0 run (REPRO_DISABLE_SIMD=1) is an honest
 * scalar control, not whatever auto-vectorization -O3 felt like.
 *
 * The vector forms use the compiler's generic vector types, not an
 * intrinsics header: parsing that header alone would cost more than
 * compiling both units.
 * ------------------------------------------------------------------ */

#include <stdint.h>

#include "simd.h"

#if defined(__x86_64__) || defined(__i386__)
#define REPRO_SIMD_X86 1
#endif

#if defined(__GNUC__) && !defined(__clang__)
#define REPRO_SCALAR \
    __attribute__((optimize("no-tree-vectorize,no-tree-slp-vectorize")))
#else
#define REPRO_SCALAR
#endif

static REPRO_SCALAR void repro_or2_scalar(uint64_t *dst, const uint64_t *a,
                                          const uint64_t *b, int64_t words) {
    for (int64_t w = 0; w < words; w++)
        dst[w] = a[w] | b[w];
}

static REPRO_SCALAR void repro_oracc_scalar(uint64_t *dst, const uint64_t *src,
                                            int64_t words) {
    for (int64_t w = 0; w < words; w++)
        dst[w] |= src[w];
}

static REPRO_SCALAR int64_t repro_missing_plain(const uint64_t *row,
                                                const uint64_t *mask,
                                                int64_t words) {
    int64_t missing = 0;
    for (int64_t w = 0; w < words; w++)
        missing += __builtin_popcountll(mask[w] & ~row[w]);
    return missing;
}

#ifdef REPRO_SIMD_X86

/* 4 and 8 words read and written in place: aligned(8) makes every access
 * an unaligned load or store, may_alias lets them view uint64_t rows. */
typedef uint64_t repro_v4
    __attribute__((vector_size(32), aligned(8), may_alias));
typedef uint64_t repro_v8
    __attribute__((vector_size(64), aligned(8), may_alias));

__attribute__((target("avx2"))) static void
repro_or2_avx2(uint64_t *dst, const uint64_t *a, const uint64_t *b,
               int64_t words) {
    int64_t w = 0;
    for (; w + 8 <= words; w += 8) {
        const repro_v4 x0 = *(const repro_v4 *)(a + w) |
                            *(const repro_v4 *)(b + w);
        const repro_v4 x1 = *(const repro_v4 *)(a + w + 4) |
                            *(const repro_v4 *)(b + w + 4);
        *(repro_v4 *)(dst + w) = x0;
        *(repro_v4 *)(dst + w + 4) = x1;
    }
    for (; w < words; w++)
        dst[w] = a[w] | b[w];
}

__attribute__((target("avx2"))) static void
repro_oracc_avx2(uint64_t *dst, const uint64_t *src, int64_t words) {
    int64_t w = 0;
    for (; w + 8 <= words; w += 8) {
        const repro_v4 x0 = *(repro_v4 *)(dst + w) |
                            *(const repro_v4 *)(src + w);
        const repro_v4 x1 = *(repro_v4 *)(dst + w + 4) |
                            *(const repro_v4 *)(src + w + 4);
        *(repro_v4 *)(dst + w) = x0;
        *(repro_v4 *)(dst + w + 4) = x1;
    }
    for (; w < words; w++)
        dst[w] |= src[w];
}

__attribute__((target("avx512f"))) static void
repro_or2_avx512(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                 int64_t words) {
    int64_t w = 0;
    for (; w + 16 <= words; w += 16) {
        const repro_v8 x0 = *(const repro_v8 *)(a + w) |
                            *(const repro_v8 *)(b + w);
        const repro_v8 x1 = *(const repro_v8 *)(a + w + 8) |
                            *(const repro_v8 *)(b + w + 8);
        *(repro_v8 *)(dst + w) = x0;
        *(repro_v8 *)(dst + w + 8) = x1;
    }
    for (; w < words; w++)
        dst[w] = a[w] | b[w];
}

__attribute__((target("avx512f"))) static void
repro_oracc_avx512(uint64_t *dst, const uint64_t *src, int64_t words) {
    int64_t w = 0;
    for (; w + 16 <= words; w += 16) {
        const repro_v8 x0 = *(repro_v8 *)(dst + w) |
                            *(const repro_v8 *)(src + w);
        const repro_v8 x1 = *(repro_v8 *)(dst + w + 8) |
                            *(const repro_v8 *)(src + w + 8);
        *(repro_v8 *)(dst + w) = x0;
        *(repro_v8 *)(dst + w + 8) = x1;
    }
    for (; w < words; w++)
        dst[w] |= src[w];
}

/* POPCNT is a scalar instruction (no vector lanes), so this variant is
 * installed whenever the CPU has it — including level 0, where it keeps
 * the scalar control honest about vectorization rather than measuring a
 * software-popcount regression. */
__attribute__((target("popcnt"))) static int64_t
repro_missing_popcnt(const uint64_t *row, const uint64_t *mask,
                     int64_t words) {
    int64_t missing = 0;
    for (int64_t w = 0; w < words; w++)
        missing += __builtin_popcountll(mask[w] & ~row[w]);
    return missing;
}

/* The same loop again: with VPOPCNTQ available, -O3 vectorizes it into
 * vpandnq + vpopcntq over zmm registers (a build test checks that). */
__attribute__((target("avx512f,avx512vpopcntdq"))) static int64_t
repro_missing_avx512(const uint64_t *row, const uint64_t *mask,
                     int64_t words) {
    int64_t missing = 0;
    for (int64_t w = 0; w < words; w++)
        missing += __builtin_popcountll(mask[w] & ~row[w]);
    return missing;
}

#endif /* REPRO_SIMD_X86 */

repro_or2_fn repro_or2 = repro_or2_scalar;
repro_oracc_fn repro_oracc = repro_oracc_scalar;
repro_missing_fn repro_missing = repro_missing_plain;
static int repro_simd_level = 0;

int repro_simd_detect(void) {
#ifdef REPRO_SIMD_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vpopcntdq"))
        return 2;
    if (__builtin_cpu_supports("avx2"))
        return 1;
#endif
    return 0;
}

/* Install one SIMD level (clamped to what the CPU supports) into the
 * dispatch pointers; returns the level actually installed.  Must not be
 * called while sharded jobs are in flight — in practice it runs once at
 * import and from tests that own the process. */
int repro_simd_set(int level) {
    const int cap = repro_simd_detect();
    if (level > cap)
        level = cap;
    if (level < 0)
        level = 0;
    repro_or2 = repro_or2_scalar;
    repro_oracc = repro_oracc_scalar;
    repro_missing = repro_missing_plain;
#ifdef REPRO_SIMD_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("popcnt"))
        repro_missing = repro_missing_popcnt;
    if (level >= 1) {
        repro_or2 = repro_or2_avx2;
        repro_oracc = repro_oracc_avx2;
    }
    if (level >= 2) {
        repro_or2 = repro_or2_avx512;
        repro_oracc = repro_oracc_avx512;
        repro_missing = repro_missing_avx512;
    }
#endif
    repro_simd_level = level;
    return level;
}

int repro_simd_active(void) { return repro_simd_level; }

__attribute__((constructor)) static void repro_simd_init(void) {
    repro_simd_set(repro_simd_detect());
}

