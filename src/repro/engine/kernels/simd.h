/* The three row primitives' dispatch pointers, shared by both units.
 *
 * simd.c defines them and installs one SIMD level when the library loads
 * (repro_simd_set); kernels.c runs every word loop through them.  Hidden
 * visibility keeps them out of the library's exported symbols, so each
 * access stays one PC-relative load, as for a file-static pointer. */
#ifndef REPRO_SIMD_H
#define REPRO_SIMD_H

#include <stdint.h>

typedef void (*repro_or2_fn)(uint64_t *, const uint64_t *, const uint64_t *,
                             int64_t);
typedef void (*repro_oracc_fn)(uint64_t *, const uint64_t *, int64_t);
typedef int64_t (*repro_missing_fn)(const uint64_t *, const uint64_t *,
                                    int64_t);

/* dst[w] = a[w] | b[w] */
extern __attribute__((visibility("hidden"))) repro_or2_fn repro_or2;
/* dst[w] |= src[w] */
extern __attribute__((visibility("hidden"))) repro_oracc_fn repro_oracc;
/* sum(popcount(mask[w] & ~row[w])) */
extern __attribute__((visibility("hidden"))) repro_missing_fn repro_missing;

#endif /* REPRO_SIMD_H */
