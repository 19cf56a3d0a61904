"""Optional compiled kernels for the packed-bitset hot path.

NumPy's fancy-indexing machinery moves every gathered row through fresh
temporaries, which caps the gossip kernel's throughput well below what the
hardware allows.  This module compiles a small C library once per machine
with the system C compiler and loads it through :mod:`ctypes`.  Its
knowledge primitives are the swap-form exchange kernel :func:`exchange`
(build the round's incoming-sender CSR, write each row's next state
exactly once into the spare buffer, caller swaps — about half the traffic
of snapshot + read-modify-write), the serial :func:`push_in_place`, which
applies every push batch straight into the matrix in an order that reads
every sender before anything writes it, the order-independent
:func:`scatter_or` from rows stored apart from the written ones, and the
fused mask-and-popcount deficit :func:`recount_deficits`.  Two serial graph
kernels sit beside them: :func:`pairs_csr` builds the CSR of ``G(n, p)``
straight from the sampler's sorted pair indices, and
:func:`bfs_connected` is the connectivity check.

Every other knowledge primitive takes a trailing ``shards`` count (the
serial kernels take none and never wake the pool).  One shard (the default)
runs inline on the calling thread, lock-free.  More partition the *receiver
rows* of a batch into disjoint contiguous shards across a persistent worker
pool; :func:`ensure_shards` grows the pool and returns the count to pass.
Because shards partition receivers and every gather still strictly precedes
every write, the results are bit-identical for any shard count; see
``docs/parallelism.md`` for the determinism argument.  Callers do not pick
a shard count here — the per-batch thread count lives in
:mod:`repro.engine.backends`.

All knowledge kernels run their word loops through three
runtime-dispatched row primitives (OR-2, OR-accumulate, masked popcount)
with scalar, AVX2 and AVX-512 variants selected per CPU at load time
(``repro_simd_set``).  The x86 variants are written with the compiler's
generic vector types and per-function ``target`` attributes, not an
intrinsics header, whose parsing alone would take most of the cold build.
``REPRO_DISABLE_SIMD`` pins the honest scalar forms, and
:func:`set_simd_level` / :func:`simd_active` expose the dispatch to
Python.  The swap-form kernel
additionally accepts a completion mask to fuse deficit recounts into the
round, and optional complete-row flags that drop edges into complete rows
and memcpy the full row into receivers of complete senders instead of
re-ORing them — see ``docs/architecture.md``.

The build is strictly best-effort: if no compiler is present, the build
fails, or ``REPRO_DISABLE_CKERNEL`` is set in the environment, callers fall
back to the pure-NumPy implementations (which are semantically identical —
see ``tests/engine/test_kernel_equivalence.py``).  A failure never breaks
the import: :func:`status` names its reason, the ``describe()`` of every
kernel backend carries it, and it is logged once at WARNING on this
module's logger.  The shared library is cached in a private per-user
directory keyed on source hash, build flags and CPU signature, so repeated imports pay nothing and heterogeneous
machines sharing a filesystem never load each other's tuned binaries.  A
cold build logs one INFO record naming the compiler, its wall seconds and
the library path.
"""

from __future__ import annotations

import ctypes
import getpass
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
import time
from typing import Optional, Tuple

import numpy as np

_log = logging.getLogger(__name__)

__all__ = [
    "SIMD_LEVELS",
    "available",
    "bfs_connected",
    "ensure_shards",
    "exchange",
    "push_in_place",
    "library_path",
    "pairs_csr",
    "recount_deficits",
    "scatter_or",
    "set_simd_level",
    "simd_active",
    "simd_detected",
    "simd_name",
    "status",
]

_SOURCE = r"""
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ *
 * Runtime-dispatched SIMD row primitives.
 *
 * Every kernel family below reduces to three row-sized operations:
 *
 *     or2      dst[w] = a[w] | b[w]          (swap-form first sender)
 *     oracc    dst[w] |= src[w]              (every other OR)
 *     missing  sum(popcount(mask & ~row))    (completion deficits)
 *
 * Each has a portable scalar form plus x86 vector forms compiled with
 * per-function target attributes (the TU itself is built WITHOUT
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
 * compiling everything else here.
 * ------------------------------------------------------------------ */

#if defined(__x86_64__) || defined(__i386__)
#define REPRO_SIMD_X86 1
#endif

#if defined(__GNUC__) && !defined(__clang__)
#define REPRO_SCALAR \
    __attribute__((optimize("no-tree-vectorize,no-tree-slp-vectorize")))
#else
#define REPRO_SCALAR
#endif

typedef void (*repro_or2_fn)(uint64_t *, const uint64_t *, const uint64_t *,
                             int64_t);
typedef void (*repro_oracc_fn)(uint64_t *, const uint64_t *, int64_t);
typedef int64_t (*repro_missing_fn)(const uint64_t *, const uint64_t *,
                                    int64_t);

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

static repro_or2_fn repro_or2 = repro_or2_scalar;
static repro_oracc_fn repro_oracc = repro_oracc_scalar;
static repro_missing_fn repro_missing = repro_missing_plain;
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

/* ------------------------------------------------------------------ *
 * Exchange rounds in "swap" form.
 *
 * A naive exchange round snapshots the matrix (memcpy) and then RMWs
 * every receiver row — about 8·n·words words of memory traffic for a
 * full push-pull round.  The swap form instead builds the per-row incoming
 * sender lists (a CSR over the round's channels, O(k) integer work) and
 * writes the complete NEXT state into `next`:
 *
 *     next[r] = cur[r] | OR(cur[p] for every sender p of r)
 *
 * Each row is read and written exactly once (rows with no senders are a
 * straight memcpy), `cur` is never written, and the caller swaps the two
 * buffers afterwards — roughly half the traffic of snapshot + RMW, and
 * trivially shardable because every row's result depends only on the
 * read-only `cur`.  OR is commutative, so the result is independent of
 * both partner order and row processing order: bit-identical to the
 * sequential snapshot semantics.
 * ------------------------------------------------------------------ */

/* Incoming-sender CSR for one exchange round: each channel informs
 * dst[i] from src[i] and src[i] from dst[i].  `off` has n+1 slots and
 * `adj` two slots per channel.  After the fill pass off[r] is the END of
 * row r's slice (the classic cursor trick), so row r spans
 * [r ? off[r-1] : 0, off[r]).
 *
 * `complete` (n uint8 flags, or NULL when no row is complete) filters the
 * round by saturation.  Edges into an already-complete receiver are
 * dropped outright (its row cannot change).  Edges FROM a complete sender
 * mark the receiver "promoted" (`promoted`, n uint8 zeroed by the caller;
 * NULL is allowed with a NULL `complete`, which promotes nothing): a
 * complete row equals the full mask row exactly (subset invariant), so
 * ORing it in is equivalent to assigning the full row — the swap pass
 * handles promoted rows with one memcpy instead of any ORs.  Count and
 * fill passes use the identical predicate, so the cursors line up; a
 * promoted row may still own adj entries from its incomplete senders,
 * which the swap pass ignores (their contribution is a subset of the
 * full row). */
static void repro_sender_csr_f(const int64_t *src, const int64_t *dst,
                               int64_t k, int64_t n,
                               const uint8_t *complete, uint8_t *promoted,
                               int64_t *off, int64_t *adj) {
    memset(off, 0, (size_t)(n + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < k; i++) {
        const int64_t s = src[i], d = dst[i];
        const int cs = complete != NULL && complete[s];
        const int cd = complete != NULL && complete[d];
        if (!cd) {
            if (cs)
                promoted[d] = 1;
            else
                off[d]++;
        }
        if (!cs) {
            if (cd)
                promoted[s] = 1;
            else
                off[s]++;
        }
    }
    int64_t run = 0;
    for (int64_t r = 0; r < n; r++) {
        const int64_t c = off[r];
        off[r] = run;
        run += c;
    }
    off[n] = run;
    for (int64_t i = 0; i < k; i++) {
        const int64_t s = src[i], d = dst[i];
        if (complete == NULL || (!complete[d] && !complete[s])) {
            adj[off[d]++] = s;
            adj[off[s]++] = d;
        }
    }
}

/* Swap pass over the CSR.  Promoted rows are assigned the full mask row
 * (deficit 0); complete rows have no edges by construction and fall
 * through to the memcpy path, which copies their (already full) row
 * unchanged.  Bit-identical to ORing every channel unfiltered — see
 * docs/architecture.md for the argument.
 *
 * `mask`/`deficits` (both NULLable, must be set together) fuse the
 * completion recount into the round: rows that get OR-updated have their
 * deficit recomputed while the freshly written row is still in cache.
 * The semantics are IN-OUT — memcpy'd rows are NOT written, because an
 * unchanged row's previously recorded deficit is still correct — which
 * is what lets the caller drop its separate recount pass entirely. */
static void repro_swap_rows_f(const uint64_t *cur, uint64_t *next,
                              const int64_t *off, const int64_t *adj,
                              int64_t lo, int64_t hi, int64_t words,
                              const uint8_t *promoted,
                              const uint64_t *full_row,
                              const uint64_t *mask, int64_t *deficits) {
    for (int64_t r = lo; r < hi; r++) {
        uint64_t *dst = next + r * words;
        if (promoted != NULL && promoted[r]) {
            memcpy(dst, full_row, (size_t)words * sizeof(uint64_t));
            if (deficits != NULL)
                deficits[r] = 0;
            continue;
        }
        const int64_t start = r ? off[r - 1] : 0;
        const int64_t end = off[r];
        const uint64_t *src = cur + r * words;
        if (start == end) {
            memcpy(dst, src, (size_t)words * sizeof(uint64_t));
            continue;
        }
        repro_or2(dst, src, cur + adj[start] * words, words);
        for (int64_t j = start + 1; j < end; j++)
            repro_oracc(dst, cur + adj[j] * words, words);
        if (deficits != NULL)
            deficits[r] = repro_missing(dst, mask, words);
    }
}

/* ==================================================================== *
 * Persistent worker pool and receiver sharding.
 *
 * Every kernel below takes `nshards` and partitions the RECEIVER rows of
 * its batch into that many disjoint contiguous ranges; shard t applies
 * exactly the writes whose target row lies in [n*t/T, n*(t+1)/T).  Every
 * row a job reads is either start-of-step storage no thread writes (the
 * swap form's current matrix, a scatter's snapshot source) or one of the
 * shard's own rows, so threads only read state no thread is writing, and
 * each row is written by exactly one thread in the same relative order a
 * single shard would use.  The results are therefore bit-identical for
 * every shard count.
 *
 * One shard runs inline on the calling thread: no lock, no pool wake-up,
 * no allocation, so single-shard calls stay lock-free and reentrant.  The
 * pool is spawned lazily (repro_pool_ensure), never shrinks, and its
 * detached workers sleep on a condition variable between jobs.  The
 * calling thread always executes shard 0 itself, so a pool of W workers
 * serves up to W + 1 shards.
 * ==================================================================== */

typedef struct {
    void (*fn)(int64_t tid, int64_t nshards, void *arg);
    void *arg;
    int64_t nshards;
} repro_job;

static pthread_mutex_t repro_pool_mu = PTHREAD_MUTEX_INITIALIZER;
/* Serializes job submission: the pool has a single job slot, and the
 * kernels may be invoked from several Python threads at once (ctypes
 * releases the GIL), e.g. protocol runs inside a ThreadPoolExecutor.
 * Each sharded job runs to completion under this lock; single-shard calls
 * never take it. */
static pthread_mutex_t repro_caller_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t repro_pool_wake = PTHREAD_COND_INITIALIZER;
static pthread_cond_t repro_pool_done = PTHREAD_COND_INITIALIZER;
static repro_job repro_pool_job;
static uint64_t repro_pool_gen = 0;
static int64_t repro_pool_workers = 0;
static int64_t repro_pool_pending = 0;

typedef struct {
    int64_t wid;   /* worker wid runs shard wid+1 */
    uint64_t gen;  /* pool generation at creation time */
} repro_worker_init;

static void *repro_worker(void *arg) {
    repro_worker_init *init = (repro_worker_init *)arg;
    const int64_t wid = init->wid;
    /* Start from the generation current when this worker was registered
     * (captured under the pool mutex): jobs posted before then did not
     * count this worker in repro_pool_pending, so acknowledging them
     * would double-decrement and let a later job "complete" while a
     * shard is still writing.  Jobs posted after registration do count
     * it and are correctly picked up as gen > seen. */
    uint64_t seen = init->gen;
    free(init);
    pthread_mutex_lock(&repro_pool_mu);
    for (;;) {
        while (repro_pool_gen == seen)
            pthread_cond_wait(&repro_pool_wake, &repro_pool_mu);
        seen = repro_pool_gen;
        repro_job job = repro_pool_job;
        pthread_mutex_unlock(&repro_pool_mu);
        if (wid + 1 < job.nshards)
            job.fn(wid + 1, job.nshards, job.arg);
        pthread_mutex_lock(&repro_pool_mu);
        if (--repro_pool_pending == 0)
            pthread_cond_signal(&repro_pool_done);
    }
    return NULL;
}

/* Pool threads do not survive fork(2).  Serialize forks against pool
 * state with the standard atfork protocol and reset the (now threadless)
 * child's pool so its first ensure call re-spawns workers from scratch. */
static void repro_pool_atfork_prepare(void) {
    pthread_mutex_lock(&repro_caller_mu); /* no job in flight past here */
    pthread_mutex_lock(&repro_pool_mu);
}

static void repro_pool_atfork_parent(void) {
    pthread_mutex_unlock(&repro_pool_mu);
    pthread_mutex_unlock(&repro_caller_mu);
}

static void repro_pool_atfork_child(void) {
    pthread_mutex_init(&repro_pool_mu, NULL);
    pthread_mutex_init(&repro_caller_mu, NULL);
    pthread_cond_init(&repro_pool_wake, NULL);
    pthread_cond_init(&repro_pool_done, NULL);
    repro_pool_workers = 0;
    repro_pool_pending = 0;
    repro_pool_gen = 0;
}

static int repro_pool_atfork_registered = 0;

/* Grow the pool to at least `workers` detached threads; returns the count
 * actually available (thread creation is best-effort). */
int64_t repro_pool_ensure(int64_t workers) {
    pthread_mutex_lock(&repro_pool_mu);
    if (!repro_pool_atfork_registered) {
        if (pthread_atfork(repro_pool_atfork_prepare, repro_pool_atfork_parent,
                           repro_pool_atfork_child) != 0) {
            /* No fork protection -> no worker threads. */
            pthread_mutex_unlock(&repro_pool_mu);
            return 0;
        }
        repro_pool_atfork_registered = 1;
    }
    while (repro_pool_workers < workers) {
        repro_worker_init *init =
            (repro_worker_init *)malloc(sizeof(repro_worker_init));
        if (init == NULL)
            break;
        init->wid = repro_pool_workers;
        init->gen = repro_pool_gen;
        pthread_t th;
        pthread_attr_t attr;
        if (pthread_attr_init(&attr) != 0) {
            free(init);
            break;
        }
        pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
        int rc = pthread_create(&th, &attr, repro_worker, init);
        pthread_attr_destroy(&attr);
        if (rc != 0) {
            free(init);
            break;
        }
        repro_pool_workers++;
    }
    int64_t have = repro_pool_workers;
    pthread_mutex_unlock(&repro_pool_mu);
    return have;
}

/* Run one job over `nshards` shards: the calling thread takes shard 0,
 * pool workers the rest.  Every worker (even idle ones) acknowledges the
 * job before the next one can be posted, so generations never skip.  A
 * count beyond the pool (say, in a fork child that has not re-grown it)
 * is clamped to the workers present; every shard count gives the same
 * bits, so the clamp only costs parallelism. */
static void repro_run_sharded(void (*fn)(int64_t, int64_t, void *),
                              void *arg, int64_t nshards) {
    if (nshards <= 1) {
        fn(0, 1, arg);
        return;
    }
    pthread_mutex_lock(&repro_caller_mu);
    pthread_mutex_lock(&repro_pool_mu);
    if (nshards > repro_pool_workers + 1)
        nshards = repro_pool_workers + 1;
    repro_pool_job.fn = fn;
    repro_pool_job.arg = arg;
    repro_pool_job.nshards = nshards;
    repro_pool_pending = repro_pool_workers;
    repro_pool_gen++;
    pthread_cond_broadcast(&repro_pool_wake);
    pthread_mutex_unlock(&repro_pool_mu);
    fn(0, nshards, arg);
    pthread_mutex_lock(&repro_pool_mu);
    while (repro_pool_pending != 0)
        pthread_cond_wait(&repro_pool_done, &repro_pool_mu);
    pthread_mutex_unlock(&repro_pool_mu);
    pthread_mutex_unlock(&repro_caller_mu);
}

static void repro_shard_range(int64_t total, int64_t tid, int64_t nshards,
                              int64_t *lo, int64_t *hi) {
    *lo = total * tid / nshards;
    *hi = total * (tid + 1) / nshards;
}

/* Each shard function below copies its argument block into a local first,
 * so the compiler knows the row writes cannot alias the loop bounds. */

typedef struct {
    const uint64_t *cur;
    uint64_t *next;
    const int64_t *off;
    const int64_t *adj;
    int64_t n, words;
    const uint8_t *promoted;
    const uint64_t *full_row;
    const uint64_t *mask;
    int64_t *deficits;
} repro_swap_args;

static void repro_swap_shard(int64_t tid, int64_t T, void *p) {
    const repro_swap_args a = *(const repro_swap_args *)p;
    int64_t lo, hi;
    repro_shard_range(a.n, tid, T, &lo, &hi);
    repro_swap_rows_f(a.cur, a.next, a.off, a.adj, lo, hi, a.words,
                      a.promoted, a.full_row, a.mask, a.deficits);
}

/* One synchronous push-pull round: for every channel (callers[i],
 * targets[i]) both endpoints learn each other's start-of-round row.
 * Writes the full next state into `next`; the caller swaps buffers.  The
 * CSR build is O(k) integer work on the calling thread; the row pass
 * shards over disjoint row ranges reading only the immutable `cur`
 * (deficit writes land in the shard's own rows).  `complete` (n uint8
 * flags, or NULL: no row is complete and none is promoted) marks rows
 * already holding every required bit, `promoted` (n uint8, caller zeroes
 * it; NULL with a NULL `complete`) reports rows assigned the `full_row`
 * mask row this round, and the fused deficit write covers OR-updated and
 * promoted rows. */
void repro_exchange(const uint64_t *cur, uint64_t *next,
                    const int64_t *callers, const int64_t *targets,
                    int64_t k, int64_t n, int64_t words,
                    int64_t *off, int64_t *adj,
                    const uint8_t *complete, uint8_t *promoted,
                    const uint64_t *full_row,
                    const uint64_t *mask, int64_t *deficits,
                    int64_t nshards) {
    repro_sender_csr_f(callers, targets, k, n, complete, promoted, off, adj);
    repro_swap_args a = {cur,   next,     off,      adj,  n,
                         words, promoted, full_row, mask, deficits};
    repro_run_sharded(repro_swap_shard, &a, nshards);
}

typedef struct {
    uint64_t *data;
    const uint64_t *source;
    const int64_t *src;
    const int64_t *dst;
    int64_t k, n, words;
} repro_scatter_args;

static void repro_scatter_shard(int64_t tid, int64_t T, void *p) {
    const repro_scatter_args a = *(const repro_scatter_args *)p;
    int64_t lo, hi;
    repro_shard_range(a.n, tid, T, &lo, &hi);
    for (int64_t i = 0; i < a.k; i++) {
        const int64_t d = a.dst[i];
        if (d >= lo && d < hi)
            repro_oracc(a.data + d * a.words, a.source + a.src[i] * a.words,
                        a.words);
    }
}

/* OR source[src[i]] into data[dst[i]] for all i.  `source` must be a
 * start-of-step snapshot (disjoint storage from `data`), which makes the
 * result independent of processing order even with duplicate receivers;
 * each shard applies the transmissions into its own receiver rows. */
void repro_scatter_or(uint64_t *data, const uint64_t *source,
                      const int64_t *src, const int64_t *dst,
                      int64_t k, int64_t n, int64_t words, int64_t nshards) {
    repro_scatter_args a = {data, source, src, dst, k, n, words};
    repro_run_sharded(repro_scatter_shard, &a, nshards);
}

typedef struct {
    const uint64_t *data;
    const uint64_t *mask;
    const int64_t *rows;
    int64_t k, words;
    int64_t *deficits;
} repro_recount_args;

static void repro_recount_shard(int64_t tid, int64_t T, void *pa) {
    const repro_recount_args a = *(const repro_recount_args *)pa;
    int64_t lo, hi;
    repro_shard_range(a.k, tid, T, &lo, &hi);
    for (int64_t i = lo; i < hi; i++)
        a.deficits[i] =
            repro_missing(a.data + a.rows[i] * a.words, a.mask, a.words);
}

/* deficits[i] = popcount(mask & ~data[rows[i]]) — the number of required
 * message bits still missing from each listed row. */
void repro_recount(const uint64_t *data, const uint64_t *mask,
                   const int64_t *rows, int64_t k, int64_t words,
                   int64_t *deficits, int64_t nshards) {
    repro_recount_args a = {data, mask, rows, k, words, deficits};
    repro_run_sharded(repro_recount_shard, &a, nshards);
}

/* ------------------------------------------------------------------ *
 * In-place push batches.
 *
 * A push batch ORs every sender's start-of-batch row into its receiver.
 * Instead of copying the sender rows first, this kernel applies the
 * batch straight into `data` and orders the writes so that every read
 * still sees start-of-batch state.  Edge x->y reads x and writes y, so it
 * may run only once every edge that reads y — each out-edge of y — has
 * run.  A depth-first search along out-edges yields that order: edge
 * x->y is applied when y is finished (all its out-edges applied) or has
 * no out-edges.  x is unwritten then: it is still on the DFS stack, and
 * nothing writes a node on the stack except an edge that closes a cycle.
 * Such an edge, into a node y still on the stack, first copies y's row
 * once into a snapshot, and every later read of y takes the snapshot.
 * Self-loops OR a row into itself and are skipped.  OR is commutative,
 * so the bits equal the snapshot + scatter result.  Serial: no shard
 * count, never wakes the pool.
 *
 * The integer plan is caller-owned, REPRO_SLOTS int64 per node followed
 * by 2k int64 of edge scratch (the DFS stack and the out-edge CSR).  The
 * node part is zero on entry and again on return; only the batch's
 * senders are ever touched, so the reset costs O(k), not O(n).  Snapshot
 * rows — a few per batch, since push batches have few cycles — are
 * malloc'd here and freed before returning.  Returns 0; -1 when a
 * snapshot allocation failed (the batch is then partly applied); -2 when
 * an index lies outside [0, n) (nothing is written).
 * ------------------------------------------------------------------ */

/* Per-node plan slots: out-edges not yet taken, CSR cursor, 1 + the
 * snapshot row (0: none) and the DFS colour. */
enum { REPRO_LEFT, REPRO_NEXT, REPRO_SNAP, REPRO_COLOUR, REPRO_SLOTS };
enum { REPRO_WHITE, REPRO_GRAY, REPRO_BLACK };

int64_t repro_push_in_place(uint64_t *data, const int64_t *src,
                            const int64_t *dst, int64_t k, int64_t n,
                            int64_t words, int64_t *plan) {
    for (int64_t i = 0; i < k; i++)
        if (src[i] < 0 || src[i] >= n || dst[i] < 0 || dst[i] >= n)
            return -2;
    int64_t *stack = plan + REPRO_SLOTS * n;
    int64_t *adj = stack + k;
    /* Out-edge CSR over the senders alone: count, hand out slices in
     * order of first appearance (NEXT holds the slice end; 0 = no slice
     * yet, as every slice is non-empty), then fill each slice backwards,
     * which leaves NEXT at the slice start. */
    for (int64_t i = 0; i < k; i++)
        plan[src[i] * REPRO_SLOTS + REPRO_LEFT]++;
    int64_t run = 0;
    for (int64_t i = 0; i < k; i++) {
        int64_t *s = plan + src[i] * REPRO_SLOTS;
        if (s[REPRO_NEXT] == 0) {
            run += s[REPRO_LEFT];
            s[REPRO_NEXT] = run;
        }
    }
    for (int64_t i = 0; i < k; i++)
        adj[--plan[src[i] * REPRO_SLOTS + REPRO_NEXT]] = dst[i];

    const size_t row_bytes = (size_t)words * sizeof(uint64_t);
    uint64_t *snaps = NULL;
    int64_t nsnaps = 0, cap = 0, status = 0;
    for (int64_t i = 0; i < k && status == 0; i++) {
        if (plan[src[i] * REPRO_SLOTS + REPRO_COLOUR] != REPRO_WHITE)
            continue;
        plan[src[i] * REPRO_SLOTS + REPRO_COLOUR] = REPRO_GRAY;
        int64_t depth = 1;
        stack[0] = src[i];
        while (depth > 0) {
            int64_t x = stack[depth - 1], y;
            int64_t *px = plan + x * REPRO_SLOTS;
            if (px[REPRO_LEFT] == 0) {
                /* Every out-edge of x has run: finish x, then apply the
                 * parent's edge that opened it. */
                px[REPRO_COLOUR] = REPRO_BLACK;
                if (--depth == 0)
                    break;
                y = x;
                x = stack[depth - 1];
                px = plan + x * REPRO_SLOTS;
            } else {
                px[REPRO_LEFT]--;
                y = adj[px[REPRO_NEXT]++];
                if (y == x)
                    continue;
                int64_t *py = plan + y * REPRO_SLOTS;
                if (py[REPRO_COLOUR] == REPRO_WHITE && py[REPRO_LEFT] > 0) {
                    py[REPRO_COLOUR] = REPRO_GRAY;
                    stack[depth++] = y;
                    continue;
                }
                if (py[REPRO_COLOUR] == REPRO_GRAY && py[REPRO_SNAP] == 0) {
                    /* x->y closes a cycle: y's own out-edges still have
                     * to read its start-of-batch row. */
                    if (nsnaps == cap) {
                        const int64_t grown = cap ? 2 * cap : 16;
                        uint64_t *more = (uint64_t *)realloc(
                            snaps, (size_t)grown * row_bytes);
                        if (more == NULL) {
                            status = -1;
                            break;
                        }
                        snaps = more;
                        cap = grown;
                    }
                    memcpy(snaps + nsnaps * words, data + y * words,
                           row_bytes);
                    py[REPRO_SNAP] = ++nsnaps;
                }
            }
            const uint64_t *from =
                px[REPRO_SNAP] ? snaps + (px[REPRO_SNAP] - 1) * words
                               : data + x * words;
            repro_oracc(data + y * words, from, words);
        }
    }
    for (int64_t i = 0; i < k; i++)
        memset(plan + src[i] * REPRO_SLOTS, 0, REPRO_SLOTS * sizeof(int64_t));
    free(snaps);
    return status;
}

/* ------------------------------------------------------------------ *
 * Graph kernels for G(n, p).
 *
 * The gap sampler emits the edge set as strictly increasing indices into
 * the row-major upper triangle: pair (r, c), r < c, has index
 * r*n - r*(r+1)/2 + (c - r - 1), so row r owns n - 1 - r consecutive
 * indices.  Both kernels are serial (no shard count, no SIMD, no pool)
 * and return a status.
 * ------------------------------------------------------------------ */

/* CSR of the undirected graph on `n` nodes whose edges are the `m` pair
 * indices in `pairs`.  `indptr` has n + 1 slots and `indices` 2m; the
 * caller keeps n below 2^31, so every node id fits int32_t.  Pass 1
 * checks the input (strictly increasing, below n(n-1)/2) and counts
 * degrees; pass 2 walks the pairs again, writing c into row r and r into
 * row c through per-row cursors.  The pairs (v, u), v < u, that give row u
 * its lower neighbours all precede row u's own pairs (u, c), so each row
 * receives its lower neighbours first and then its upper ones, both
 * ascending: the rows come out sorted with no sort.  Returns 0, or -1
 * (nothing meaningful written to `indices`) when the input is invalid. */
int64_t repro_pairs_csr(const int64_t *pairs, int64_t m, int64_t n,
                        int64_t *indptr, int32_t *indices) {
    const int64_t total = n > 1 ? n * (n - 1) / 2 : 0;
    memset(indptr, 0, (size_t)(n + 1) * sizeof(int64_t));
    /* Row r spans pair indices [start, end). */
    int64_t prev = -1, r = 0, start = 0, end = n - 1;
    for (int64_t k = 0; k < m; k++) {
        const int64_t pos = pairs[k];
        if (pos <= prev || pos >= total)
            return -1;
        prev = pos;
        while (pos >= end) {
            r++;
            start = end;
            end += n - 1 - r;
        }
        indptr[r]++;
        indptr[r + 1 + pos - start]++;
    }
    int64_t run = 0;
    for (int64_t u = 0; u < n; u++) {
        const int64_t d = indptr[u];
        indptr[u] = run;
        run += d;
    }
    indptr[n] = run;
    r = 0;
    start = 0;
    end = n - 1;
    for (int64_t k = 0; k < m; k++) {
        const int64_t pos = pairs[k];
        while (pos >= end) {
            r++;
            start = end;
            end += n - 1 - r;
        }
        const int64_t c = r + 1 + pos - start;
        indices[indptr[r]++] = (int32_t)c;
        indices[indptr[c]++] = (int32_t)r;
    }
    /* The cursors now hold each row's END: shift them back to starts. */
    memmove(indptr + 1, indptr, (size_t)n * sizeof(int64_t));
    indptr[0] = 0;
    return 0;
}

/* 1 when every node of the CSR graph is reachable from node 0, else 0.
 * `queue` has n slots and `seen` n zeroed bytes.  The queue BFS stops as
 * soon as all n nodes are queued, so a connected graph never scans the
 * lists of its last frontier.  The caller guarantees a valid CSR:
 * indptr non-decreasing from 0 to the size of `indices`, entries < n. */
int64_t repro_bfs_connected(const int64_t *indptr, const int32_t *indices,
                            int64_t n, int64_t *queue, uint8_t *seen) {
    if (n <= 1)
        return 1;
    int64_t head = 0, tail = 1;
    queue[0] = 0;
    seen[0] = 1;
    while (head < tail) {
        const int64_t u = queue[head++];
        for (int64_t j = indptr[u]; j < indptr[u + 1]; j++) {
            const int64_t v = indices[j];
            if (!seen[v]) {
                seen[v] = 1;
                queue[tail++] = v;
                if (tail == n)
                    return 1;
            }
        }
    }
    return 0;
}
"""


def _cpu_signature() -> str:
    """A machine identifier for the cache key.

    The SIMD code paths are selected at *runtime*, so the binary itself is
    portable across x86-64 machines — but it is tuned with ``-mtune=native``
    and the safest policy for a cache shared across heterogeneous CPUs
    (e.g. TMPDIR or HOME on a cluster filesystem) is still one binary per
    microarchitecture.  The CPU feature flags are the closest portable
    proxy.
    """
    parts = [platform.machine()]
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    parts.append(line)
                    break
    except OSError:
        parts.append(platform.processor())
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:8]


def _cache_dir(digest: str) -> str:
    """A private, user-owned directory to build and load the library from.

    ``ctypes.CDLL`` executes code from the returned path, so it must not be
    attacker-preparable: prefer ``~/.cache``, fall back to a per-user temp
    directory, create it ``0700``, and refuse paths not owned by us or
    writable by others.  Raises :class:`OSError` when the directory cannot
    be created or is refused.
    """
    try:
        user = getpass.getuser()
    except Exception:  # pragma: no cover - exotic environments
        user = f"uid{os.getuid()}" if hasattr(os, "getuid") else "unknown"
    home_cache = os.path.join(os.path.expanduser("~"), ".cache")
    base = home_cache if os.path.isdir(home_cache) else tempfile.gettempdir()
    cache_dir = os.path.join(base, f"repro-ckernel-{user}-{digest}")
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    if hasattr(os, "getuid"):
        st = os.stat(cache_dir)
        if st.st_uid != os.getuid() or (st.st_mode & 0o022):
            raise PermissionError(
                f"{cache_dir} is not owned by this user or is writable by others"
            )
    return cache_dir


#: Build flags.  Deliberately NOT ``-march=native``: the command-line ISA
#: set is additive with per-function ``target`` attributes, so with
#: ``-march=native`` an "avx2" dispatch variant could legally be compiled
#: with AVX-512 instructions and the per-level timings (and the scalar
#: control) would lie.  ``-mtune=native`` keeps scheduling tuned for the
#: build host without widening any function's ISA.
_CFLAGS = ("-O3", "-mtune=native", "-pthread", "-shared", "-fPIC")


def _compile(compiler: str, lib_path: str) -> None:
    """Compile to ``lib_path`` through per-process temp source and output.

    Concurrent cold-cache imports must never compile a source file another
    process is truncating, nor load a half-written library.
    """
    tmp_path = lib_path + f".tmp{os.getpid()}"
    src_path = tmp_path + ".c"
    try:
        with open(src_path, "w") as fh:
            fh.write(_SOURCE)
        subprocess.run(
            [compiler, *_CFLAGS, src_path, "-o", tmp_path],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp_path, lib_path)
    finally:
        for leftover in (src_path, tmp_path):
            try:
                os.remove(leftover)
            except FileNotFoundError:
                pass


def _bind(lib: ctypes.CDLL) -> None:
    """Declare every exported symbol's signature (AttributeError if missing)."""
    u64p = ctypes.POINTER(ctypes.c_uint64)
    i64p = ctypes.POINTER(ctypes.c_int64)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    i32p = ctypes.POINTER(ctypes.c_int32)
    i64 = ctypes.c_int64
    # Every kernel's last argument is its shard count.
    kernels = {
        "repro_scatter_or": [u64p, u64p, i64p, i64p, i64, i64, i64],
        "repro_exchange": [
            u64p, u64p, i64p, i64p, i64, i64, i64, i64p, i64p,
            u8p, u8p, u64p, u64p, i64p,
        ],
        "repro_recount": [u64p, u64p, i64p, i64, i64, i64p],
    }
    for name, argtypes in kernels.items():
        kernel = getattr(lib, name)
        kernel.argtypes = argtypes + [i64]
        kernel.restype = None
    # The serial kernels return a status and take no shard count.
    lib.repro_push_in_place.argtypes = [u64p, i64p, i64p, i64, i64, i64, i64p]
    lib.repro_push_in_place.restype = i64
    lib.repro_pairs_csr.argtypes = [i64p, i64, i64, i64p, i32p]
    lib.repro_pairs_csr.restype = i64
    lib.repro_bfs_connected.argtypes = [i64p, i32p, i64, i64p, u8p]
    lib.repro_bfs_connected.restype = i64
    lib.repro_simd_detect.argtypes = []
    lib.repro_simd_detect.restype = ctypes.c_int
    lib.repro_simd_set.argtypes = [ctypes.c_int]
    lib.repro_simd_set.restype = ctypes.c_int
    lib.repro_simd_active.argtypes = []
    lib.repro_simd_active.restype = ctypes.c_int
    lib.repro_pool_ensure.argtypes = [i64]
    lib.repro_pool_ensure.restype = i64


def library_path() -> str:
    """Where the library built from :data:`_SOURCE` and :data:`_CFLAGS` lives.

    The cache directory is keyed on a digest of both and on the CPU
    signature, and is created if missing.  :func:`_build` loads the file
    there when it exists and compiles it otherwise, so a library placed at
    this path beforehand (say, a sanitizer build) is the one loaded.
    Raises :class:`OSError` when the directory is refused.
    """
    digest = hashlib.sha256(
        ("|".join(_CFLAGS) + "\n" + _SOURCE).encode()
    ).hexdigest()[:16]
    cache_dir = _cache_dir(f"{digest}-{_cpu_signature()}")
    return os.path.join(cache_dir, "libreprokernel.so")


def _build() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    """Build, load and bind the library: ``(lib, None)`` or ``(None, reason)``.

    Never raises.  The reason is ``"disabled"`` when ``REPRO_DISABLE_CKERNEL``
    is set, otherwise it names the failure: no compiler, a refused cache
    directory, a compiler error or timeout, or a library that does not load
    or lacks a symbol.  A compile (a cache miss) logs one INFO record with
    the compiler, its wall seconds and the library path.
    """
    if os.environ.get("REPRO_DISABLE_CKERNEL"):
        return None, "disabled"
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None, "no C compiler (cc, gcc or clang) on PATH"
    try:
        lib_path = library_path()
    except OSError as exc:
        return None, f"cache directory refused: {exc}"
    try:
        if not os.path.exists(lib_path):
            start = time.perf_counter()
            _compile(compiler, lib_path)
            _log.info(
                "compiled kernels with %s in %.2f s: %s",
                compiler, time.perf_counter() - start, lib_path,
            )
        lib = ctypes.CDLL(lib_path)
        _bind(lib)
    except subprocess.CalledProcessError as exc:
        stderr = exc.stderr.decode(errors="replace").strip().splitlines()
        return None, f"compiler error: {stderr[-1] if stderr else exc}"
    except subprocess.TimeoutExpired:
        return None, "compiler timed out after 120 s"
    except AttributeError as exc:
        return None, f"missing symbol: {exc}"
    except OSError as exc:
        return None, f"library not built or loaded: {exc}"
    return lib, None


_LIB, _UNAVAILABLE = _build()

if _UNAVAILABLE is not None and _UNAVAILABLE != "disabled":
    _log.warning("compiled kernels unavailable, using NumPy: %s", _UNAVAILABLE)

if _LIB is not None and os.environ.get("REPRO_DISABLE_SIMD"):
    _LIB.repro_simd_set(0)

_U64P = ctypes.POINTER(ctypes.c_uint64)
_I64P = ctypes.POINTER(ctypes.c_int64)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_I32P = ctypes.POINTER(ctypes.c_int32)


def available() -> bool:
    """Whether the compiled kernels are usable on this machine."""
    return _LIB is not None


def status() -> str:
    """``"loaded"``, or why the compiled kernels are unavailable.

    ``"disabled"`` means ``REPRO_DISABLE_CKERNEL`` is set; anything else is
    the build or load failure logged at import.
    """
    if _LIB is not None:
        return "loaded"
    return _UNAVAILABLE or "unavailable"


#: Dispatch level names, indexed by the C-side level integer.
SIMD_LEVELS = ("scalar", "avx2", "avx512")


def simd_detected() -> int:
    """The highest SIMD level this CPU supports (0 when no compiled lib)."""
    if _LIB is None:
        return 0
    return int(_LIB.repro_simd_detect())


def simd_active() -> int:
    """The SIMD level currently installed in the dispatch pointers."""
    if _LIB is None:
        return 0
    return int(_LIB.repro_simd_active())


def set_simd_level(level: int) -> int:
    """Install ``level`` (clamped to hardware support); return the result.

    Level 0 is the honest scalar control (the hardware-POPCNT deficit
    counter stays installed when the CPU has it — POPCNT is not a vector
    instruction).  Intended for tests and the SIMD micro-benchmarks; must
    not race in-flight sharded kernels.
    """
    if _LIB is None:
        return 0
    return int(_LIB.repro_simd_set(ctypes.c_int(int(level))))


def simd_name(level: Optional[int] = None) -> str:
    """Human-readable name of ``level`` (default: the active level)."""
    if level is None:
        level = simd_active()
    return SIMD_LEVELS[max(0, min(int(level), len(SIMD_LEVELS) - 1))]


def _u64(arr: np.ndarray):
    return arr.ctypes.data_as(_U64P)


def _i64(arr: np.ndarray):
    return arr.ctypes.data_as(_I64P)


#: Worker threads known to exist in the C pool (grown lazily, never shrunk),
#: together with the process that owns them — pool threads do not survive
#: ``fork``, so a child process must not trust the inherited count.
_POOL_WORKERS = 0
_POOL_PID: Optional[int] = None

#: Hard cap on shards per job — far above any sensible core count, it only
#: bounds runaway configuration values.
MAX_SHARDS = 64


def ensure_shards(shards: int) -> int:
    """Grow the worker pool for ``shards``-way jobs; return the usable count.

    The calling thread always executes shard 0 itself, so ``shards`` shards
    need ``shards - 1`` pool workers.  Thread creation is best-effort: the
    return value (possibly just 1, meaning "run on the calling thread") is
    the shard count to pass to the kernels.  Safe after ``fork`` (e.g.
    inside ``ProcessPoolExecutor`` workers): the cached count is per-process
    and the C pool re-spawns its threads in the child.
    """
    global _POOL_WORKERS, _POOL_PID
    if _LIB is None or shards <= 1:
        return 1
    pid = os.getpid()
    if pid != _POOL_PID:
        _POOL_WORKERS = 0
        _POOL_PID = pid
    shards = min(int(shards), MAX_SHARDS)
    if shards - 1 > _POOL_WORKERS:
        _POOL_WORKERS = int(_LIB.repro_pool_ensure(ctypes.c_int64(shards - 1)))
    return min(shards, _POOL_WORKERS + 1)


def scatter_or(
    data: np.ndarray,
    source: np.ndarray,
    senders: np.ndarray,
    receivers: np.ndarray,
    shards: int = 1,
) -> None:
    """OR ``source[senders[i]]`` into ``data[receivers[i]]`` for all ``i``.

    ``source`` must not share storage with the written rows of ``data`` (it
    is the start-of-step snapshot), all arrays must be C-contiguous, and the
    index arrays must be ``int64``.
    """
    _LIB.repro_scatter_or(
        _u64(data),
        _u64(source),
        _i64(senders),
        _i64(receivers),
        ctypes.c_int64(senders.size),
        ctypes.c_int64(data.shape[0]),
        ctypes.c_int64(data.shape[1]),
        ctypes.c_int64(shards),
    )


def exchange(
    data: np.ndarray,
    scratch: np.ndarray,
    callers: np.ndarray,
    targets: np.ndarray,
    off: np.ndarray,
    adj: np.ndarray,
    complete: Optional[np.ndarray] = None,
    promoted: Optional[np.ndarray] = None,
    full_row: Optional[np.ndarray] = None,
    mask: Optional[np.ndarray] = None,
    deficits: Optional[np.ndarray] = None,
    shards: int = 1,
) -> None:
    """Apply one push-pull round in swap form.

    Reads ``data`` (unchanged) and writes the complete end-of-round state
    into ``scratch`` — every row exactly once — using the caller-provided
    CSR buffers (``off``: ``n + 1`` int64 slots, ``adj``: at least
    ``2 * callers.size``).  **The caller must swap the two buffers
    afterwards**; this halves the memory traffic of snapshot + RMW.

    ``complete`` (an ``n`` uint8 array, or ``None``: no row is complete)
    flags rows that already hold every required bit; edges into them are
    dropped and edges from them promote their receiver to a single
    ``full_row`` memcpy.  With ``complete`` given, ``promoted`` (an ``n``
    uint8 output array the caller must zero beforehand) reports the rows
    assigned ``full_row`` this round, and both are required.  Bit-identical
    to ORing every channel under the subset invariant (every row ⊆
    ``full_row``, complete rows == ``full_row``).

    When ``mask``/``deficits`` are given (a ``words`` uint64 row and an
    ``n`` int64 array), the kernel fuses the completion recount into the
    round: every OR-updated row gets ``deficits[r] = popcount(mask &
    ~row)`` written while the row is hot, and every promoted row gets 0.
    Untouched rows keep their prior deficit values (which remain correct —
    the rows did not change), so ``deficits`` must already hold valid
    counts on entry.
    """
    if complete is not None and (promoted is None or full_row is None):
        raise ValueError("complete needs promoted and full_row")
    _LIB.repro_exchange(
        _u64(data),
        _u64(scratch),
        _i64(callers),
        _i64(targets),
        ctypes.c_int64(callers.size),
        ctypes.c_int64(data.shape[0]),
        ctypes.c_int64(data.shape[1]),
        _i64(off),
        _i64(adj),
        complete.ctypes.data_as(_U8P) if complete is not None else None,
        promoted.ctypes.data_as(_U8P) if promoted is not None else None,
        _u64(full_row) if full_row is not None else None,
        _u64(mask) if mask is not None else None,
        _i64(deficits) if deficits is not None else None,
        ctypes.c_int64(shards),
    )


def push_in_place(
    data: np.ndarray, senders: np.ndarray, receivers: np.ndarray, plan: np.ndarray
) -> None:
    """OR each sender's start-of-batch row into its receiver, in ``data`` itself.

    No sender rows are copied except the few that close a cycle in the
    batch's sender -> receiver graph: the kernel orders the writes so that
    every sender is read before anything writes it (see ``_SOURCE``).
    Serial.  ``plan`` is caller-owned ``int64`` scratch of at least
    ``4 n + 2 k`` entries (``n`` rows, ``k`` transmissions) whose first
    ``4 n`` are zero; the kernel leaves them zero.  Index arrays must be
    C-contiguous ``int64``.  Raises :class:`IndexError` (nothing written)
    when an index lies outside ``[0, n)``, and :class:`MemoryError` (the
    batch partly applied) when the cycle rows cannot be allocated.
    """
    n, words = data.shape
    k = senders.size
    if receivers.size != k or plan.size < 4 * n + 2 * k:
        raise ValueError("receivers must match senders, and plan needs 4 n + 2 k slots")
    status = _LIB.repro_push_in_place(
        _u64(data),
        _i64(senders),
        _i64(receivers),
        ctypes.c_int64(k),
        ctypes.c_int64(n),
        ctypes.c_int64(words),
        _i64(plan),
    )
    if status == -2:
        raise IndexError(f"transmission endpoints must lie in [0, {n})")
    if status != 0:
        raise MemoryError("cannot allocate the snapshot rows of a push batch")


def recount_deficits(
    data: np.ndarray, mask: np.ndarray, rows: np.ndarray, shards: int = 1
) -> np.ndarray:
    """Per-row count of bits in ``mask`` missing from ``data[rows]``."""
    deficits = np.empty(rows.size, dtype=np.int64)
    _LIB.repro_recount(
        _u64(data),
        _u64(mask),
        _i64(rows),
        ctypes.c_int64(rows.size),
        ctypes.c_int64(data.shape[1]),
        _i64(deficits),
        ctypes.c_int64(shards),
    )
    return deficits


def pairs_csr(n: int, pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the ``n``-node graph with edge set ``pairs``.

    ``pairs`` holds strictly increasing indices into the row-major upper
    triangle (pair ``(r, c)``, ``r < c``, is ``r*n - r*(r+1)/2 + c - r - 1``),
    as :mod:`repro.graphs.erdos_renyi` samples them.  Two serial O(n + m)
    passes, no sort; the rows come out sorted.  ``indptr`` is ``int64`` and
    ``indices`` ``int32``, the dtypes :class:`~repro.graphs.adjacency.Adjacency`
    keeps.  Raises :class:`ValueError` when ``pairs`` is not strictly
    increasing or leaves ``[0, n(n-1)/2)``, or when ``n`` exceeds the
    ``int32`` range.
    """
    pairs = np.ascontiguousarray(pairs, dtype=np.int64)
    if pairs.ndim != 1:
        raise ValueError("pair indices must be one-dimensional")
    if not 0 <= n <= np.iinfo(np.int32).max:
        raise ValueError(f"n must lie in [0, 2**31 - 1], got {n}")
    indptr = np.empty(n + 1, dtype=np.int64)
    indices = np.empty(2 * pairs.size, dtype=np.int32)
    status = _LIB.repro_pairs_csr(
        _i64(pairs),
        ctypes.c_int64(pairs.size),
        ctypes.c_int64(n),
        _i64(indptr),
        indices.ctypes.data_as(_I32P),
    )
    if status != 0:
        raise ValueError(
            f"pair indices must be strictly increasing and in [0, {n * (n - 1) // 2})"
        )
    return indptr, indices


def bfs_connected(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether every node of a valid CSR graph is reachable from node 0.

    The caller guarantees the CSR invariants that
    :class:`~repro.graphs.adjacency.Adjacency` checks on construction:
    ``indptr`` non-decreasing from 0 to ``indices.size`` and every entry of
    ``indices`` in ``[0, n)``; the reads stay inside ``indices`` only then.
    ``indices`` is read in place, so it must be a C-contiguous ``int32``
    array (:class:`ValueError` otherwise).
    """
    if indices.dtype != np.int32 or not indices.flags.c_contiguous:
        raise ValueError("indices must be a C-contiguous int32 array")
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    n = indptr.size - 1
    queue = np.empty(max(n, 1), dtype=np.int64)
    seen = np.zeros(max(n, 1), dtype=np.uint8)
    return bool(
        _LIB.repro_bfs_connected(
            _i64(indptr),
            indices.ctypes.data_as(_I32P),
            ctypes.c_int64(n),
            _i64(queue),
            seen.ctypes.data_as(_U8P),
        )
    )
