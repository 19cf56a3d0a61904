#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "simd.h"

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
