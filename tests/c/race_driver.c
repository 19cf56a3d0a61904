/* Race check of the compiled kernels' shard pool, run under ThreadSanitizer.
 *
 * Built together with both kernel units, from the repository root:
 *
 *     cc -fsanitize=thread -O1 -g -pthread tests/c/race_driver.c \
 *         src/repro/engine/kernels/simd.c src/repro/engine/kernels/kernels.c \
 *         -o race_driver
 *     TSAN_OPTIONS=halt_on_error=1 ./race_driver
 *
 * It runs repro_exchange (with and without complete flags),
 * repro_scatter_or and repro_recount on random inputs at 1, 2, 4 and 8
 * shards and checks that every shard count writes the same bytes.  Then
 * two threads submit sharded jobs at once, and the process forks while
 * the pool is alive and one of those threads is still submitting; the
 * child runs sharded kernels on the pool it inherits reset and on the
 * pool it grows again.  Exits 0 when every check passes; ThreadSanitizer
 * makes it exit nonzero on a data race. */
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

/* The kernels under test, as kernels.c exports them. */
int64_t repro_pool_ensure(int64_t workers);
void repro_exchange(const uint64_t *cur, uint64_t *next,
                    const int64_t *callers, const int64_t *targets,
                    int64_t k, int64_t n, int64_t words, int64_t *off,
                    int64_t *adj, const uint8_t *complete, uint8_t *promoted,
                    const uint64_t *full_row, const uint64_t *mask,
                    int64_t *deficits, int64_t nshards);
void repro_scatter_or(uint64_t *data, const uint64_t *source,
                      const int64_t *src, const int64_t *dst, int64_t k,
                      int64_t n, int64_t words, int64_t nshards);
void repro_recount(const uint64_t *data, const uint64_t *mask,
                   const int64_t *rows, int64_t k, int64_t words,
                   int64_t *deficits, int64_t nshards);

/* The child starts new threads after a multi-threaded fork, as a forked
 * worker process of the Python package does; ThreadSanitizer would
 * otherwise stop it there. */
const char *__tsan_default_options(void) { return "die_after_fork=0"; }

enum { N = 512, WORDS = 8, K = 400, MAX_SHARDS = 8 };

static const int64_t SHARDS[] = {1, 2, 4, 8};
/* Counted from both callers, hence atomically. */
static int failures = 0;

static uint64_t rng_state = 0x9E3779B97F4A7C15u;

/* splitmix64 */
static uint64_t next_u64(void) {
    uint64_t z = (rng_state += 0x9E3779B97F4A7C15u);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

static void check(int ok, const char *what, int64_t shards) {
    if (!ok) {
        fprintf(stderr, "race_driver: %s differs at %lld shards\n", what,
                (long long)shards);
        __atomic_add_fetch(&failures, 1, __ATOMIC_RELAXED);
    }
}

/* One random start state: every row a subset of the all-ones full row,
 * every 16th row complete, and the round's channels, a scatter batch and a
 * recount list. */
typedef struct {
    uint64_t matrix[N * WORDS];
    uint64_t full_row[WORDS];
    uint8_t complete[N];
    int64_t callers[K], targets[K];
    int64_t senders[K], receivers[K];
    int64_t rows[K];
} inputs;

static void make_inputs(inputs *in) {
    for (int64_t i = 0; i < N * WORDS; i++)
        in->matrix[i] = next_u64() & next_u64();
    for (int64_t w = 0; w < WORDS; w++)
        in->full_row[w] = ~(uint64_t)0;
    for (int64_t r = 0; r < N; r++) {
        in->complete[r] = r % 16 == 0;
        if (in->complete[r])
            memcpy(in->matrix + r * WORDS, in->full_row, sizeof in->full_row);
    }
    for (int64_t i = 0; i < K; i++) {
        in->callers[i] = (int64_t)(next_u64() % N);
        in->targets[i] = (int64_t)(next_u64() % N);
        in->senders[i] = (int64_t)(next_u64() % N);
        in->receivers[i] = (int64_t)(next_u64() % N);
        in->rows[i] = (int64_t)(next_u64() % N);
    }
}

/* Everything one pass of the three kernels writes. */
typedef struct {
    uint64_t next[N * WORDS];
    int64_t deficits[N];
    uint8_t promoted[N];
    uint64_t next_plain[N * WORDS];
    int64_t deficits_plain[N];
    uint64_t scattered[N * WORDS];
    int64_t recounted[K];
} outputs;

static void run_kernels(const inputs *in, outputs *out, int64_t shards) {
    static __thread int64_t off[N + 1], adj[2 * K];
    memset(out, 0, sizeof *out);
    repro_exchange(in->matrix, out->next, in->callers, in->targets, K, N,
                   WORDS, off, adj, in->complete, out->promoted,
                   in->full_row, in->full_row, out->deficits, shards);
    repro_exchange(in->matrix, out->next_plain, in->callers, in->targets, K,
                   N, WORDS, off, adj, NULL, NULL, NULL, in->full_row,
                   out->deficits_plain, shards);
    memcpy(out->scattered, in->matrix, sizeof out->scattered);
    repro_scatter_or(out->scattered, in->matrix, in->senders, in->receivers,
                     K, N, WORDS, shards);
    repro_recount(in->matrix, in->full_row, in->rows, K, WORDS,
                  out->recounted, shards);
}

static void compare(const outputs *want, const outputs *got, int64_t shards) {
    check(!memcmp(want->next, got->next, sizeof got->next), "filtered exchange",
          shards);
    check(!memcmp(want->deficits, got->deficits, sizeof got->deficits),
          "filtered exchange deficits", shards);
    check(!memcmp(want->promoted, got->promoted, sizeof got->promoted),
          "promoted rows", shards);
    check(!memcmp(want->next_plain, got->next_plain, sizeof got->next_plain),
          "exchange", shards);
    check(!memcmp(want->deficits_plain, got->deficits_plain,
                  sizeof got->deficits_plain),
          "exchange deficits", shards);
    check(!memcmp(want->scattered, got->scattered, sizeof got->scattered),
          "scatter_or", shards);
    check(!memcmp(want->recounted, got->recounted, sizeof got->recounted),
          "recount", shards);
}

static inputs in_a, in_b;
static outputs want_a, want_b;

/* A second caller: sharded passes over its own inputs until told to stop. */
static volatile int stop_submitting = 0;

static void *submit(void *arg) {
    (void)arg;
    static outputs got;
    int rounds = 0;
    while (!__atomic_load_n(&stop_submitting, __ATOMIC_ACQUIRE) || rounds < 4) {
        run_kernels(&in_b, &got, SHARDS[rounds % 4]);
        compare(&want_b, &got, SHARDS[rounds % 4]);
        rounds++;
    }
    return NULL;
}

int main(void) {
    static outputs got;
    make_inputs(&in_a);
    make_inputs(&in_b);
    run_kernels(&in_a, &want_a, 1);
    run_kernels(&in_b, &want_b, 1);
    if (repro_pool_ensure(MAX_SHARDS - 1) != MAX_SHARDS - 1) {
        fprintf(stderr, "race_driver: cannot start %d pool workers\n",
                MAX_SHARDS - 1);
        return 2;
    }
    for (int rep = 0; rep < 3; rep++)
        for (int s = 0; s < 4; s++) {
            run_kernels(&in_a, &got, SHARDS[s]);
            compare(&want_a, &got, SHARDS[s]);
        }

    /* Two callers at once, and a fork while the second one submits. */
    pthread_t other;
    if (pthread_create(&other, NULL, submit, NULL) != 0) {
        fprintf(stderr, "race_driver: cannot start a second caller\n");
        return 2;
    }
    for (int s = 0; s < 4; s++) {
        run_kernels(&in_a, &got, SHARDS[s]);
        compare(&want_a, &got, SHARDS[s]);
    }
    fflush(NULL);
    const pid_t child = fork();
    if (child == 0) {
        /* The pool is reset here: a sharded call runs inline until the
         * pool grows again. */
        run_kernels(&in_a, &got, MAX_SHARDS);
        compare(&want_a, &got, MAX_SHARDS);
        if (repro_pool_ensure(3) != 3) {
            fprintf(stderr, "race_driver: the child cannot regrow its pool\n");
            _exit(2);
        }
        for (int s = 0; s < 4; s++) {
            run_kernels(&in_a, &got, SHARDS[s]);
            compare(&want_a, &got, SHARDS[s]);
        }
        _exit(failures ? 1 : 0);
    }
    if (child < 0) {
        fprintf(stderr, "race_driver: fork failed\n");
        return 2;
    }
    for (int s = 0; s < 4; s++) {
        run_kernels(&in_a, &got, SHARDS[s]);
        compare(&want_a, &got, SHARDS[s]);
    }
    __atomic_store_n(&stop_submitting, 1, __ATOMIC_RELEASE);
    pthread_join(other, NULL);
    int status = 0;
    if (waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        fprintf(stderr, "race_driver: the forked child failed (status %d)\n",
                status);
        failures++;
    }
    if (failures == 0)
        printf("race_driver: all shard counts agree\n");
    return failures ? 1 : 0;
}
