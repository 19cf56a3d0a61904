"""The plain matrix at the row widths a word-sparse representation once served.

Rows of 96 words or more (6144 messages and up) used to start on a
word-sparse representation and move to the plain matrix as they filled.
:class:`KnowledgeMatrix` and its dense kernels now serve them from the first
round, so those kernels meet these widths at every density: one or two
nonzero words per row at the start, whole rows at the end.  These tests
drive the matrix at 96 words, at 97 words and at 97 words with a 7-bit tail
word, on the compiled kernels serial and sharded and on NumPy, from that
sparse start to saturation, and check every batch against a per-edge
reference loop that reads start-of-batch rows:

* push rounds, full and sparse,
* push-pull exchange rounds, unfiltered, on both the swap and the
  gather/scatter branch,
* tracked exchanges with the saturation filter and the fused deficit
  recount, until every row is complete,
* external-row scatters and two-way merges,
* point mutators followed by batches on the mixed state,
* ``count_missing`` against a plain popcount.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.completion import CompletionTracker
from repro.engine import _ckernel, backends
from repro.engine.knowledge import WORD_BITS, KnowledgeMatrix

#: Nodes per state: more than the words of a row, so every word has one
#: owner and most rows hold a single message.
N = 160

#: Row widths: the first width the sparse form served, one word past it,
#: and one word past it with only 7 bits of the last word in use.
WIDTHS = {
    "96-words": 96 * WORD_BITS,
    "97-words": 97 * WORD_BITS,
    "ragged-tail": 96 * WORD_BITS + 7,
}

#: The compiled kernels on one thread, and forced to two shards on every
#: batch, however small.
COMPILED_PATHS = {
    "compiled": backends.CBackend(max_threads=1),
    "sharded": backends.CBackend(max_threads=2, shard_work=1),
}

#: Rounds after which a run that has not saturated fails.
MAX_ROUNDS = 80


@pytest.fixture(params=["compiled", "sharded", "numpy"])
def kernel_path(request, monkeypatch):
    """The compiled kernels serial or sharded, or NumPy, for the test only."""
    if request.param == "numpy":
        monkeypatch.setattr(_ckernel, "_LIB", None)
        with backends.use(backends.NumpyBackend()):
            yield request.param
        return
    if not _ckernel.available():
        pytest.skip("compiled kernel unavailable on this machine")
    with backends.use(COMPILED_PATHS[request.param]):
        yield request.param


@pytest.fixture(params=list(WIDTHS))
def n_messages(request):
    return WIDTHS[request.param]


def sparse_start(n_messages: int) -> KnowledgeMatrix:
    """Node ``i`` knows message ``i``, and node ``w % N`` every message of word ``w``.

    Every message then has a node that knows it, so the state can saturate,
    while each row holds at most two nonzero words.
    """
    state = KnowledgeMatrix(N, n_messages)
    full = state.full_row_mask()
    owned = np.zeros((N, state.words), dtype=np.uint64)
    words = np.arange(state.words)
    owned[words % N, words] = full
    everyone = np.arange(N, dtype=np.int64)
    state.scatter_rows(owned, everyone, everyone)
    assert ((state.data != 0).sum(axis=1) <= 2).all()
    return state


def push_reference(data: np.ndarray, senders, receivers) -> None:
    """One row OR per transmission, every sender row read at batch start."""
    start = data.copy()
    for s, r in zip(np.asarray(senders).tolist(), np.asarray(receivers).tolist()):
        data[r] |= start[s]


def exchange_reference(data: np.ndarray, callers, targets) -> None:
    """Both directions of every channel, read at round start."""
    start = data.copy()
    for c, t in zip(np.asarray(callers).tolist(), np.asarray(targets).tolist()):
        data[t] |= start[c]
        data[c] |= start[t]


def saturated(data: np.ndarray, full: np.ndarray) -> bool:
    return bool((data == full).all())


def missing(data: np.ndarray, mask: np.ndarray, rows=None) -> np.ndarray:
    """``popcount(mask & ~row)`` per row, the plain masked scan."""
    picked = data if rows is None else data[rows]
    return np.bitwise_count(mask[None, :] & ~picked).sum(axis=1, dtype=np.int64)


def channels(rng, size: int):
    """``size`` distinct sorted callers and a random target each."""
    callers = np.sort(rng.choice(N, size=size, replace=False)).astype(np.int64)
    return callers, rng.integers(0, N, size).astype(np.int64)


class TestSparseStartToSaturation:
    """Round sequences from rows of one or two words to full rows."""

    def test_push_rounds(self, kernel_path, n_messages):
        rng = np.random.default_rng(n_messages)
        state = sparse_start(n_messages)
        reference = state.data.copy()
        full = state.full_row_mask()
        for round_index in range(MAX_ROUNDS):
            # Every node pushes on most rounds; every fourth round is a
            # sparse batch of a few senders into repeated receivers.
            size = 6 if round_index % 4 == 3 else N
            senders = rng.permutation(N)[:size].astype(np.int64)
            receivers = rng.integers(0, N, size).astype(np.int64)
            state.apply_transmissions(senders, receivers)
            push_reference(reference, senders, receivers)
            assert np.array_equal(state.data, reference), round_index
            if saturated(reference, full):
                break
        assert saturated(state.data, full)
        assert state.is_complete()

    def test_exchange_rounds(self, kernel_path, n_messages):
        rng = np.random.default_rng(n_messages + 1)
        state = sparse_start(n_messages)
        reference = state.data.copy()
        full = state.full_row_mask()
        for round_index in range(MAX_ROUNDS):
            # Full rounds take the swap form on the compiled kernels; every
            # third round has fewer than N / 4 channels and gathers and
            # scatters instead.
            callers, targets = channels(rng, 12 if round_index % 3 == 2 else N)
            state.apply_exchange(callers, targets)
            exchange_reference(reference, callers, targets)
            assert np.array_equal(state.data, reference), round_index
            if saturated(reference, full):
                break
        assert saturated(state.data, full)
        assert state.is_complete()

    def test_tracked_filtered_exchange(self, kernel_path, n_messages):
        """The saturation filter and the fused recount, until completion.

        Late rounds drop channels into complete rows and promote rows fed
        by a complete one; the bits must stay those of the unfiltered
        reference, and the deficits those of a fresh count.
        """
        rng = np.random.default_rng(n_messages + 2)
        state = sparse_start(n_messages)
        tracker = CompletionTracker(state)
        reference = state.data.copy()
        full = state.full_row_mask()
        for round_index in range(MAX_ROUNDS):
            callers, targets = channels(rng, N if round_index % 2 else N // 2)
            tracker.exchange(callers, targets)
            exchange_reference(reference, callers, targets)
            assert np.array_equal(state.data, reference), round_index
            assert np.array_equal(tracker.deficits, missing(reference, full))
            assert tracker.is_complete() == saturated(reference, full)
            if tracker.is_complete():
                break
        assert tracker.is_complete()
        assert state.filter_stats["promotions"] > 0
        assert state.filter_stats["edges_dropped"] > 0


class TestWideRowOperations:
    """The remaining entry points on a state between sparse and full."""

    @staticmethod
    def half_spread(n_messages: int, rng) -> "tuple[KnowledgeMatrix, np.ndarray]":
        """A sparse start after three full push rounds, and its reference."""
        state = sparse_start(n_messages)
        reference = state.data.copy()
        for _ in range(3):
            senders = np.arange(N, dtype=np.int64)
            receivers = rng.integers(0, N, N).astype(np.int64)
            state.apply_transmissions(senders, receivers)
            push_reference(reference, senders, receivers)
        assert np.array_equal(state.data, reference)
        return state, reference

    def test_external_scatter_and_merge(self, kernel_path, n_messages):
        rng = np.random.default_rng(n_messages + 3)
        state, reference = self.half_spread(n_messages, rng)
        full = state.full_row_mask()
        pool = rng.integers(0, 2**63, size=(12, state.words), dtype=np.uint64) & full
        src = rng.integers(0, 12, 3 * N).astype(np.int64)
        receivers = rng.integers(0, N // 2, 3 * N).astype(np.int64)
        state.scatter_rows(pool, src, receivers)
        for s, r in zip(src.tolist(), receivers.tolist()):
            reference[r] |= pool[s]
        assert np.array_equal(state.data, reference)
        # Twelve external rows onto five hosts: hosts merge several rows.
        ext_rows = rng.permutation(12).astype(np.int64)
        nodes = rng.integers(0, 5, 12).astype(np.int64)
        start, start_pool = reference.copy(), pool.copy()
        want_pool = pool.copy()
        for e, node in zip(ext_rows.tolist(), nodes.tolist()):
            union = start_pool[e] | start[node]
            want_pool[e] = union
            reference[node] |= union
        state.merge_rows(pool, ext_rows, nodes)
        assert np.array_equal(state.data, reference)
        assert np.array_equal(pool, want_pool)

    def test_point_mutators_then_batches(self, kernel_path, n_messages):
        rng = np.random.default_rng(n_messages + 4)
        state, reference = self.half_spread(n_messages, rng)
        full = state.full_row_mask()
        last = n_messages - 1
        # The last message sits in the tail word; rows 7 and 9 repeat.
        nodes = np.asarray([7, 9, 7, 130, 9], dtype=np.int64)
        state.add_many(nodes, last)
        state.add(11, 64 * 50)
        state.assign_rows([3, 150], full)
        tail_bit = np.uint64(1) << np.uint64(last % WORD_BITS)
        reference[nodes, last // WORD_BITS] |= tail_bit
        reference[11, 50] |= np.uint64(1)
        reference[[3, 150]] = full
        assert np.array_equal(state.data, reference)
        assert state.knows(130, last) and state.knows(11, 64 * 50)
        # Batches on the mixed state: a push from the full and the added
        # rows, then a full exchange round.
        senders = np.asarray([3, 7, 11, 150, 130], dtype=np.int64)
        receivers = rng.integers(0, N, senders.size).astype(np.int64)
        state.apply_transmissions(senders, receivers)
        push_reference(reference, senders, receivers)
        callers, targets = channels(rng, N)
        state.apply_exchange(callers, targets)
        exchange_reference(reference, callers, targets)
        assert np.array_equal(state.data, reference)
        assert np.array_equal(state.rows([0, 3, N - 1]), reference[[0, 3, N - 1]])

    def test_count_missing_matches_popcount(self, kernel_path, n_messages):
        rng = np.random.default_rng(n_messages + 5)
        state, reference = self.half_spread(n_messages, rng)
        full = state.full_row_mask()
        everyone = np.arange(N, dtype=np.int64)
        assert np.array_equal(
            state.count_missing(full, everyone), missing(reference, full)
        )
        mask = rng.integers(0, 2**63, size=state.words, dtype=np.uint64) & full
        rows = rng.integers(0, N, N // 3).astype(np.int64)
        assert np.array_equal(
            state.count_missing(mask, rows), missing(reference, mask, rows)
        )
