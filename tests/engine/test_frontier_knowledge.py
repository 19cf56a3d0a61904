"""Equivalence and boundary tests for the sparsity-aware frontier kernels.

``FrontierKnowledge`` must be a drop-in replacement for the dense
``KnowledgeMatrix``: identical data after every batch, at every density, on
both the compiled and the pure-NumPy code path, including the exact moment a
row saturates past the crossover threshold.  These tests pin

* random transmission/exchange batches against the dense matrix, driven from
  the all-sparse start-up through full saturation,
* the exactly-at-threshold behaviour of the per-row ``word_cap`` ratchet,
* single-word versus multi-word message spaces,
* ``REPRO_DISABLE_CKERNEL``-style parity (compiled vs NumPy frontier paths),
* whole-protocol trajectory identity between ``adaptive_knowledge`` runs and
  plain ``KnowledgeMatrix`` runs at equal seeds, and
* the memory-model replay: each step group as one batch on every storage
  class, and the saturation-filtered broadcast helper against the
  unfiltered replay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.memory_gossiping import _broadcast_group
from repro.engine import _ckernel, knowledge
from repro.engine.knowledge import (
    _CROSSOVER,
    FrontierKnowledge,
    KnowledgeMatrix,
    WORD_BITS,
    adaptive_knowledge,
)
from repro.engine.layouts import PagedKnowledge


@pytest.fixture(params=["compiled", "numpy"])
def kernel_path(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setattr(_ckernel, "_LIB", None)
    elif not _ckernel.available():
        pytest.skip("compiled kernel unavailable on this machine")
    return request.param


def assert_frontier_invariants(fk: FrontierKnowledge) -> None:
    """Sparse rows must list exactly their nonzero words."""
    sparse = ~fk._dense_rows
    nonzero = fk.data != 0
    # Every nonzero word of a sparse row is active (otherwise the sparse
    # path would silently drop knowledge).
    assert not (nonzero[sparse] & ~fk._word_active[sparse]).any()
    for node in np.flatnonzero(sparse)[:10]:
        listed = fk._active_words[node, : fk._nnz[node]]
        assert len(set(listed.tolist())) == fk._nnz[node]
        assert set(listed.tolist()) == set(np.flatnonzero(fk._word_active[node]).tolist())


class TestFrontierMatchesDense:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_transmission_rounds(self, kernel_path, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(80, 400))
        fk = FrontierKnowledge(n)
        km = KnowledgeMatrix(n)
        for _ in range(14):
            m = int(rng.integers(1, 2 * n))
            senders = rng.integers(0, n, m).astype(np.int64)
            receivers = rng.integers(0, n, m).astype(np.int64)
            fk.apply_transmissions(senders, receivers)
            km.apply_transmissions(senders, receivers)
            assert np.array_equal(fk.data, km.data)
            assert_frontier_invariants(fk)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_exchange_rounds(self, kernel_path, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(80, 300))
        fk = FrontierKnowledge(n)
        km = KnowledgeMatrix(n)
        for _ in range(12):
            k = int(rng.integers(1, n + 1))
            callers = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
            targets = rng.integers(0, n, k).astype(np.int64)
            fk.apply_exchange(callers, targets)
            km.apply_exchange(callers, targets)
            assert np.array_equal(fk.data, km.data)
        assert_frontier_invariants(fk)

    def test_saturation_filtered_exchange(self, kernel_path):
        """The tracker-filtered (late-game) path stays bit-exact."""
        from repro.core.completion import CompletionTracker

        rng = np.random.default_rng(7)
        n = 150
        fk = FrontierKnowledge(n)
        km = KnowledgeMatrix(n)
        saturated = rng.choice(n, size=n // 3, replace=False)
        full = km.full_row_mask()
        fk.assign_rows(saturated, full)
        km.data[saturated] = full
        tracker = CompletionTracker(fk)
        for _ in range(8):
            callers = np.arange(n, dtype=np.int64)
            targets = rng.integers(0, n, n).astype(np.int64)
            touched, promoted = fk.apply_exchange(
                callers, targets, complete=tracker.complete_rows, complete_row=tracker.mask
            )
            tracker.update(touched)
            tracker.mark_promoted(promoted)
            km.apply_exchange(callers, targets)
            assert np.array_equal(fk.data, km.data)
            assert tracker.is_complete() == km.is_complete()

    def test_explicit_snapshot_delegates_to_dense(self, kernel_path):
        rng = np.random.default_rng(11)
        n = 100
        fk = FrontierKnowledge(n)
        km = KnowledgeMatrix(n)
        other = KnowledgeMatrix(n)
        other.data |= rng.integers(0, 2**63, size=other.data.shape, dtype=np.uint64)
        senders = rng.integers(0, n, n).astype(np.int64)
        receivers = rng.integers(0, n, n).astype(np.int64)
        fk.scatter_rows(other.data, senders, receivers)
        km.scatter_rows(other.data, senders, receivers)
        assert np.array_equal(fk.data, km.data)
        # Snapshot writes bypass the pair bookkeeping: rows ratchet dense.
        assert fk._dense_rows[receivers].all()

    def test_add_and_union_paths(self, kernel_path):
        n = 200
        fk = FrontierKnowledge(n)
        km = KnowledgeMatrix(n)
        nodes = np.arange(0, n, 3, dtype=np.int64)
        fk.add_many(nodes, 130)
        km.add_many(nodes, 130)
        fk.add(5, 77)
        km.add(5, 77)
        row = km.row_with([1, 64, 199])
        fk.scatter_rows(row[None], [0], [9])
        km.scatter_rows(row[None], [0], [9])
        fk.apply_transmissions([9], [10])
        km.apply_transmissions([9], [10])
        assert np.array_equal(fk.data, km.data)
        assert fk._dense_rows[9] and fk._dense_rows[10]
        assert_frontier_invariants(fk)
        # The batch kernels must keep working on the mixed state.
        rng = np.random.default_rng(3)
        senders = rng.integers(0, n, 2 * n).astype(np.int64)
        receivers = rng.integers(0, n, 2 * n).astype(np.int64)
        fk.apply_transmissions(senders, receivers)
        km.apply_transmissions(senders, receivers)
        assert np.array_equal(fk.data, km.data)


class TestCrossoverBoundary:
    def test_exactly_at_cap_stays_sparse_one_past_ratchets(self, kernel_path):
        """A row may list exactly ``word_cap`` words; one more goes dense."""
        fk = FrontierKnowledge(64 * 64)  # words=64, cap=8
        assert fk.word_cap == 8
        node = 3
        # Fill the row's frontier to exactly the cap (own word counts).
        start_nnz = int(fk._nnz[node])
        for i in range(fk.word_cap - start_nnz):
            fk.add(node, (10 + i) * WORD_BITS)
        assert int(fk._nnz[node]) == fk.word_cap
        assert not fk._dense_rows[node]
        # The row still participates sparsely and correctly.
        km = KnowledgeMatrix(fk.n_nodes)
        km.data[:] = fk.data
        s = np.asarray([node], dtype=np.int64)
        r = np.asarray([17], dtype=np.int64)
        fk.apply_transmissions(s, r)
        km.apply_transmissions(s, r)
        assert np.array_equal(fk.data, km.data)
        # One word past the cap ratchets the row onto the dense path.
        fk.add(node, 30 * WORD_BITS)
        km.add(node, 30 * WORD_BITS)
        assert fk._dense_rows[node]
        fk.apply_transmissions(s, r)
        km.apply_transmissions(s, r)
        assert np.array_equal(fk.data, km.data)

    def test_add_many_with_duplicates_books_like_deduplicated(self):
        """Repeated rows in ``add_many`` leave the same bookkeeping as one
        call per row, including rows that cross ``word_cap``."""
        rng = np.random.default_rng(31)
        dup = FrontierKnowledge(64 * 64)  # words=64, cap=8
        for i in range(dup.word_cap - int(dup._nnz[3])):
            dup.add(3, (10 + i) * WORD_BITS)
        assert int(dup._nnz[3]) == dup.word_cap
        dedup = dup.copy()
        for step in range(40):
            nodes = rng.integers(0, 16, 24).astype(np.int64)
            message = int(rng.integers(0, dup.n_messages))
            if step == 0:
                # Row 3 three times, with a word it does not list yet.
                nodes[:3] = 3
                message = 40 * WORD_BITS
            dup.add_many(nodes, message)
            dedup.add_many(np.unique(nodes), message)
            for attr in ("data", "_nnz", "_active_words", "_word_active", "_dense_rows"):
                assert np.array_equal(getattr(dup, attr), getattr(dedup, attr)), attr
            if step == 0:
                assert dup._dense_rows[3]
        assert dup._dense_rows[:16].sum() > 1
        assert_frontier_invariants(dup)

    def test_batch_exactly_at_crossover_uses_dense(self, monkeypatch):
        """The estimate comparison is strict: at-threshold batches go dense."""
        fk = FrontierKnowledge(64 * 64)
        calls = []
        original = KnowledgeMatrix.apply_transmissions

        def spy(self, senders, receivers):
            calls.append(senders.size)
            return original(self, senders, receivers)

        monkeypatch.setattr(KnowledgeMatrix, "apply_transmissions", spy)
        node = 0
        # Give node 0 exactly crossover * words active words; at 64 words
        # that is also the row's cap, so the row itself stays sparse.
        target = int(_CROSSOVER * fk.words)
        assert target == fk.word_cap == 8
        for i in range(target - int(fk._nnz[node])):
            fk.add(node, (1 + i) * WORD_BITS)
        assert int(fk._nnz[node]) == target
        s = np.asarray([node], dtype=np.int64)
        r = np.asarray([5], dtype=np.int64)
        fk.apply_transmissions(s, r)
        assert calls == [1]  # delegated to the dense kernel
        # One word fewer and the batch is sparse again (no delegation).
        other = 2
        assert int(fk._nnz[other]) == 1
        calls.clear()
        fk.apply_transmissions(np.asarray([other], dtype=np.int64), r)
        assert calls == []

    def test_single_word_messages(self, kernel_path):
        """words == 1: the frontier degenerates gracefully to dense."""
        rng = np.random.default_rng(13)
        n = 50  # n_messages = 50 <= 64 -> a single storage word
        fk = FrontierKnowledge(n)
        km = KnowledgeMatrix(n)
        assert fk.words == 1
        for _ in range(8):
            senders = rng.integers(0, n, n).astype(np.int64)
            receivers = rng.integers(0, n, n).astype(np.int64)
            fk.apply_transmissions(senders, receivers)
            km.apply_transmissions(senders, receivers)
            assert np.array_equal(fk.data, km.data)

    def test_multi_word_messages_non_square(self, kernel_path):
        """n_messages >> n_nodes exercises wide rows and the tail word."""
        rng = np.random.default_rng(17)
        n, msgs = 40, 64 * 9 + 7  # 10 words, ragged tail
        fk = FrontierKnowledge(n, msgs)
        km = KnowledgeMatrix(n, msgs)
        for m in rng.integers(0, msgs, 30):
            nodes = rng.integers(0, n, 5).astype(np.int64)
            fk.add_many(nodes, int(m))
            km.add_many(nodes, int(m))
        for _ in range(10):
            senders = rng.integers(0, n, 2 * n).astype(np.int64)
            receivers = rng.integers(0, n, 2 * n).astype(np.int64)
            fk.apply_transmissions(senders, receivers)
            km.apply_transmissions(senders, receivers)
            assert np.array_equal(fk.data, km.data)
        assert_frontier_invariants(fk)


@pytest.mark.skipif(not _ckernel.available(), reason="no compiled kernel")
class TestCompiledMatchesNumpyFrontier:
    """REPRO_DISABLE_CKERNEL parity: identical data on both frontier paths."""

    def run_rounds(self, use_numpy: bool) -> np.ndarray:
        rng = np.random.default_rng(23)
        fk = FrontierKnowledge(500)
        for _ in range(10):
            senders = rng.integers(0, 500, 700).astype(np.int64)
            receivers = rng.integers(0, 500, 700).astype(np.int64)
            if use_numpy:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(_ckernel, "_LIB", None)
                    fk.apply_transmissions(senders, receivers)
            else:
                fk.apply_transmissions(senders, receivers)
        return fk.data.copy()

    def test_data_identical(self):
        assert np.array_equal(self.run_rounds(False), self.run_rounds(True))


@pytest.mark.slow
class TestProtocolTrajectoryEquivalence:
    """Full runs with the frontier are bit-identical to dense runs."""

    @pytest.fixture(scope="class")
    def graph(self):
        from repro import erdos_renyi
        from repro.graphs import paper_edge_probability

        n = 6208  # past the adaptive_knowledge width gate (97 words)
        return erdos_renyi(n, paper_edge_probability(n), rng=9, require_connected=True)

    @pytest.mark.parametrize("protocol_name", ["push-pull", "fast-gossiping", "memory"])
    def test_bit_identical_trajectories(self, graph, protocol_name, monkeypatch):
        from repro import FastGossiping, MemoryGossiping, PushPullGossip

        def make():
            return {
                "push-pull": lambda: PushPullGossip(),
                "fast-gossiping": lambda: FastGossiping(),
                "memory": lambda: MemoryGossiping(leader=0),
            }[protocol_name]()

        # This test pins the frontier-vs-dense contract specifically; neutralize
        # any forced storage layout from the surrounding environment.
        monkeypatch.setenv("REPRO_KNOWLEDGE_LAYOUT", "dense")
        frontier = make().run(graph, rng=41)
        assert isinstance(frontier.knowledge, FrontierKnowledge)
        # A width gate past every row width keeps the plain matrix.
        monkeypatch.setattr(knowledge, "_FRONTIER_MIN_WORDS", 1 << 30)
        dense = make().run(graph, rng=41)
        assert type(dense.knowledge) is KnowledgeMatrix
        assert frontier.rounds == dense.rounds
        assert frontier.completed == dense.completed
        assert np.array_equal(frontier.knowledge.data, dense.knowledge.data)
        assert frontier.ledger.total() == dense.ledger.total()
        assert np.array_equal(frontier.ledger.per_node(), dense.ledger.per_node())

    def test_adaptive_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_LAYOUT", "dense")
        assert isinstance(adaptive_knowledge(96 * 64), FrontierKnowledge)
        # Below the post-SIMD break-even (96 words) the dense kernels win.
        assert type(adaptive_knowledge(64 * 64)) is KnowledgeMatrix
        assert type(adaptive_knowledge(1000)) is KnowledgeMatrix


#: The storage classes a memory-model replay can run on.
REPLAY_STORAGES = {
    "dense": KnowledgeMatrix,
    "frontier": FrontierKnowledge,
    "paged": PagedKnowledge,
}


class TestPerGroupReplay:
    """The memory model replays each recorded step group as one batch.

    Every storage class must match a per-edge reference that snapshots the
    group's sender rows before any write, and the saturation-filtered
    broadcast helper must match the unfiltered replay bit for bit.
    """

    #: 10 words per row, so the frontier's word-sparse path runs.
    N = 640

    @pytest.fixture(params=list(REPLAY_STORAGES))
    def storage(self, request):
        return REPLAY_STORAGES[request.param]

    @staticmethod
    def as_groups(*pairs):
        return [
            (np.asarray(s, dtype=np.int64), np.asarray(r, dtype=np.int64))
            for s, r in pairs
        ]

    @staticmethod
    def reference_replay(n, groups):
        data = KnowledgeMatrix(n).data.copy()
        for senders, receivers in groups:
            sent = data[senders].copy()  # start-of-group rows
            for row, receiver in zip(sent, receivers):
                data[receiver] |= row
        return data

    @staticmethod
    def replay(state, groups, complete=None, complete_row=None):
        for senders, receivers in groups:
            _broadcast_group(state, senders, receivers, complete, complete_row)
        return state

    @staticmethod
    def random_groups(rng, n, count, max_size):
        return [
            (
                rng.integers(0, n, m).astype(np.int64),
                rng.integers(0, n, m).astype(np.int64),
            )
            for m in rng.integers(1, max_size, count)
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_group_sequences_match_sequential(self, kernel_path, storage, seed):
        rng = np.random.default_rng(600 + seed)
        groups = self.random_groups(rng, self.N, 25, 40)
        state = self.replay(storage(self.N), groups)
        assert np.array_equal(state.data, self.reference_replay(self.N, groups))

    def test_many_edges_into_one_node_then_it_sends(self, kernel_path, storage):
        groups = self.as_groups((list(range(100, 300)), [0] * 200), ([0], [1]))
        state = self.replay(storage(self.N), groups)
        assert np.array_equal(state.data, self.reference_replay(self.N, groups))
        assert state.known_messages(1).tolist() == [0, 1] + list(range(100, 300))

    def test_sender_that_also_receives_forwards_its_start_row(self, kernel_path, storage):
        # Node 1 receives from 0 and sends to 2 in the same group: 2 gets
        # only 1's start-of-group row.  The next group relays message 0.
        groups = self.as_groups(([0, 1], [1, 2]), ([1], [2]))
        state = self.replay(storage(self.N), groups[:1])
        assert state.known_messages(2).tolist() == [1, 2]
        self.replay(state, groups[1:])
        assert state.known_messages(2).tolist() == [0, 1, 2]
        assert np.array_equal(state.data, self.reference_replay(self.N, groups))

    def test_duplicate_receivers_accumulate(self, kernel_path, storage):
        groups = self.as_groups(([7, 8, 9, 7], [5, 5, 5, 5]))
        state = self.replay(storage(self.N), groups)
        assert state.known_messages(5).tolist() == [5, 7, 8, 9]
        assert np.array_equal(state.data, self.reference_replay(self.N, groups))

    @pytest.mark.parametrize("seed", range(3))
    def test_filtered_broadcast_matches_unfiltered(self, kernel_path, storage, seed):
        rng = np.random.default_rng(700 + seed)
        n = self.N
        groups = self.random_groups(rng, n, 30, 60)
        # A root that knows everything, as after the gather phase; every
        # row is a subset of the full mask, which the filter relies on.
        full = storage(n).full_row_mask()
        plain, filtered = storage(n), storage(n)
        for state in (plain, filtered):
            state.assign_rows(np.asarray([0, 3], dtype=np.int64), full)
        groups.insert(0, self.as_groups(([0] * 8, rng.integers(0, n, 8)))[0])
        everyone = np.arange(n, dtype=np.int64)
        complete = filtered.count_missing(full, everyone) == 0
        self.replay(plain, groups)
        self.replay(filtered, groups, complete, full)
        assert filtered == plain
        assert filtered.filter_stats["rounds"] == len(groups)
        assert filtered.filter_stats["promotions"] > 0
        assert plain.filter_stats["rounds"] == 0
        # ``complete`` marks only rows that really are complete.
        assert not plain.count_missing(full, np.flatnonzero(complete)).any()

    def test_empty_groups_are_skipped(self, kernel_path, storage):
        state = storage(5)
        empty = np.zeros(0, dtype=np.int64)
        complete = np.zeros(5, dtype=bool)
        _broadcast_group(state, empty, empty, None, None)
        _broadcast_group(state, empty, empty, complete, state.full_row_mask())
        assert np.array_equal(state.data, KnowledgeMatrix(5).data)
        assert state.filter_stats["rounds"] == 0
