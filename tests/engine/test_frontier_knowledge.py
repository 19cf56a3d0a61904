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
* the memory-model replay batcher (merged groups vs per-group replay).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.memory_gossiping import _ReplayBatcher
from repro.engine import _ckernel, knowledge
from repro.engine.knowledge import (
    _CROSSOVER,
    FrontierKnowledge,
    KnowledgeMatrix,
    WORD_BITS,
    adaptive_knowledge,
)


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
        fk.data[saturated] = full
        fk.notify_rows_written(saturated)
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
        fk.apply_transmissions(senders, receivers, other.data)
        km.apply_transmissions(senders, receivers, other.data)
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
        fk.union_into(9, row)
        km.union_into(9, row)
        fk.union_from_node(10, 9)
        km.union_from_node(10, 9)
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

    def test_batch_exactly_at_crossover_uses_dense(self, monkeypatch):
        """The estimate comparison is strict: at-threshold batches go dense."""
        fk = FrontierKnowledge(64 * 64)
        calls = []
        original = KnowledgeMatrix.apply_transmissions

        def spy(self, senders, receivers, snapshot=None):
            calls.append(senders.size)
            return original(self, senders, receivers, snapshot)

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


class TestReplayBatcher:
    def reference_apply(self, n, groups):
        km = KnowledgeMatrix(n)
        for senders, receivers in groups:
            km.apply_transmissions(senders, receivers)
        return km.data

    def batched_apply(self, n, groups, counter=None):
        km = KnowledgeMatrix(n)
        if counter is not None:
            original = KnowledgeMatrix.apply_transmissions

            def spy(self_, senders, receivers, snapshot=None):
                counter.append(senders.size)
                return original(self_, senders, receivers, snapshot)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(KnowledgeMatrix, "apply_transmissions", spy)
                batcher = _ReplayBatcher(km)
                for senders, receivers in groups:
                    batcher.add(senders, receivers)
                batcher.flush()
        else:
            batcher = _ReplayBatcher(km)
            for senders, receivers in groups:
                batcher.add(senders, receivers)
            batcher.flush()
        return km.data

    def as_groups(self, *pairs):
        return [
            (np.asarray(s, dtype=np.int64), np.asarray(r, dtype=np.int64))
            for s, r in pairs
        ]

    def test_disjoint_groups_merge_into_one_batch(self):
        groups = self.as_groups(([0, 1], [5, 6]), ([2, 3], [7, 8]), ([4], [9]))
        counter = []
        batched = self.batched_apply(20, groups, counter)
        assert counter == [5]  # one merged batch
        assert np.array_equal(batched, self.reference_apply(20, groups))

    def test_sender_collision_merges_with_compensation(self):
        """A chain (receiver of group 1 sends in group 2) merges via
        transitive compensation: the extra snapshot edges reproduce the
        relayed values in a single batch."""
        groups = self.as_groups(([0], [1]), ([1], [2]), ([2], [3]))
        counter = []
        batched = self.batched_apply(10, groups, counter)
        # One batch: 3 original edges + compensation 0->2, 0->3, 1->3.
        assert counter == [6]
        ref = self.reference_apply(10, groups)
        assert np.array_equal(batched, ref)
        # The chain actually relays: node 3 must know message 0 after the
        # sequential replay (one hop per group).
        km = KnowledgeMatrix(10)
        km.data[:] = ref
        assert km.knows(3, 0)

    def test_compensation_budget_forces_flush(self):
        """A colliding group whose compensation fan-out exceeds the budget is
        applied after a flush instead (never merged unboundedly)."""
        n = 600
        # 200 pending edges all into node 0, then a 1-edge group sent by 0:
        # compensation would need 200 extra edges > max(64, 2 * 1).
        groups = self.as_groups(
            (list(range(100, 300)), [0] * 200),
            ([0], [1]),
        )
        counter = []
        batched = self.batched_apply(n, groups, counter)
        assert counter == [200, 1]  # flushed, not compensated
        assert np.array_equal(batched, self.reference_apply(n, groups))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_group_sequences_match_sequential(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = 120
        groups = []
        for _ in range(25):
            m = int(rng.integers(1, 15))
            groups.append(
                (
                    rng.integers(0, n, m).astype(np.int64),
                    rng.integers(0, n, m).astype(np.int64),
                )
            )
        assert np.array_equal(
            self.batched_apply(n, groups), self.reference_apply(n, groups)
        )

    def test_empty_groups_are_skipped(self):
        km = KnowledgeMatrix(5)
        batcher = _ReplayBatcher(km)
        empty = np.zeros(0, dtype=np.int64)
        batcher.add(empty, empty)
        batcher.flush()
        assert np.array_equal(km.data, KnowledgeMatrix(5).data)
