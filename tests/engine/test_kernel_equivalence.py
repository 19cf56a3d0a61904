"""Semantic-equivalence tests for the vectorized gossip kernel.

The hot path of the simulator was rewritten from per-transmission Python
loops to vectorised NumPy (and optionally compiled C) kernels.  These tests
pin the new kernels to the original reference semantics: per-transmission
row ORs evaluated against a start-of-step snapshot.  They cover

* ``KnowledgeMatrix.apply_transmissions`` and ``scatter_rows`` against a
  reference Python loop on randomized (senders, receivers, snapshot) batches
  with repeated receivers,
* ``KnowledgeMatrix.apply_exchange`` (including the saturation filter)
  against the same reference applied in both directions,
* the incremental :class:`CompletionTracker` against ``gossip_complete``
  across randomized round sequences, with and without failures,
* bit-identical results between the compiled and pure-NumPy code paths,
  including whole protocol runs,
* bit-identical whole-protocol trajectories across the ``numpy`` and ``c``
  kernel backends, ``c`` at 1, 2 and 8 threads
  (:class:`TestBackendTrajectoryParity`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.completion import CompletionTracker, gossip_complete
from repro.core.random_walks import WalkPool
from repro.engine import _ckernel, backends
from repro.engine.knowledge import KnowledgeMatrix


def reference_apply(data: np.ndarray, senders, receivers, snapshot) -> None:
    """The seed implementation: one row OR per transmission, snapshot reads."""
    for s, r in zip(np.asarray(senders).tolist(), np.asarray(receivers).tolist()):
        data[r] |= snapshot[s]


def random_batch(rng, n, size):
    """A random transmission batch with plenty of repeated receivers."""
    senders = rng.integers(0, n, size)
    receivers = rng.integers(0, n // 2, size)  # force receiver collisions
    return senders.astype(np.int64), receivers.astype(np.int64)


def random_matrix(rng, n, n_messages=None) -> KnowledgeMatrix:
    km = KnowledgeMatrix(n, n_messages)
    noise = rng.integers(0, 2**63, size=km.data.shape, dtype=np.uint64)
    km.data |= noise & rng.integers(0, 2**63, size=km.data.shape, dtype=np.uint64)
    return km


def force_numpy_path(monkeypatch):
    """Disable the compiled kernels for the duration of a test."""
    monkeypatch.setattr(_ckernel, "_LIB", None)


@pytest.fixture(params=["compiled", "numpy"])
def kernel_path(request, monkeypatch):
    if request.param == "numpy":
        force_numpy_path(monkeypatch)
    elif not _ckernel.available():
        pytest.skip("compiled kernel unavailable on this machine")
    return request.param


class TestApplyTransmissionsEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_loop(self, kernel_path, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 200))
        km = random_matrix(rng, n)
        ref = km.data.copy()
        senders, receivers = random_batch(rng, n, int(rng.integers(1, 4 * n)))

        reference_apply(ref, senders, receivers, ref.copy())
        km.apply_transmissions(senders, receivers)
        assert np.array_equal(km.data, ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_with_explicit_snapshot(self, kernel_path, seed):
        """``scatter_rows`` from rows held apart: the batch reads only them."""
        rng = np.random.default_rng(100 + seed)
        n = 64
        km = random_matrix(rng, n)
        other = random_matrix(rng, n)
        ref = km.data.copy()
        senders, receivers = random_batch(rng, n, 3 * n)

        reference_apply(ref, senders, receivers, other.data)
        km.scatter_rows(other.data, senders, receivers)
        assert np.array_equal(km.data, ref)

    def test_sequential_chaining_is_prevented(self, kernel_path):
        """A message may not hop through two nodes in one synchronous step."""
        km = KnowledgeMatrix(3)
        km.apply_transmissions(
            np.asarray([0, 1], dtype=np.int64), np.asarray([1, 2], dtype=np.int64)
        )
        assert km.knows(1, 0)
        assert not km.knows(2, 0)  # node 2 sees node 1's start-of-step row

    def test_empty_batch_is_noop(self, kernel_path):
        km = KnowledgeMatrix(5)
        before = km.data.copy()
        km.apply_transmissions(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert np.array_equal(km.data, before)

    @pytest.mark.parametrize("threads", [1, 2], ids=["serial", "sharded"])
    @pytest.mark.parametrize("words", [1, 7, 64, 65, 313])
    def test_in_place_write_order(self, threads, words):
        """Compiled push batches whose write order is hard to get right.

        Every compiled push batch is applied in place; each shape runs over
        all nodes and over a fifth of them.  Each shape runs
        in its own and in reversed edge order, so a chain gives a DFS as
        deep as the chain once each way.  The batches run back to back on the
        same state, each from fresh sparse rows, so every one starts from a
        clean plan.
        """
        if not _ckernel.available():
            pytest.skip("compiled kernel unavailable on this machine")
        n = 150
        rng = np.random.default_rng(2200 + words)
        state = KnowledgeMatrix(n, 64 * words)

        def shapes(p):
            m = p.size
            a, b = p[0 : m // 2 * 2 : 2], p[1 : m // 2 * 2 : 2]
            half, rest = p[: m // 2], p[m // 2 :]
            pairs_s, pairs_r = rng.choice(p, m // 2), rng.choice(p, m // 2)
            yield "chain", p[:-1], p[1:]
            yield "reverse chain", p[1:], p[:-1]
            yield "cycle", p, np.roll(p, -1)
            yield "2-cycles", np.r_[a, b], np.r_[b, a]
            yield "self-loops", np.r_[half, rest], np.r_[half, np.roll(rest, 1)]
            yield "duplicates", np.r_[pairs_s, pairs_s], np.r_[pairs_r, pairs_r]
            yield "one to many", np.full(m, p[0]), p
            yield "many to one", p, np.full(m, p[0])
            yield "mapping", p, rng.choice(p, m)
            yield "k >> n", rng.choice(p, 8 * n), rng.choice(p, 8 * n)
            yield "empty", p[:0], p[:0]

        backend = backends.CBackend(max_threads=threads, shard_work=1)
        with backends.use(backend):
            for p in (np.arange(n), rng.permutation(n)[: n // 5]):
                for name, senders, receivers in shapes(p.astype(np.int64)):
                    for order in (slice(None), slice(None, None, -1)):
                        s, r = senders[order], receivers[order]
                        start = rng.integers(0, 2**63, (n, words), dtype=np.uint64)
                        start &= rng.integers(0, 2**63, (n, words), dtype=np.uint64)
                        ref = start.copy()
                        reference_apply(ref, s, r, start)
                        state.data[...] = start
                        state.apply_transmissions(s, r)
                        assert np.array_equal(state.data, ref), (
                            f"{name} over {p.size} nodes, order {order}"
                        )


class TestApplyExchangeEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_both_directions(self, kernel_path, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(10, 150))
        km = random_matrix(rng, n)
        ref = km.data.copy()
        k = int(rng.integers(1, n + 1))
        callers = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
        targets = rng.integers(0, n, k).astype(np.int64)

        snap = ref.copy()
        reference_apply(ref, callers, targets, snap)
        reference_apply(ref, targets, callers, snap)
        km.apply_exchange(callers, targets)
        assert np.array_equal(km.data, ref)

    @pytest.mark.parametrize("seed", range(5))
    def test_saturation_filter_is_bit_exact(self, kernel_path, seed):
        """Filtered and unfiltered exchanges produce identical matrices."""
        rng = np.random.default_rng(300 + seed)
        n = 80
        km_a = KnowledgeMatrix(n)
        km_b = KnowledgeMatrix(n)
        # Pre-saturate a random subset so the filter has something to do.
        saturated = rng.choice(n, size=n // 3, replace=False)
        full = km_a.full_row_mask()
        km_a.data[saturated] = full
        km_b.data[saturated] = full
        tracker = CompletionTracker(km_a)
        for _ in range(6):
            callers = np.arange(n, dtype=np.int64)
            targets = rng.integers(0, n, n).astype(np.int64)
            touched, promoted = km_a.apply_exchange(
                callers,
                targets,
                complete=tracker.complete_rows,
                complete_row=tracker.mask,
            )
            tracker.update(touched)
            tracker.mark_promoted(promoted)
            km_b.apply_exchange(callers, targets)
            assert np.array_equal(km_a.data, km_b.data)
            assert tracker.is_complete() == km_b.is_complete()


class TestTrackerMatchesGossipComplete:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_round_sequences(self, kernel_path, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(20, 120))
        km = KnowledgeMatrix(n)
        tracker = CompletionTracker(km)
        for _ in range(40):
            senders, receivers = random_batch(rng, n, int(rng.integers(1, 2 * n)))
            touched = km.apply_transmissions(senders, receivers)
            tracker.update(touched)
            assert tracker.is_complete() == gossip_complete(km)
            if tracker.is_complete():
                break

    @pytest.mark.parametrize("seed", range(4))
    def test_with_alive_subset(self, kernel_path, seed):
        rng = np.random.default_rng(500 + seed)
        n = 60
        alive = np.sort(rng.choice(n, size=n - 7, replace=False)).astype(np.int64)
        alive_mask = np.zeros(n, dtype=bool)
        alive_mask[alive] = True
        km = KnowledgeMatrix(n)
        tracker = CompletionTracker(km, alive)
        for _ in range(60):
            # Only alive nodes communicate (the protocols' channel invariant).
            senders = alive[rng.integers(0, alive.size, alive.size)]
            receivers = alive[rng.integers(0, alive.size, alive.size)]
            touched = km.apply_transmissions(senders, receivers)
            tracker.update(touched)
            assert tracker.is_complete() == gossip_complete(km, alive)
            if tracker.is_complete():
                break
        assert tracker.is_complete()

    def test_missing_pairs_tracks_reference(self, kernel_path):
        from repro.core.completion import missing_pairs

        rng = np.random.default_rng(42)
        n = 50
        km = KnowledgeMatrix(n)
        tracker = CompletionTracker(km)
        for _ in range(10):
            senders, receivers = random_batch(rng, n, n)
            touched = km.apply_transmissions(senders, receivers)
            tracker.update(touched)
            assert tracker.missing_pairs() == missing_pairs(km)


@pytest.mark.skipif(not _ckernel.available(), reason="no compiled kernel")
class TestCompiledMatchesNumpy:
    def test_walk_delivery_identical(self, monkeypatch):
        def run(use_numpy):
            rng = np.random.default_rng(7)
            km = KnowledgeMatrix(32)
            payloads = km.data[rng.integers(0, 32, 10)].copy()
            pool = WalkPool(payloads, move_cap=5)
            pool.send_many(
                np.arange(10, dtype=np.int64),
                rng.integers(0, 32, 10).astype(np.int64),
            )
            if use_numpy:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(_ckernel, "_LIB", None)
                    pool.deliver(km)
            else:
                pool.deliver(km)
            return km.data.copy(), pool.payloads.copy()

        data_c, payloads_c = run(False)
        data_np, payloads_np = run(True)
        assert np.array_equal(data_c, data_np)
        assert np.array_equal(payloads_c, payloads_np)

    def test_full_protocol_runs_identical(self):
        """Whole protocol runs are bit-identical with and without the C path."""
        from repro import FastGossiping, PushPullGossip, erdos_renyi
        from repro.graphs import paper_edge_probability

        n = 256
        graph = erdos_renyi(n, paper_edge_probability(n), rng=3, require_connected=True)

        def both(protocol_cls, seed):
            a = protocol_cls().run(graph, rng=seed)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_ckernel, "_LIB", None)
                b = protocol_cls().run(graph, rng=seed)
            return a, b

        for cls, seed in ((PushPullGossip, 11), (FastGossiping, 12)):
            a, b = both(cls, seed)
            assert a.rounds == b.rounds
            assert a.completed == b.completed
            assert a.knowledge == b.knowledge
            assert a.ledger.total() == b.ledger.total()


@pytest.mark.slow
@pytest.mark.skipif(not _ckernel.available(), reason="no compiled kernel")
class TestBackendTrajectoryParity:
    """Full-protocol trajectories are backend- and thread-count-invariant.

    Receiver shards partition rows disjointly and every gather precedes
    every write, so the ``c`` backend must reproduce the one-thread
    trajectories bit-for-bit at any thread count.  ``shard_work=1`` forces
    the sharded kernels on, despite the small test batches that would
    normally stay below the dispatch cutoff.
    """

    def _backend_matrix(self):
        yield "numpy", backends.NumpyBackend()
        yield "c", backends.CBackend(max_threads=1)
        for threads in (1, 2, 8):
            yield (
                f"c[{threads}]",
                backends.CBackend(max_threads=threads, shard_work=1),
            )

    def test_all_protocols_all_backends(self, small_paper_graph):
        from repro import FastGossiping, MemoryGossiping, PushPullGossip

        protocols = (
            (PushPullGossip, 21),
            (FastGossiping, 22),
            (lambda: MemoryGossiping(leader=0), 23),
        )
        for factory, seed in protocols:
            reference = None
            for label, backend in self._backend_matrix():
                with backends.use(backend):
                    result = factory().run(small_paper_graph, rng=seed)
                summary = (
                    result.rounds,
                    result.completed,
                    result.ledger.total(),
                )
                if reference is None:
                    reference = (summary, result.knowledge)
                else:
                    assert summary == reference[0], (
                        f"{factory} trajectory diverged on backend {label}"
                    )
                    assert result.knowledge == reference[1], (
                        f"{factory} knowledge diverged on backend {label}"
                    )
