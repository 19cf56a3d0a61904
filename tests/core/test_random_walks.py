"""Tests for repro.core.random_walks (Phase II machinery of Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.random_walks import WalkPool, start_walks
from repro.engine.knowledge import KnowledgeMatrix
from repro.engine.metrics import MessageAccounting, TransmissionLedger
from repro.engine.rng import make_rng
from repro.graphs import complete_graph, random_regular


@pytest.fixture()
def setting():
    graph = complete_graph(64)
    knowledge = KnowledgeMatrix(graph.n)
    ledger = TransmissionLedger(graph.n)
    return graph, knowledge, ledger


class TestStartWalks:
    def test_probability_zero_starts_nothing(self, setting):
        graph, knowledge, ledger = setting
        pool = start_walks(graph, knowledge, 0.0, 100, make_rng(1), ledger)
        assert pool.num_walks == 0
        assert pool.is_idle()
        assert ledger.total() == 0

    def test_probability_one_starts_everywhere(self, setting):
        graph, knowledge, ledger = setting
        pool = start_walks(graph, knowledge, 1.0, 100, make_rng(2), ledger)
        assert pool.num_walks == graph.n
        assert pool.walks_in_transit() == graph.n
        assert ledger.total(MessageAccounting.PUSHES) == graph.n
        assert ledger.total(MessageAccounting.OPENS) == graph.n

    def test_invalid_probability(self, setting):
        graph, knowledge, ledger = setting
        with pytest.raises(ValueError):
            start_walks(graph, knowledge, 1.5, 100, make_rng(3), ledger)

    def test_payloads_are_starter_messages(self, setting):
        graph, knowledge, ledger = setting
        pool = start_walks(graph, knowledge, 1.0, 100, make_rng(4), ledger)
        # Each payload contains exactly one message initially (the starter's own).
        assert np.all(np.bitwise_count(pool.payloads).sum(axis=1) == 1)

    def test_expected_number_of_walks(self, setting):
        graph, knowledge, ledger = setting
        pool = start_walks(graph, knowledge, 0.25, 100, make_rng(5), ledger)
        assert 4 <= pool.num_walks <= 32  # 16 expected, generous bounds


class TestWalkPoolDynamics:
    def test_deliver_merges_payload_and_node(self, setting):
        graph, knowledge, ledger = setting
        pool = WalkPool(knowledge.data[[0]].copy(), move_cap=10)
        pool.send(0, 5)
        pool.deliver(knowledge)
        # Node 5 learned message 0 and the walk learned message 5.
        assert knowledge.knows(5, 0)
        assert np.bitwise_count(pool.payloads[0]).sum() == 2
        assert pool.nodes_with_walks().tolist() == [5]

    def test_simultaneous_arrivals_read_the_start_of_delivery_row(self, setting):
        graph, knowledge, ledger = setting
        pool = WalkPool(knowledge.rows(np.asarray([0, 1, 2])), move_cap=10)
        pool.send_many(np.asarray([0, 1, 2]), np.asarray([7, 7, 9]))
        pool.deliver(knowledge)
        # Each walk learns its host's row as it was before the delivery,
        # not the other walks' payloads; the host learns every payload.
        assert knowledge.known_messages(7).tolist() == [0, 1, 7]
        assert knowledge.known_messages(9).tolist() == [2, 9]
        payload_sets = [
            np.flatnonzero(np.unpackbits(row.view(np.uint8), bitorder="little")).tolist()
            for row in pool.payloads
        ]
        assert payload_sets == [[0, 7], [1, 7], [2, 9]]

    def test_forward_step_moves_walks(self, setting):
        graph, knowledge, ledger = setting
        pool = WalkPool(knowledge.data[[0]].copy(), move_cap=10)
        pool.send(0, 5)
        pool.deliver(knowledge)
        forwarded = pool.forward_step(graph, make_rng(6), ledger)
        assert forwarded == 1
        assert pool.moves[0] == 1
        assert pool.queued_walks() == 0
        assert pool.walks_in_transit() == 1
        assert ledger.push_packets[5] == 1
        assert ledger.channel_opens[5] == 1

    def test_move_cap_retires_walks(self, setting):
        graph, knowledge, ledger = setting
        pool = WalkPool(knowledge.data[[0]].copy(), move_cap=0)
        pool.send(0, 5)
        pool.deliver(knowledge)  # moves=0 <= cap -> enqueued
        pool.forward_step(graph, make_rng(7), ledger)  # moves becomes 1
        pool.deliver(knowledge)  # over cap -> retired
        assert pool.retired == [0]
        assert pool.is_idle()

    def test_fifo_queue_order(self, setting):
        graph, knowledge, ledger = setting
        pool = WalkPool(knowledge.data[[0, 1]].copy(), move_cap=10)
        pool.send(0, 7)
        pool.send(1, 7)
        pool.deliver(knowledge)
        assert pool.queued_walks() == 2
        pool.forward_step(graph, make_rng(8), ledger)
        # Oldest walk (0) forwarded first; walk 1 still queued.
        assert pool.queued_walks() == 1
        assert list(pool.queues[7]) == [1]
        assert pool.moves[0] == 1 and pool.moves[1] == 0

    def test_walks_conserved(self):
        """Walks are never duplicated: queued + transit + retired == started."""
        graph = random_regular(128, 16, rng=1, require_connected=True)
        knowledge = KnowledgeMatrix(graph.n)
        ledger = TransmissionLedger(graph.n)
        rng = make_rng(9)
        pool = start_walks(graph, knowledge, 0.2, 5, rng, ledger)
        for _ in range(12):
            pool.deliver(knowledge)
            pool.forward_step(graph, rng, ledger)
            total = pool.queued_walks() + pool.walks_in_transit() + len(pool.retired)
            assert total == pool.num_walks

    def test_knowledge_spreads_via_walks(self):
        graph = complete_graph(32)
        knowledge = KnowledgeMatrix(graph.n)
        ledger = TransmissionLedger(graph.n)
        rng = make_rng(10)
        pool = start_walks(graph, knowledge, 1.0, 100, rng, ledger)
        for _ in range(10):
            pool.deliver(knowledge)
            pool.forward_step(graph, rng, ledger)
        # After several steps the average knowledge grew well beyond 1 message.
        assert knowledge.counts().mean() > 3

    def test_alive_mask_blocks_failed_hosts(self, setting):
        graph, knowledge, ledger = setting
        alive = np.ones(graph.n, dtype=bool)
        alive[5] = False
        pool = WalkPool(knowledge.data[[0]].copy(), move_cap=10)
        pool.send(0, 3)
        pool.deliver(knowledge)
        # Host 3 is alive; forwarding with a dead-host mask never sends to 5...
        # run a few steps and assert the walk never resides at node 5.
        rng = make_rng(11)
        for _ in range(20):
            pool.forward_step(graph, rng, ledger, alive=alive)
            pool.deliver(knowledge)
            assert 5 not in pool.nodes_with_walks().tolist()

    def test_bad_payload_shape_rejected(self):
        with pytest.raises(ValueError):
            WalkPool(np.zeros(4, dtype=np.uint64), move_cap=3)


class TestMaintainedCounters:
    """queued_walks / nodes_with_walks come from maintained flat-array state,
    not from re-summing per-node queues; they must stay consistent with the
    materialised ``queues`` view through arbitrary operation sequences."""

    def test_counters_track_queues_through_random_steps(self):
        graph = random_regular(64, 8, rng=2, require_connected=True)
        knowledge = KnowledgeMatrix(graph.n)
        ledger = TransmissionLedger(graph.n)
        rng = make_rng(21)
        pool = start_walks(graph, knowledge, 0.5, 3, rng, ledger)
        for _ in range(15):
            pool.deliver(knowledge)
            pool.forward_step(graph, rng, ledger)
            queues = pool.queues
            assert pool.queued_walks() == sum(len(q) for q in queues.values())
            assert pool.nodes_with_walks().tolist() == sorted(queues.keys())

    def test_queues_view_is_fifo_ordered(self, setting):
        graph, knowledge, ledger = setting
        pool = WalkPool(knowledge.data[[0, 1, 2]].copy(), move_cap=10)
        pool.send(2, 9)
        pool.send(0, 9)
        pool.send(1, 9)
        pool.deliver(knowledge)
        assert list(pool.queues[9]) == [2, 0, 1]
        assert pool.queued_walks() == 3
        assert pool.nodes_with_walks().tolist() == [9]

    def test_idle_pool_counters(self):
        pool = WalkPool(np.zeros((0, 2), dtype=np.uint64), move_cap=1)
        assert pool.queued_walks() == 0
        assert pool.walks_in_transit() == 0
        assert pool.nodes_with_walks().size == 0
        assert pool.is_idle()
