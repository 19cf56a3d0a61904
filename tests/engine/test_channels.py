"""Tests for repro.engine.channels (per-step channel bookkeeping)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.channels import open_channels
from repro.engine.rng import make_rng
from repro.graphs import complete_graph, erdos_renyi


@pytest.fixture(scope="module")
def graph():
    return complete_graph(32)


class TestOpenChannels:
    def test_every_node_opens_one_channel(self, graph):
        channels = open_channels(graph, make_rng(1))
        assert channels.callers.tolist() == list(range(graph.n))
        assert channels.targets.size == graph.n

    def test_targets_are_neighbors(self, graph):
        channels = open_channels(graph, make_rng(2))
        for caller, target in zip(channels.callers.tolist(), channels.targets.tolist()):
            assert graph.has_edge(caller, target)
            assert caller != target

    def test_participants_subset(self, graph):
        participants = np.asarray([0, 5, 9])
        channels = open_channels(graph, make_rng(3), participants=participants)
        assert channels.callers.tolist() == [0, 5, 9]
        assert channels.targets.size == 3

    def test_deterministic_given_seed(self, graph):
        a = open_channels(graph, make_rng(7))
        b = open_channels(graph, make_rng(7))
        assert np.array_equal(a.callers, b.callers)
        assert np.array_equal(a.targets, b.targets)

    def test_alive_mask_excludes_failed_callees(self, graph):
        alive = np.ones(graph.n, dtype=bool)
        alive[3] = False
        channels = open_channels(graph, make_rng(4), alive=alive)
        assert 3 not in channels.callers.tolist()
        assert 3 not in channels.targets.tolist()

    def test_isolated_node_opens_nothing(self):
        # Two components: node 2 is isolated -> cannot open a channel.
        from repro.graphs.adjacency import Adjacency

        graph = Adjacency.from_edges(3, np.asarray([[0, 1]]))
        channels = open_channels(graph, make_rng(5))
        assert channels.callers.tolist() == [0, 1]
        assert channels.targets.tolist() == [1, 0]

    def test_empty_participants(self):
        from repro.graphs.adjacency import Adjacency

        graph = Adjacency.from_edges(2, np.asarray([[0, 1]]))
        channels = open_channels(graph, make_rng(11), participants=np.asarray([], dtype=np.int64))
        assert channels.callers.size == 0 and channels.targets.size == 0


class TestOnRandomGraph:
    def test_incoming_roughly_balanced(self):
        graph = erdos_renyi(500, expected_degree=60, rng=1, require_connected=True)
        channels = open_channels(graph, make_rng(12))
        counts = np.bincount(channels.targets, minlength=graph.n)
        # Balls-into-bins: the maximum number of incoming channels stays small.
        assert counts.max() <= 12
        assert counts.sum() == channels.callers.size == graph.n
