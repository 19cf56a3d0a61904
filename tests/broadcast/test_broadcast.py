"""Tests for the single-message broadcasting baseline (age-based push–pull)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.broadcast import AgeBasedBroadcast
from repro.graphs import complete_graph, erdos_renyi, paper_edge_probability


@pytest.fixture(scope="module")
def sparse_graph():
    n = 512
    return erdos_renyi(n, paper_edge_probability(n), rng=11, require_connected=True)


@pytest.fixture(scope="module")
def dense_graph():
    return complete_graph(256)


class TestCompletion:
    def test_completes_on_sparse_graph(self, sparse_graph):
        result = AgeBasedBroadcast().run(sparse_graph, source=0, rng=1)
        assert result.completed
        assert result.state.is_complete()

    def test_completes_on_complete_graph(self, dense_graph):
        result = AgeBasedBroadcast().run(dense_graph, source=5, rng=2)
        assert result.completed
        assert result.state.informed_at[5] == 0

    def test_deterministic(self, sparse_graph):
        a = AgeBasedBroadcast().run(sparse_graph, rng=3)
        b = AgeBasedBroadcast().run(sparse_graph, rng=3)
        assert a.rounds == b.rounds
        assert a.total_messages() == b.total_messages()

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            AgeBasedBroadcast().run(complete_graph(1), rng=1)


class TestAgeBased:
    def test_quench_age_formula(self):
        proto = AgeBasedBroadcast(quench_constant=4.0)
        n = 2**16
        assert proto.quench_age(n) == math.ceil(math.log(n, 3) + 4 * 4)

    def test_messages_per_node_small_on_complete_graph(self, dense_graph):
        """Karp et al.: O(log log n) per node on the complete graph."""
        result = AgeBasedBroadcast().run(dense_graph, rng=13)
        assert result.completed
        n = dense_graph.n
        assert result.messages_per_node() <= 3 * math.log2(math.log2(n)) + 3

    def test_extras_contain_quench_age(self, dense_graph):
        result = AgeBasedBroadcast().run(dense_graph, rng=14)
        assert result.extras["quench_age"] == AgeBasedBroadcast().quench_age(dense_graph.n)

    def test_trace(self, sparse_graph):
        result = AgeBasedBroadcast().run(sparse_graph, rng=15, record_trace=True)
        assert result.trace is not None
        curve = result.trace.coverage_curve()
        assert curve[-1] == pytest.approx(1.0)
        assert np.all(np.diff(curve) >= 0)
