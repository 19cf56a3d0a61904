"""Tests for repro.core.push_pull (Algorithm 4, the baseline)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import PushPullGossip, PushPullParameters
from repro.engine import MessageAccounting, sample_uniform_failures
from repro.engine.failures import FailurePlan
from repro.graphs import complete_graph, hypercube


class TestCompletion:
    def test_completes_on_paper_graph(self, small_paper_graph):
        result = PushPullGossip().run(small_paper_graph, rng=1)
        assert result.completed
        assert result.knowledge.is_complete()
        assert result.protocol == "push-pull"

    def test_completes_on_complete_graph(self, small_complete_graph):
        result = PushPullGossip().run(small_complete_graph, rng=2)
        assert result.completed

    def test_completes_on_hypercube(self):
        result = PushPullGossip().run(hypercube(7), rng=3)
        assert result.completed

    def test_rounds_logarithmic(self, small_paper_graph):
        result = PushPullGossip().run(small_paper_graph, rng=4)
        n = small_paper_graph.n
        assert result.rounds <= 4 * math.log2(n)
        assert result.rounds >= math.floor(math.log2(n) / 2)

    def test_deterministic_given_seed(self, small_paper_graph):
        a = PushPullGossip().run(small_paper_graph, rng=5)
        b = PushPullGossip().run(small_paper_graph, rng=5)
        assert a.rounds == b.rounds
        assert a.total_messages() == b.total_messages()
        assert a.knowledge == b.knowledge

    def test_max_rounds_abort(self, small_paper_graph):
        params = PushPullParameters(max_rounds_factor=0.3)
        result = PushPullGossip(params).run(small_paper_graph, rng=6)
        assert not result.completed
        assert result.rounds == params.max_rounds(small_paper_graph.n)


class TestAccounting:
    def test_messages_match_rounds(self, small_paper_graph):
        """Every node opens one channel and pushes once per round; pulls ~1 on average."""
        result = PushPullGossip().run(small_paper_graph, rng=7)
        n = small_paper_graph.n
        assert result.ledger.total(MessageAccounting.OPENS) == n * result.rounds
        assert result.ledger.total(MessageAccounting.PUSHES) == pytest.approx(
            n * result.rounds, rel=0.01
        )
        assert result.ledger.total(MessageAccounting.PULLS) == result.ledger.total(
            MessageAccounting.PUSHES
        )
        assert result.messages_per_node() == pytest.approx(2 * result.rounds, rel=0.02)

    def test_trace_recording(self, small_paper_graph):
        result = PushPullGossip().run(small_paper_graph, rng=8, record_trace=True)
        assert result.trace is not None
        assert len(result.trace) == result.rounds
        curve = result.trace.coverage_curve()
        assert np.all(np.diff(curve) >= 0)
        assert curve[-1] == pytest.approx(1.0)

    def test_push_pull_growth_is_exponential_early(self, small_paper_graph):
        result = PushPullGossip().run(small_paper_graph, rng=1, record_trace=True)
        curve = result.trace.coverage_curve()
        assert curve[-1] == pytest.approx(1.0)
        # Early rounds at least double the coverage (push+pull 2x growth).
        assert (curve[1:] / curve[:-1]).max() >= 2.0

    def test_no_trace_by_default(self, small_paper_graph):
        assert PushPullGossip().run(small_paper_graph, rng=9).trace is None


class TestValidation:
    def test_small_graph_rejected(self):
        with pytest.raises(ValueError):
            PushPullGossip().run(complete_graph(1), rng=1)

    def test_isolated_node_rejected(self):
        from repro.graphs.adjacency import Adjacency

        graph = Adjacency.from_edges(3, np.asarray([[0, 1]]))
        with pytest.raises(ValueError):
            PushPullGossip().run(graph, rng=1)

    def test_unsupported_failure_injection(self, small_paper_graph):
        plan = sample_uniform_failures(small_paper_graph.n, 3, rng=1)
        with pytest.raises(ValueError):
            PushPullGossip().run(small_paper_graph, failures=plan, rng=1)


class TestWithFailures:
    def test_failures_at_start(self, small_complete_graph):
        n = small_complete_graph.n
        plan = sample_uniform_failures(n, 10, rng=11, inject_at="start")
        result = PushPullGossip().run(small_complete_graph, rng=12, failures=plan)
        assert result.completed
        alive = plan.alive_mask(n)
        # Failed nodes never communicate: they know only their own message.
        counts = result.knowledge.counts()
        assert np.all(counts[~alive] == 1)
        # Alive nodes know all alive messages.
        assert result.extras["alive_nodes"] == n - 10

    def test_failed_nodes_send_nothing(self, small_complete_graph):
        n = small_complete_graph.n
        plan = sample_uniform_failures(n, 5, rng=13, inject_at="start")
        result = PushPullGossip().run(small_complete_graph, rng=14, failures=plan)
        per_node = result.ledger.per_node(MessageAccounting.OPENS_AND_PACKETS)
        assert np.all(per_node[plan.failed] == 0)
