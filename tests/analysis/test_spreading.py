"""Tests for repro.analysis.spreading (growth statistics of traces)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import coverage_growth, phase_breakdown, rounds_to_coverage
from repro.core import PushPullGossip
from repro.engine.knowledge import KnowledgeMatrix
from repro.engine.trace import SpreadingTrace


def synthetic_trace() -> SpreadingTrace:
    km = KnowledgeMatrix(8)
    trace = SpreadingTrace()
    trace.record(0, "a", km)
    for i in range(8):
        km.apply_transmissions([(i + 1) % 8], [i])
    trace.record(1, "a", km)
    for i in range(8):
        for j in range(8):
            km.apply_transmissions([j], [i])
    trace.record(2, "b", km)
    return trace


class TestGrowth:
    def test_coverage_growth_summary(self):
        summary = coverage_growth(synthetic_trace())
        assert summary.initial_coverage == pytest.approx(1 / 8)
        assert summary.final_coverage == pytest.approx(1.0)
        assert summary.rounds == 3
        assert summary.max_round_growth >= summary.mean_round_growth >= 1.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            coverage_growth(SpreadingTrace())

    def test_single_record(self):
        km = KnowledgeMatrix(4)
        trace = SpreadingTrace()
        trace.record(0, "a", km)
        summary = coverage_growth(trace)
        assert summary.rounds == 1
        assert summary.max_round_growth == 1.0

    def test_rounds_to_coverage(self):
        trace = synthetic_trace()
        assert rounds_to_coverage(trace, 0.1) == 0
        assert rounds_to_coverage(trace, 0.2) == 1
        assert rounds_to_coverage(trace, 1.0) == 2
        assert rounds_to_coverage(trace, 0.0) == 0

    def test_rounds_to_coverage_unreached(self):
        km = KnowledgeMatrix(8)
        trace = SpreadingTrace()
        trace.record(0, "a", km)
        assert rounds_to_coverage(trace, 0.9) is None

    def test_rounds_to_coverage_validation(self):
        with pytest.raises(ValueError):
            rounds_to_coverage(synthetic_trace(), 1.5)

    def test_phase_breakdown(self):
        breakdown = phase_breakdown(synthetic_trace())
        assert set(breakdown) == {"a", "b"}
        assert breakdown["b"]["coverage"] == pytest.approx(1.0)
        assert breakdown["a"]["last_round"] == 1.0


class TestOnRealProtocol:
    def test_push_pull_growth_is_exponential_early(self, small_paper_graph):
        result = PushPullGossip().run(small_paper_graph, rng=1, record_trace=True)
        summary = coverage_growth(result.trace)
        assert summary.final_coverage == pytest.approx(1.0)
        # Early rounds at least double the coverage (push+pull 2x growth).
        assert summary.max_round_growth >= 2.0
