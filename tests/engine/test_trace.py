"""Tests for repro.engine.trace (per-round progress traces)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.knowledge import KnowledgeMatrix, SingleMessageState
from repro.engine.trace import RoundRecord, SpreadingTrace


class TestSpreadingTrace:
    def test_disabled_trace_records_nothing(self):
        trace = SpreadingTrace(enabled=False)
        trace.record(0, "p", KnowledgeMatrix(4))
        assert len(trace) == 0
        assert trace.final_coverage() == 0.0

    def test_record_gossip_state(self):
        km = KnowledgeMatrix(4)
        trace = SpreadingTrace()
        trace.record(0, "phase1", km)
        km.apply_transmissions([1], [0])
        trace.record(1, "phase1", km)
        assert len(trace) == 2
        assert trace.records[0].coverage == pytest.approx(0.25)
        assert trace.records[1].coverage > trace.records[0].coverage
        assert trace.records[1].max_known == 2

    def test_coverage_curve_monotone_for_unions(self):
        km = KnowledgeMatrix(8)
        trace = SpreadingTrace()
        rng = np.random.default_rng(0)
        for step in range(10):
            dst, src = int(rng.integers(8)), int(rng.integers(8))
            km.apply_transmissions([src], [dst])
            trace.record(step, "p", km)
        curve = trace.coverage_curve()
        assert np.all(np.diff(curve) >= 0)

    def test_rounds_per_phase(self):
        km = KnowledgeMatrix(4)
        trace = SpreadingTrace()
        trace.record(0, "a", km)
        trace.record(1, "a", km)
        trace.record(2, "b", km)
        assert trace.rounds_per_phase() == {"a": 2, "b": 1}

    def test_record_broadcast(self):
        state = SingleMessageState(10, source=0)
        trace = SpreadingTrace()
        trace.record_broadcast(0, "push", state)
        state.inform(np.asarray([1, 2, 3]), 1)
        trace.record_broadcast(1, "push", state)
        assert trace.records[0].fully_informed_nodes == 1
        assert trace.records[1].fully_informed_nodes == 4
        assert trace.final_coverage() == pytest.approx(0.4)

    def test_as_rows(self):
        km = KnowledgeMatrix(4)
        trace = SpreadingTrace()
        trace.record(0, "p", km)
        rows = trace.as_rows()
        assert rows[0]["round"] == 0
        assert rows[0]["phase"] == "p"
        assert set(rows[0]) >= {"coverage", "min_known", "mean_known", "max_known"}
