"""Tests for repro.analysis.statistics."""

from __future__ import annotations

import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import summarize


class TestSummarize:
    def test_basic(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.minimum == 1.0 and stats.maximum == 3.0
        assert stats.std == pytest.approx(1.0)

    def test_single_value(self):
        stats = summarize([5.0])
        assert stats.std == 0.0
        assert stats.confidence_interval() == (5.0, 5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_confidence_interval_contains_mean(self):
        stats = summarize(np.random.default_rng(0).normal(10, 2, size=50))
        low, high = stats.confidence_interval()
        assert low < stats.mean < high
        assert stats.as_dict()["ci_low"] == pytest.approx(low)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_property_matches_the_stdlib(self, values):
        stats = summarize(values)
        assert stats.count == len(values)
        assert stats.mean == pytest.approx(statistics.fmean(values), rel=1e-9, abs=1e-6)
        expected_std = statistics.stdev(values) if len(values) > 1 else 0.0
        assert stats.std == pytest.approx(expected_std, rel=1e-6, abs=1e-6)
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)
