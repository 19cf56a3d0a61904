"""Tests for the graph-model comparison extension (E12)."""

from __future__ import annotations

import pytest

from repro.experiments import SizeSweepConfig, run_scenario
from repro.experiments.graph_models import GRAPH_MODEL_COLUMNS


class TestGraphModelComparison:
    @pytest.fixture(scope="class")
    def result(self):
        config = SizeSweepConfig(sizes=(256,), repetitions=2, seed=21)
        return run_scenario("graph-models", config=config)

    def test_rows_cover_both_models_and_all_protocols(self, result):
        models = {row["model"] for row in result.rows}
        protocols = {row["protocol"] for row in result.rows}
        assert models == {"erdos_renyi", "configuration_model"}
        assert protocols == {"push-pull", "fast-gossiping", "memory"}
        assert len(result.rows) == 6

    def test_models_agree_within_tolerance(self, result):
        for gap in result.metadata["relative_gaps"]:
            assert gap["relative_gap"] < 0.5

    def test_all_completed_costs_positive(self, result):
        for row in result.rows:
            assert row["messages_per_node"] > 0
            assert row["rounds"] > 0

    def test_table_renderable(self, result):
        table = result.to_table(GRAPH_MODEL_COLUMNS)
        assert "configuration_model" in table
