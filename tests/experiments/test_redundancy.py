"""Tests for the gather-redundancy ablation experiment (E11)."""

from __future__ import annotations

import pytest

from repro.experiments import RobustnessConfig, run_scenario
from repro.experiments.ablation_redundancy import REDUNDANCY_COLUMNS


class TestRedundancyAblation:
    @pytest.fixture(scope="class")
    def result(self):
        config = RobustnessConfig(
            size=256, failed_fractions=(0.0, 0.3), num_trees=2, repetitions=2, seed=11
        )
        return run_scenario("redundancy", config=config)

    def test_rows_cover_both_modes(self, result):
        modes = {row["gather_contacts"] for row in result.rows}
        assert modes == {"all", "first"}
        assert len(result.rows) == 4  # 2 modes x 2 failure counts

    def test_no_losses_without_failures(self, result):
        for row in result.rows:
            if row["failed"] == 0:
                assert row["additional_lost"] == 0.0

    def test_first_mode_never_more_robust(self, result):
        failed_counts = {row["failed"] for row in result.rows if row["failed"] > 0}
        for failed in failed_counts:
            by_mode = {
                row["gather_contacts"]: row["additional_lost"]
                for row in result.rows
                if row["failed"] == failed
            }
            assert by_mode["first"] >= by_mode["all"]

    def test_metadata_summary(self, result):
        ratios = result.metadata["loss_ratio_at_largest_f"]
        assert set(ratios) == {"all", "first"}

    def test_columns_renderable(self, result):
        table = result.to_table(REDUNDANCY_COLUMNS)
        assert "gather_contacts" in table
