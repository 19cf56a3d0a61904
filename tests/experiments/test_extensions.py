"""Tests for the extension/ablation experiments (E7–E10)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    BroadcastAblationConfig,
    DensitySweepConfig,
    LeaderElectionConfig,
    ParameterAblationConfig,
    run_scenario,
)


class TestDensitySweep:
    @pytest.fixture(scope="class")
    def result(self):
        config = DensitySweepConfig(
            size=256,
            expected_degrees=(64.0, 128.0),
            include_complete=True,
            repetitions=1,
            seed=1,
        )
        return run_scenario("density", config=config)

    def test_rows_cover_all_densities_and_protocols(self, result):
        graphs = {row["graph"] for row in result.rows}
        assert len(graphs) == 3  # two ER densities + complete
        protocols = {row["protocol"] for row in result.rows}
        assert protocols == {"push-pull", "fast-gossiping", "memory"}

    def test_memory_cost_flat_across_densities(self, result):
        """The paper's thesis: density does not change the gossiping overhead much."""
        flatness = result.metadata["max_over_min_cost_ratio"]
        assert flatness["memory"] < 2.0

    def test_expected_degree_column(self, result):
        for row in result.rows:
            assert row["expected_degree"] > 0

    def test_default_degree_ladder(self):
        config = DensitySweepConfig(size=1024)
        degrees = config.degrees()
        assert degrees[0] == pytest.approx(100.0)
        assert all(b > a for a, b in zip(degrees, degrees[1:]))


class TestBroadcastAblation:
    def test_rows_and_growth_metadata(self):
        config = BroadcastAblationConfig(sizes=(128, 256), repetitions=1, seed=2)
        result = run_scenario("broadcast", config=config)
        assert len(result.rows) == 2 * 2 * 2  # sizes x topologies x tasks
        growth = result.metadata["broadcast_cost_growth"]
        assert set(growth) == {"sparse", "complete"}
        # Gossiping stays bounded on both topologies.
        gossip_costs = [
            row["messages_per_node"] for row in result.rows if row["task"] == "gossip-memory"
        ]
        assert max(gossip_costs) < 10.0


class TestParameterAblation:
    def test_grid_and_monotonicity(self):
        config = ParameterAblationConfig(
            size=256,
            walk_probability_factors=(0.5, 2.0),
            broadcast_steps_factors=(0.5,),
            repetitions=1,
            seed=3,
        )
        result = run_scenario("parameters", config=config)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["completed"]
            assert row["messages_per_node"] > 0
        by_factor = {row["walk_probability_factor"]: row for row in result.rows}
        assert set(by_factor) == {0.5, 2.0}


class TestLeaderElectionCost:
    def test_variants_and_uniqueness(self):
        config = LeaderElectionConfig(sizes=(256,), repetitions=2, seed=4)
        result = run_scenario("election", config=config)
        assert len(result.rows) == 2  # one size, two variants
        by_variant = {row["variant"]: row for row in result.rows}
        assert by_variant["budgeted"]["messages_per_node"] < by_variant["pseudocode"][
            "messages_per_node"
        ]
        for row in result.rows:
            assert row["unique_fraction"] == 1.0
