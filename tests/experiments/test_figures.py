"""Integration tests for the per-figure/table experiment harnesses.

Each test runs the experiment at a deliberately tiny scale (n <= 256, one or
two repetitions) and asserts both the structural contract of the result rows
and the qualitative findings the paper reports for that figure.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    Figure3Config,
    RobustnessConfig,
    RobustnessDetailConfig,
    ScaleConfig,
    SizeSweepConfig,
    get_scenario,
    resolve_config,
    run_scenario,
)
from repro.experiments.figure1 import FIGURE1_COLUMNS


@pytest.fixture(scope="module")
def figure1_result():
    config = SizeSweepConfig(sizes=(128, 256), repetitions=2, seed=1)
    return run_scenario("figure1", config=config)


class TestFigure1:
    def test_row_structure(self, figure1_result):
        rows = figure1_result.rows
        assert len(rows) == 2 * 3  # two sizes, three protocols
        for row in rows:
            for column in ("n", "protocol", "messages_per_node", "rounds", "completed"):
                assert column in row

    def test_all_runs_completed(self, figure1_result):
        assert all(row["completed"] for row in figure1_result.rows)

    def test_protocol_ordering_matches_paper(self, figure1_result):
        """Per size: push-pull > fast-gossiping > memory (Figure 1's ordering)."""
        for n in (128, 256):
            per_protocol = {
                row["protocol"]: row["messages_per_node"]
                for row in figure1_result.rows
                if row["n"] == n
            }
            assert per_protocol["push-pull"] > per_protocol["fast-gossiping"]
            assert per_protocol["fast-gossiping"] > per_protocol["memory"]

    def test_memory_cost_bounded(self, figure1_result):
        memory_costs = [
            row["messages_per_node"]
            for row in figure1_result.rows
            if row["protocol"] == "memory"
        ]
        assert max(memory_costs) < 10.0

    def test_metadata_contains_fits(self, figure1_result):
        fits = figure1_result.metadata["bound_fit_constants"]
        assert set(fits) == {"push-pull", "fast-gossiping", "memory"}
        assert all(value > 0 for value in fits.values())

    def test_table_rendering(self, figure1_result):
        table = figure1_result.to_table(FIGURE1_COLUMNS)
        assert "push-pull" in table and "memory" in table


class TestFigure4:
    def test_rows_and_plateaus(self):
        config = SizeSweepConfig(
            sizes=(128, 192, 256), repetitions=1, seed=2, protocols=("fast-gossiping",)
        )
        result = run_scenario("figure4", config=config)
        assert len(result.rows) == 3
        for row in result.rows:
            assert row["walk_probability"] > 0
            assert "schedule_signature" in row
        assert "within_plateau_deltas" in result.metadata


class TestFigure2:
    def test_loss_ratio_shape(self):
        config = RobustnessConfig(
            size=256, failed_fractions=(0.0, 0.1, 0.5), repetitions=2, seed=3
        )
        result = run_scenario("figure2", config=config)
        assert len(result.rows) == 3
        by_failed = {row["failed"]: row for row in result.rows}
        assert by_failed[0]["additional_lost"] == 0.0
        # Monotone-ish: heavy failures lose at least as much as none.
        assert by_failed[128]["loss_ratio"] >= by_failed[0]["loss_ratio"]
        for row in result.rows:
            assert 0.0 <= row["failed_fraction"] <= 0.5


class TestFigure3:
    def test_two_sizes(self):
        config = Figure3Config(
            size=128, sizes=(128, 256), failed_fractions=(0.1, 0.4), repetitions=1, seed=4
        )
        result = run_scenario("figure3", config=config)
        sizes = {row["n"] for row in result.rows}
        assert sizes == {128, 256}
        assert len(result.rows) == 4


class TestFigure5:
    def test_exceedance_columns(self):
        config = RobustnessDetailConfig(
            sizes=(128,),
            thresholds=(0, 10),
            failed_fractions=(0.1, 0.5),
            repetitions=3,
            seed=5,
        )
        result = run_scenario("figure5", config=config)
        assert len(result.rows) == 2
        for row in result.rows:
            assert 0.0 <= row["exceed_T0"] <= 1.0
            assert 0.0 <= row["exceed_T10"] <= 1.0
            # Exceeding a higher threshold is never more likely.
            assert row["exceed_T10"] <= row["exceed_T0"]
            assert row["repetitions"] == 3


class TestTable1:
    def test_structure(self):
        result = run_scenario("table1", config=[1024, 10**6])
        assert {row["n"] for row in result.rows} == {1024, 10**6}
        algorithms = {row["algorithm"] for row in result.rows}
        assert algorithms == {"algorithm1_fast_gossiping", "algorithm2_memory_model"}

    def test_known_values_for_million_nodes(self):
        result = run_scenario("table1", config=[10**6])
        lookup = {
            (row["algorithm"], row["limit"]): row["value"] for row in result.rows
        }
        # log2(10^6) ~ 19.93, loglog ~ 4.32: Table 1 formulas resolved.
        assert lookup[("algorithm1_fast_gossiping", "number of steps")] == 6
        assert lookup[("algorithm1_fast_gossiping", "number of rounds")] == 5
        assert lookup[("algorithm2_memory_model", "first loop, number of steps (multiple of 4)")] == 40

    def test_default_sizes(self):
        result = run_scenario("table1")
        assert len(result.rows) > 0


class TestScale:
    CONFIG = ScaleConfig(sizes=(512, 1024), repetitions=2, seed=1)
    SMOKE = resolve_config(get_scenario("scale"), smoke=True)

    @pytest.mark.parametrize("config", [CONFIG, SMOKE], ids=["quick", "smoke"])
    def test_one_row_per_size(self, config):
        """At the smoke sizes the matrix, swap buffer and graph hold a few KB, still > 0."""
        result = run_scenario("scale", config=config)
        assert sorted(row["n"] for row in result.rows) == sorted(config.sizes)
        for row in result.rows:
            assert row["completed"]
            assert row["repetitions"] == config.repetitions
            assert row["storage_mb"] > 0

    def test_record_is_the_gossip_record_plus_storage(self):
        from repro.analysis.sweep import expand_grid
        from repro.experiments.runner import gossip_task
        from repro.experiments.scale import SCALE

        task = expand_grid(SCALE.grid(self.CONFIG), 1, self.CONFIG.seed)[0]
        record = SCALE.task(task)
        assert record.pop("storage_mb") > 0
        assert record == gossip_task(task)
