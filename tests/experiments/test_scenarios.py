"""Tests for the declarative scenario registry (repro.experiments.scenarios)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    RobustnessConfig,
    SizeSweepConfig,
    all_scenarios,
    get_scenario,
    resolve_config,
    run_scenario,
    scenario_names,
)
from repro.engine import _ckernel, backends
from repro.experiments.scenarios import ScenarioSpec


EXPECTED_SCENARIOS = {
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "table1",
    "density",
    "broadcast",
    "parameters",
    "redundancy",
    "election",
    "graph-models",
    "scale",
    "pushsum",
    "churn",
}


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(scenario_names()) == EXPECTED_SCENARIOS

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("not-a-scenario")

    def test_specs_are_complete(self):
        for spec in all_scenarios():
            assert spec.description
            assert spec.result_name
            if spec.run_override is None:
                # Sweep scenarios need a grid, a task and an aggregation.
                assert spec.task is not None
                assert spec.grid is not None
                assert spec.group_by or spec.aggregate is not None
                assert spec.cli_config is not None
                assert spec.smoke_config is not None

    def test_smoke_configs_are_tiny(self):
        for spec in all_scenarios():
            if spec.run_override is not None:
                continue
            config = spec.smoke_config(None)
            sizes = getattr(config, "sizes", None) or (getattr(config, "size", 0),)
            assert max(int(s) for s in sizes) <= 256, spec.name


class TestResolveConfig:
    def test_explicit_config_wins(self):
        spec = get_scenario("figure1")
        config = SizeSweepConfig(sizes=(64,), repetitions=1, seed=9)
        assert resolve_config(spec, config=config) is config

    def test_seed_override(self):
        spec = get_scenario("figure1")
        config = resolve_config(spec, config=SizeSweepConfig(), seed=123)
        assert config.seed == 123
        smoke = resolve_config(spec, seed=77, smoke=True)
        assert smoke.seed == 77

    def test_profiles(self):
        spec = get_scenario("figure1")
        assert resolve_config(spec, profile="cli").sizes == (256, 512, 1024, 2048)
        assert resolve_config(spec, profile="default").sizes == SizeSweepConfig().sizes

    def test_seed_zero_is_respected(self):
        """Regression: ``--seed 0`` must not fall back to the default seed."""
        for spec in all_scenarios():
            if spec.run_override is not None:
                continue
            assert resolve_config(spec, seed=0, profile="cli").seed == 0, spec.name
            assert resolve_config(spec, seed=0, smoke=True).seed == 0, spec.name


class TestRunScenario:
    def test_run_by_name_smoke(self):
        result = run_scenario("election", smoke=True)
        assert result.name == "leader_election_cost"
        assert result.rows and result.raw_records

    @pytest.mark.skipif(not _ckernel.available(), reason="compiled kernel unavailable")
    def test_metadata_records_compiled_execution(self):
        with backends.use(backends.CBackend()):
            execution = run_scenario("figure1", smoke=True).metadata["execution"]
        assert execution["name"] == "c" and execution["compiled"] is True
        assert execution["ckernel"] == "loaded"
        assert execution["simd"]["active"] == _ckernel.simd_name()

    def test_metadata_records_numpy_execution(self):
        with backends.use(backends.NumpyBackend()):
            execution = run_scenario("figure1", smoke=True).metadata["execution"]
        assert execution["name"] == "numpy" and execution["compiled"] is False

    def test_table1_override(self):
        result = run_scenario("table1", config=[1024])
        assert {row["n"] for row in result.rows} == {1024}

    def test_invalid_spec_without_task_or_override(self):
        spec = ScenarioSpec(name="broken", result_name="broken", description="broken")
        with pytest.raises(ValueError, match="neither a sweep nor a run override"):
            run_scenario(spec)

    def test_figure3_config_sizes_respected(self):
        from repro.experiments import Figure3Config

        config = Figure3Config(
            sizes=(128,), failed_fractions=(0.1,), repetitions=1, seed=6
        )
        result = run_scenario("figure3", config=config)
        assert {row["n"] for row in result.rows} == {128}

    def test_progress_callback(self):
        seen = []
        run_scenario(
            "figure2",
            config=RobustnessConfig(
                size=128, failed_fractions=(0.0, 0.25), repetitions=1, seed=5
            ),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]
