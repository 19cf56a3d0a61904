"""Scenario-level tests for the event-clock experiments (push-sum, churn).

Covers the registry wiring (both scenarios resolve by name, smoke-scale runs
finish fast and set their invariant flags) and the fault-tolerance bar for
the new sweeps: an event-clock push-sum sweep that loses a worker to a
seeded SIGKILL, and one resumed from a partially filled store, must both
produce a result store byte-identical to a clean single-pass run.
"""

from __future__ import annotations

import pytest

from repro.analysis.supervisor import RetryPolicy
from repro.engine.chaos import ChaosSpec
from repro.experiments import run_scenario
from repro.experiments.churn import CHURN
from repro.experiments.config import ChurnConfig, PushSumConfig
from repro.experiments.push_sum import PUSHSUM
from repro.experiments.scenarios import get_scenario, scenario_names
from repro.io.store import ResultStore

#: Zero backoff / zero jitter keeps retry resubmission order deterministic.
DETERMINISTIC = RetryPolicy(max_retries=3, backoff_base=0.0, jitter=0.0)


def smoke_pushsum_config():
    return PUSHSUM.smoke_config


def smoke_churn_config():
    return CHURN.smoke_config


class TestRegistry:
    def test_scenarios_are_registered(self):
        names = scenario_names()
        assert "pushsum" in names
        assert "churn" in names
        assert get_scenario("pushsum") is PUSHSUM
        assert get_scenario("churn") is CHURN

    def test_smoke_configs_are_tiny(self):
        assert max(smoke_pushsum_config().sizes) <= 128
        assert smoke_churn_config().repetitions == 1


class TestPushSumScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(PUSHSUM, config=smoke_pushsum_config())

    def test_rows_cover_both_clocks(self, result):
        clocks = {row["clock"] for row in result.rows}
        assert clocks == {"sync", "event"}

    def test_invariant_flags_hold(self, result):
        assert result.metadata["mass_conserved"]
        assert result.metadata["spread_monotone"]
        assert result.metadata["variance_decayed"]

    def test_rows_converged(self, result):
        assert all(row["converged"] for row in result.rows)
        assert all(row["mass_error"] <= 1e-9 for row in result.raw_records)

    def test_seed_trajectories_are_clock_invariant(self, result):
        """Both clocks share the seed derivation, so each (n, repetition)
        pair solves the same averaging instance under either clock."""
        by_clock = {}
        for rec in result.raw_records:
            by_clock.setdefault(rec["clock"], {})[rec["n"]] = rec
        for n, sync_rec in by_clock["sync"].items():
            assert by_clock["event"][n]["variance_initial"] == pytest.approx(
                sync_rec["variance_initial"], abs=0.0
            )


class TestChurnScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(CHURN, config=smoke_churn_config())

    def test_all_fractions_complete(self, result):
        assert result.metadata["all_completed"]
        assert {row["churn_fraction"] for row in result.rows} == {0.0, 0.125}

    def test_churn_costs_extra_events(self, result):
        by_fraction = {row["churn_fraction"]: row for row in result.rows}
        assert by_fraction[0.125]["survivors"] < by_fraction[0.0]["survivors"]

    def test_zero_fraction_has_no_ops(self, result):
        for rec in result.raw_records:
            if rec["churn_fraction"] == 0.0:
                assert rec["churn_ops"] == 0
            else:
                assert rec["churn_ops"] > 0


def _pushsum_reference(tmp_path):
    """Clean supervised event-clock sweep: (result, store bytes)."""
    store = ResultStore(tmp_path / "ref")
    result = run_scenario(
        PUSHSUM,
        config=smoke_pushsum_config(),
        store=store,
        supervise=True,
        policy=DETERMINISTIC,
    )
    store.close()
    return result, (tmp_path / "ref" / "pushsum.jsonl").read_bytes()


class TestEventClockSweepFaultTolerance:
    def test_chaos_kill_is_byte_identical(self, tmp_path):
        """`--chaos kill=1`: losing a worker mid-sweep leaves no trace."""
        result_ref, file_ref = _pushsum_reference(tmp_path)

        store = ResultStore(tmp_path / "chaos")
        result = run_scenario(
            PUSHSUM,
            config=smoke_pushsum_config(),
            store=store,
            policy=DETERMINISTIC,
            chaos=ChaosSpec(counts={"kill": 1}, seed=7),
        )
        store.close()

        report = result.metadata["sweep_report"]
        assert report["worker_crashes"] >= 1 and report["pool_restarts"] >= 1
        assert not report["quarantined"]
        assert (tmp_path / "chaos" / "pushsum.jsonl").read_bytes() == file_ref
        assert result.raw_records == result_ref.raw_records
        assert result.rows == result_ref.rows
        assert result.metadata["mass_conserved"]

    def test_resume_is_byte_identical(self, tmp_path):
        """A sweep resumed from a partial store recomputes only the missing
        pairs and converges to the same bytes as a clean single pass."""
        _, file_ref = _pushsum_reference(tmp_path)

        # Build a partial store: keep only the first persisted record.
        partial_dir = tmp_path / "partial"
        partial_dir.mkdir()
        lines = file_ref.splitlines(keepends=True)
        assert len(lines) > 1
        (partial_dir / "pushsum.jsonl").write_bytes(lines[0])

        store = ResultStore(partial_dir)
        result = run_scenario(
            PUSHSUM,
            config=smoke_pushsum_config(),
            store=store,
            resume=True,
            supervise=True,
            policy=DETERMINISTIC,
        )
        store.close()

        resumed = (partial_dir / "pushsum.jsonl").read_bytes()
        assert sorted(resumed.splitlines()) == sorted(file_ref.splitlines())
        assert result.metadata["mass_conserved"]
