"""Cache-economy tests: repeated sweeps against a store execute nothing.

Pins the read-through cache contract of :func:`repro.experiments.run_scenario`:

* running the same sweep twice against one store executes zero simulation
  tasks the second time (counted by a task that logs every execution),
* a grid superset executes only the new keys,
* warm-run exports are byte-identical to a cold run's,
* hits from a secondary ``read_store`` are copied into the primary store,
  and a ``read_store`` path that is not a directory is an error,
* seed mismatches, quarantined failures and CRC-corrupt lines never
  satisfy a cache hit,
* ``SweepReport.cache_hits`` / ``executed`` and ``metadata["cache"]`` are
  filled in and serialized,
* an unsupervised (fail-fast) pool run persists no failure entry.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.analysis.sweep import SweepTask
from repro.experiments import run_scenario
from repro.experiments.scenarios import ScenarioSpec
from repro.io.store import ResultStore


def counting_task(task: SweepTask) -> dict:
    """Module-level task (picklable) that logs every execution to a file."""
    with open(task.params["log"], "a") as handle:
        handle.write(f"{task.key}:{task.repetition}\n")
    return {"value": task.params["x"] * 2.0, "n": task.params["x"]}


def failing_task(task: SweepTask) -> dict:
    """Module-level task (picklable) that fails for one configuration."""
    if task.params["x"] == 2:
        raise ValueError("bad input x=2")
    return counting_task(task)


def _spec(log_path, xs=(1, 2, 3)) -> ScenarioSpec:
    return ScenarioSpec(
        name="counting",
        result_name="counting",
        description="counting scenario for cache tests",
        task=counting_task,
        grid=lambda config: [
            (("cfg", x), {"x": x, "log": str(log_path)}) for x in xs
        ],
        group_by=("n",),
        metrics=("value",),
    )


def _config(repetitions=2, seed=11):
    return SimpleNamespace(repetitions=repetitions, seed=seed, n_jobs=1)


def _executions(log_path) -> int:
    return len(log_path.read_text().splitlines()) if log_path.exists() else 0


class TestWarmRunExecutesNothing:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        log = tmp_path / "log"
        config = _config()
        with ResultStore(tmp_path / "store") as store:
            cold = run_scenario(_spec(log), config=config, store=store)
            assert _executions(log) == 6
            assert cold.metadata["cache"] == {
                "total": 6,
                "hits": 0,
                "primary_hits": 0,
                "secondary_hits": 0,
                "executed": 6,
            }
            warm = run_scenario(_spec(log), config=config, store=store, resume=True)
        # Zero simulation work the second time: the execution log is frozen.
        assert _executions(log) == 6
        assert warm.metadata["cache"]["hits"] == 6
        assert warm.metadata["cache"]["executed"] == 0
        assert warm.rows == cold.rows

    def test_sweep_report_fields_pinned_and_serialized(self, tmp_path):
        log = tmp_path / "log"
        config = _config()
        with ResultStore(tmp_path / "store") as store:
            run_scenario(_spec(log), config=config, store=store, supervise=True)
            warm = run_scenario(
                _spec(log), config=config, store=store, resume=True, supervise=True
            )
        report = warm.metadata["sweep_report"]
        assert report["cache_hits"] == 6
        assert report["executed"] == 0
        assert _executions(log) == 6

    def test_sweep_report_summary_mentions_cache_hits(self):
        from repro.analysis.supervisor import SweepReport

        report = SweepReport(total=0, ok=0, cache_hits=6, executed=0)
        assert "6 cache hits" in report.summary()
        assert "cache hits" not in SweepReport(total=3, ok=3).summary()

    def test_grid_superset_executes_only_new_keys(self, tmp_path):
        log = tmp_path / "log"
        config = _config()
        with ResultStore(tmp_path / "store") as store:
            run_scenario(_spec(log), config=config, store=store)
            assert _executions(log) == 6
            superset = run_scenario(
                _spec(log, xs=(1, 2, 3, 4, 5)), config=config, store=store, resume=True
            )
        assert _executions(log) == 6 + 4  # only x=4 and x=5, two reps each
        assert superset.metadata["cache"] == {
            "total": 10,
            "hits": 6,
            "primary_hits": 6,
            "secondary_hits": 0,
            "executed": 4,
        }
        assert len(superset.rows) == 5

    def test_warm_exports_byte_identical_to_cold(self, tmp_path):
        log = tmp_path / "log"
        config = _config()
        with ResultStore(tmp_path / "cold") as store:
            cold = run_scenario(_spec(log), config=config, store=store)
            cold_paths = cold.save(tmp_path / "out_cold")
        with ResultStore(tmp_path / "warm") as store:
            run_scenario(_spec(log), config=config, store=store)
            warm = run_scenario(_spec(log), config=config, store=store, resume=True)
            warm_paths = warm.save(tmp_path / "out_warm")
        assert set(cold_paths) == set(warm_paths)
        for kind in cold_paths:
            if kind == "metadata":
                continue
            assert cold_paths[kind].read_bytes() == warm_paths[kind].read_bytes()
        # Metadata differs only in the cache counters themselves.
        cold_meta = json.loads(cold_paths["metadata"].read_text())
        warm_meta = json.loads(warm_paths["metadata"].read_text())
        assert cold_meta.pop("cache") != warm_meta.pop("cache")
        assert cold_meta == warm_meta


class TestSecondaryReadStore:
    def test_hits_copied_from_read_store_into_primary(self, tmp_path):
        log = tmp_path / "log"
        config = _config()
        with ResultStore(tmp_path / "shared") as shared:
            run_scenario(_spec(log), config=config, store=shared)
        assert _executions(log) == 6
        with ResultStore(tmp_path / "local") as local:
            result = run_scenario(
                _spec(log), config=config, store=local, read_store=tmp_path / "shared"
            )
            # Secondary hits are copied into the primary: a follow-up run
            # no longer needs the shared store at all.
            assert len(local.completed("counting")) == 6
            rerun = run_scenario(_spec(log), config=config, store=local, resume=True)
        assert _executions(log) == 6
        assert result.metadata["cache"] == {
            "total": 6,
            "hits": 6,
            "primary_hits": 0,
            "secondary_hits": 6,
            "executed": 0,
        }
        assert rerun.metadata["cache"]["primary_hits"] == 6

    def test_read_store_accepts_open_store_instance(self, tmp_path):
        log = tmp_path / "log"
        config = _config()
        with ResultStore(tmp_path / "shared") as shared:
            run_scenario(_spec(log), config=config, store=shared)
            with ResultStore(tmp_path / "local") as local:
                result = run_scenario(
                    _spec(log), config=config, store=local, read_store=shared
                )
        assert result.metadata["cache"]["secondary_hits"] == 6
        assert _executions(log) == 6

    def test_read_store_requires_primary_store(self, tmp_path):
        with pytest.raises(ValueError, match="read_store requires a primary store"):
            run_scenario(
                _spec(tmp_path / "log"),
                config=_config(),
                read_store=tmp_path / "shared",
            )

    def test_missing_read_store_directory_is_an_error(self, tmp_path):
        log = tmp_path / "log"
        typo = tmp_path / "typo" / "shared-stor"
        with ResultStore(tmp_path / "local") as local:
            with pytest.raises(ValueError, match="not a directory"):
                run_scenario(_spec(log), config=_config(), store=local, read_store=typo)
        # Nothing was created and nothing executed.
        assert not (tmp_path / "typo").exists()
        assert _executions(log) == 0

    def test_seed_mismatch_in_read_store_is_a_miss(self, tmp_path):
        log = tmp_path / "log"
        with ResultStore(tmp_path / "shared") as shared:
            run_scenario(_spec(log), config=_config(seed=11), store=shared)
        with ResultStore(tmp_path / "local") as local:
            result = run_scenario(
                _spec(log),
                config=_config(seed=12),
                store=local,
                read_store=tmp_path / "shared",
            )
        # Different base seed -> different per-task seeds -> plain misses
        # (unlike a primary-store seed mismatch, which is an error).
        assert result.metadata["cache"]["hits"] == 0
        assert _executions(log) == 12


class TestInvalidationNeverServesBadEntries:
    def test_quarantined_failure_is_not_a_hit(self, tmp_path):
        log = tmp_path / "log"
        config = _config()
        with ResultStore(tmp_path / "store") as store:
            run_scenario(_spec(log), config=config, store=store)
            pair = sorted(store.completed("counting"))[0]
            entry = store.completed_entries("counting")[pair]
            store.append_failure(
                "counting",
                key=entry["key"],
                params={"x": entry["key"][1], "log": str(log)},
                repetition=entry["repetition"],
                seed=entry["seed"],
                failure={"kind": "error", "message": "chaos"},
            )
            # The failure quarantines the pair for resume only if no record
            # superseded it; here a record exists, so the pair stays
            # completed (scanner rule) and the warm run still hits fully.
            warm = run_scenario(_spec(log), config=config, store=store, resume=True)
            assert warm.metadata["cache"]["hits"] == 6
        assert _executions(log) == 6

    def test_failure_only_pair_is_re_executed(self, tmp_path):
        log = tmp_path / "log"
        config = _config(repetitions=1)
        spec = _spec(log, xs=(1,))
        with ResultStore(tmp_path / "store") as store:
            # Quarantine the pair before any record exists.
            from repro.analysis.sweep import expand_grid

            (task,) = expand_grid(spec.grid(config), repetitions=1, base_seed=config.seed)
            store.append_failure(
                "counting",
                key=task.key,
                params=task.params,
                repetition=task.repetition,
                seed=task.seed,
                failure={"kind": "error", "message": "chaos"},
            )
            result = run_scenario(spec, config=config, store=store, resume=True)
        assert result.metadata["cache"] == {
            "total": 1,
            "hits": 0,
            "primary_hits": 0,
            "secondary_hits": 0,
            "executed": 1,
        }
        assert _executions(log) == 1

    def test_corrupt_line_is_not_a_hit(self, tmp_path):
        log = tmp_path / "log"
        config = _config(repetitions=1)
        with ResultStore(tmp_path / "store") as store:
            run_scenario(_spec(log), config=config, store=store)
        assert _executions(log) == 3
        path = tmp_path / "store" / "counting.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"\xff" * (len(lines[1]) - 1) + b"\n"
        path.write_bytes(b"".join(lines))
        with ResultStore(tmp_path / "store") as store:
            result = run_scenario(_spec(log), config=config, store=store, resume=True)
        # The CRC-skipped line never satisfies a hit: its pair re-executes.
        assert result.metadata["cache"]["hits"] == 2
        assert result.metadata["cache"]["executed"] == 1
        assert _executions(log) == 4


class TestFailFastRuns:
    def test_unsupervised_pool_failure_persists_nothing(self, tmp_path):
        spec = replace(_spec(tmp_path / "log"), task=failing_task)
        with ResultStore(tmp_path / "store") as store:
            with pytest.raises(ValueError, match="bad input x=2"):
                run_scenario(spec, config=_config(), store=store, n_jobs=2)
            assert store.failures("counting") == {}
        assert multiprocessing.active_children() == []


class TestNoStoreRuns:
    def test_cache_metadata_absent_without_store(self, tmp_path):
        result = run_scenario(
            _spec(tmp_path / "log"), config=_config(), supervise=True
        )
        assert "cache" not in result.metadata
        assert result.metadata["sweep_report"]["cache_hits"] == 0
        assert result.metadata["sweep_report"]["executed"] == 0
