"""Tests for repro.analysis.sweep (parameter sweeps and parallel execution)."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.analysis.sweep import SweepTask, expand_grid, run_sweep, stable_key_hash


def square_task(task: SweepTask) -> dict:
    """Module-level task function (picklable for process pools)."""
    return {"value": task.params["x"] ** 2, "seed_seen": task.seed}


def failing_task(task: SweepTask) -> dict:
    """Module-level task that fails for one specific input."""
    if task.params["x"] == 3:
        raise RuntimeError("boom at x=3")
    return {"value": task.params["x"]}


def value_error_task(task: SweepTask) -> dict:
    """Module-level task raising a ValueError for one specific input."""
    if task.params["x"] == 2:
        raise ValueError("bad input x=2")
    return {"value": task.params["x"]}


def env_task(task: SweepTask) -> dict:
    """Module-level task reporting a REPRO_* env var seen in the worker."""
    import os

    return {"threads": os.environ.get("REPRO_KERNEL_THREADS", "")}


def execution_task(task: SweepTask) -> dict:
    """Module-level task reporting the worker's backend."""
    from repro.engine import backends

    return {"backend": backends.active().describe()["name"]}


class TestExpandGrid:
    def test_count(self):
        tasks = expand_grid([("a", {"x": 1}), ("b", {"x": 2})], repetitions=3, base_seed=0)
        assert len(tasks) == 6
        assert {t.key for t in tasks} == {"a", "b"}
        assert {t.repetition for t in tasks} == {0, 1, 2}

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            expand_grid([("a", {})], repetitions=0, base_seed=0)

    def test_seeds_are_distinct_and_deterministic(self):
        tasks_a = expand_grid([("a", {}), ("b", {})], repetitions=4, base_seed=7)
        tasks_b = expand_grid([("a", {}), ("b", {})], repetitions=4, base_seed=7)
        assert [t.seed for t in tasks_a] == [t.seed for t in tasks_b]
        assert len({t.seed for t in tasks_a}) == len(tasks_a)

    def test_params_copied(self):
        params = {"x": 1}
        tasks = expand_grid([("a", params)], repetitions=1, base_seed=0)
        tasks[0].params["x"] = 99
        assert params["x"] == 1


class TestRunSweep:
    def test_serial_execution(self):
        tasks = expand_grid([("a", {"x": 2}), ("b", {"x": 3})], repetitions=2, base_seed=1)
        records = run_sweep(square_task, tasks, n_jobs=1)
        assert len(records) == 4
        assert {r["value"] for r in records} == {4, 9}
        # Bookkeeping fields injected.
        assert all("key" in r and "repetition" in r and "seed" in r for r in records)

    def test_order_preserved(self):
        tasks = expand_grid([(i, {"x": i}) for i in range(5)], repetitions=1, base_seed=2)
        records = run_sweep(square_task, tasks, n_jobs=1)
        assert [r["key"] for r in records] == list(range(5))

    def test_invalid_n_jobs(self):
        with pytest.raises(ValueError):
            run_sweep(square_task, [], n_jobs=0)

    def test_empty_tasks(self):
        assert run_sweep(square_task, [], n_jobs=1) == []

    @pytest.mark.skipif(os.cpu_count() is None or os.cpu_count() < 2, reason="needs >=2 CPUs")
    def test_parallel_matches_serial(self):
        tasks = expand_grid([(i, {"x": i}) for i in range(6)], repetitions=2, base_seed=3)
        serial = run_sweep(square_task, tasks, n_jobs=1)
        parallel = run_sweep(square_task, tasks, n_jobs=2)
        assert [r["value"] for r in serial] == [r["value"] for r in parallel]
        assert [r["seed"] for r in serial] == [r["seed"] for r in parallel]

    @pytest.mark.skipif(os.cpu_count() is None or os.cpu_count() < 2, reason="needs >=2 CPUs")
    def test_parallel_chunked_window(self):
        tasks = expand_grid([(i, {"x": i}) for i in range(9)], repetitions=1, base_seed=4)
        records = run_sweep(square_task, tasks, n_jobs=2, window=2)
        assert [r["key"] for r in records] == list(range(9))

    def test_invalid_window(self):
        tasks = expand_grid([(i, {"x": i}) for i in range(3)], repetitions=1, base_seed=4)
        with pytest.raises(ValueError):
            run_sweep(square_task, tasks, n_jobs=2, window=0)


class TestSeedStability:
    """Regression: seeds derive from the configuration key, not its index."""

    def test_stable_key_hash_is_deterministic(self):
        assert stable_key_hash(("a", 1)) == stable_key_hash(("a", 1))
        assert stable_key_hash(("a", 1)) != stable_key_hash(("a", 2))
        # Tuples and lists canonicalize identically (both become JSON arrays).
        assert stable_key_hash(("a", 1)) == stable_key_hash(["a", 1])

    def test_adding_a_configuration_keeps_other_seeds(self):
        small = expand_grid([("a", {}), ("c", {})], repetitions=2, base_seed=7)
        large = expand_grid([("a", {}), ("b", {}), ("c", {})], repetitions=2, base_seed=7)
        seeds_of = lambda tasks, key: [t.seed for t in tasks if t.key == key]
        assert seeds_of(small, "a") == seeds_of(large, "a")
        assert seeds_of(small, "c") == seeds_of(large, "c")

    def test_reordering_configurations_keeps_seeds(self):
        forward = expand_grid([("a", {}), ("b", {})], repetitions=3, base_seed=1)
        backward = expand_grid([("b", {}), ("a", {})], repetitions=3, base_seed=1)
        by_key = lambda tasks: {
            (t.key, t.repetition): t.seed for t in tasks
        }
        assert by_key(forward) == by_key(backward)


class TestSchedulerHooks:
    def test_progress_serial(self):
        tasks = expand_grid([(i, {"x": i}) for i in range(3)], repetitions=1, base_seed=5)
        seen = []
        run_sweep(square_task, tasks, n_jobs=1, progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_on_result_replacement(self):
        tasks = expand_grid([(i, {"x": i}) for i in range(2)], repetitions=1, base_seed=5)

        def stamp(index, task, record):
            return {**record, "stamped": True}

        records = run_sweep(square_task, tasks, n_jobs=1, on_result=stamp)
        assert all(r["stamped"] for r in records)

    @pytest.mark.skipif(os.cpu_count() is None or os.cpu_count() < 2, reason="needs >=2 CPUs")
    def test_progress_and_on_result_parallel(self):
        tasks = expand_grid([(i, {"x": i}) for i in range(5)], repetitions=1, base_seed=6)
        seen, collected = [], []

        def collect(index, task, record):
            collected.append(index)
            return None

        run_sweep(
            square_task,
            tasks,
            n_jobs=2,
            progress=lambda d, t: seen.append((d, t)),
            on_result=collect,
        )
        assert [d for d, _ in seen] == [1, 2, 3, 4, 5]
        assert all(t == 5 for _, t in seen)
        assert sorted(collected) == list(range(5))

    def test_fail_fast_serial(self):
        tasks = expand_grid([(i, {"x": i}) for i in range(6)], repetitions=1, base_seed=7)
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(failing_task, tasks, n_jobs=1)

    @pytest.mark.skipif(os.cpu_count() is None or os.cpu_count() < 2, reason="needs >=2 CPUs")
    def test_fail_fast_parallel(self):
        tasks = expand_grid([(i, {"x": i}) for i in range(8)], repetitions=1, base_seed=7)
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(failing_task, tasks, n_jobs=2, window=2)

    @pytest.mark.skipif(os.cpu_count() is None or os.cpu_count() < 2, reason="needs >=2 CPUs")
    def test_fail_fast_parallel_keeps_exception_type(self):
        tasks = expand_grid([(i, {"x": i}) for i in range(8)], repetitions=1, base_seed=7)
        with pytest.raises(ValueError, match="bad input x=2"):
            run_sweep(value_error_task, tasks, n_jobs=2, window=2)
        # The aborted pool's workers are killed and reaped, not left running.
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(os.cpu_count() is None or os.cpu_count() < 2, reason="needs >=2 CPUs")
    def test_backend_env_propagates_to_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        tasks = expand_grid([(i, {}) for i in range(2)], repetitions=1, base_seed=8)
        records = run_sweep(env_task, tasks, n_jobs=2)
        assert all(r["threads"] == "3" for r in records)

    @pytest.mark.skipif(os.cpu_count() is None or os.cpu_count() < 2, reason="needs >=2 CPUs")
    def test_scoped_overrides_reach_spawned_workers(self):
        """``backends.use`` in the parent holds in workers that do not
        inherit its memory (the ``spawn`` start method)."""
        from repro.engine import backends

        tasks = expand_grid([(i, {}) for i in range(2)], repetitions=1, base_seed=9)
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            with backends.use(backends.NumpyBackend()):
                records = run_sweep(execution_task, tasks, n_jobs=2)
        finally:
            multiprocessing.set_start_method(previous, force=True)
        assert [r["backend"] for r in records] == ["numpy"] * 2
