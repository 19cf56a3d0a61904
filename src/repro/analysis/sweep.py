"""Parameter sweeps: work items, stable seeds and the fail-fast runner.

Experiments are embarrassingly parallel across (configuration, repetition)
pairs.  :func:`expand_grid` turns a grid into :class:`SweepTask` work items
and :func:`run_sweep` executes them: in-process for ``n_jobs == 1`` (or a
single task), otherwise on the process pool of
:func:`repro.analysis.supervisor.run_supervised_sweep`, the library's one
scheduler, with a zero retry budget and a failure hook that re-raises the
worker's own exception.  Work items must be picklable, which is why the sweep
operates on *task functions* defined at module level plus plain-data task
descriptions rather than on closures.

Seeds are derived from a *stable hash of the configuration key* (not the
configuration's position in the grid), so adding or removing one configuration
never reshuffles the seeds — and therefore the trajectories — of the others.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..engine.rng import derive_seed
from ..io.results import canonical_json

__all__ = [
    "SweepTask",
    "run_sweep",
    "expand_grid",
    "stable_key_hash",
    "canonical_json",
]

#: Called after every completed task with ``(index, task, record)``; may return
#: a replacement record (the store returns the JSON-round-tripped one so the
#: in-memory view matches what resumed runs will load from disk).
ResultHook = Callable[[int, "SweepTask", Dict[str, Any]], Optional[Dict[str, Any]]]

#: Called with ``(done, total)`` after every completed task.
ProgressHook = Callable[[int, int], None]


@dataclass(frozen=True)
class SweepTask:
    """One unit of work in a parameter sweep.

    Attributes
    ----------
    key:
        Arbitrary (hashable, picklable) identifier of the configuration; it is
        copied into the result record.
    params:
        Keyword arguments handed to the task function.
    repetition:
        Index of the repetition for this configuration.
    seed:
        Seed for this (configuration, repetition) pair.
    """

    key: Any
    params: Dict[str, Any]
    repetition: int
    seed: int


def stable_key_hash(key: Any) -> int:
    """Map a configuration key to a stable 63-bit integer.

    Stable across processes and Python versions (unlike the salted builtin
    ``hash``): the key is canonically JSON-serialized and SHA-256 hashed.
    """
    digest = hashlib.sha256(canonical_json(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63 - 1)


def expand_grid(
    configurations: Sequence[Tuple[Any, Dict[str, Any]]],
    repetitions: int,
    base_seed: Optional[int],
) -> List[SweepTask]:
    """Expand (key, params) configurations into per-repetition tasks.

    Seeds are derived deterministically from ``base_seed``, a stable hash of
    the configuration *key* and the repetition index.  Because the key (not
    the grid position) identifies the configuration, inserting or removing a
    configuration leaves every other configuration's seeds — and therefore
    its simulated trajectories — untouched.
    """
    if repetitions <= 0:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    tasks: List[SweepTask] = []
    for key, params in configurations:
        key_hash = stable_key_hash(key)
        for repetition in range(repetitions):
            seed = derive_seed(base_seed, key_hash, repetition)
            tasks.append(
                SweepTask(key=key, params=dict(params), repetition=repetition, seed=seed)
            )
    return tasks


def _run_one(task_fn: Callable[[SweepTask], Dict[str, Any]], task: SweepTask) -> Dict[str, Any]:
    record = task_fn(task)
    record.setdefault("key", task.key)
    record.setdefault("repetition", task.repetition)
    record.setdefault("seed", task.seed)
    return record


def _notify(
    records: List[Optional[Dict[str, Any]]],
    index: int,
    task: SweepTask,
    record: Dict[str, Any],
    on_result: Optional[ResultHook],
) -> None:
    if on_result is not None:
        replacement = on_result(index, task, record)
        if replacement is not None:
            record = replacement
    records[index] = record


def run_sweep(
    task_fn: Callable[[SweepTask], Dict[str, Any]],
    tasks: Sequence[SweepTask],
    *,
    n_jobs: int = 1,
    progress: Optional[ProgressHook] = None,
    on_result: Optional[ResultHook] = None,
    window: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Execute ``task_fn`` for every task, in-process or over a process pool.

    Parameters
    ----------
    task_fn:
        A module-level function mapping a :class:`SweepTask` to a plain-dict
        result record (it must be picklable for ``n_jobs > 1``).
    tasks:
        The work items, typically produced by :func:`expand_grid`.
    n_jobs:
        Number of worker processes; ``1`` (default) runs in-process, which is
        also the fallback whenever only one task exists.  Above one, the
        tasks run on :func:`~repro.analysis.supervisor.run_supervised_sweep`
        with no retries.
    progress:
        Optional ``(done, total)`` callback, fired after every completion in
        completion order.
    on_result:
        Optional ``(index, task, record)`` hook fired the moment a task
        finishes (before the sweep as a whole completes); a non-``None``
        return value replaces the record in the returned list.  The result
        store uses this for incremental JSONL persistence.
    window:
        Maximum number of tasks submitted to the pool at once (chunked
        submission); defaults to ``max(4 * n_jobs, 16)``.  Bounding the
        window keeps memory flat for very large grids.

    Returns
    -------
    list of dict
        One record per task, in task order (regardless of completion order).

    Raises
    ------
    Exception
        The first task error is re-raised immediately (fail-fast), with the
        worker's own exception type; the pool's workers are killed.
    """
    tasks = list(tasks)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be at least 1, got {n_jobs}")
    total = len(tasks)
    if n_jobs > 1 and total > 1:
        # Imported here because the supervisor builds on this module.
        from .supervisor import RetryPolicy, run_supervised_sweep

        def reraise(index: int, task: SweepTask, failure) -> None:
            raise failure.error

        records, _ = run_supervised_sweep(
            task_fn,
            tasks,
            n_jobs=n_jobs,
            policy=RetryPolicy(max_retries=0),
            progress=progress,
            on_result=on_result,
            on_failure=reraise,
            window=window,
        )
        return records
    records = [None] * total
    for index, task in enumerate(tasks):
        _notify(records, index, task, _run_one(task_fn, task), on_result)
        if progress is not None:
            progress(index + 1, total)
    return records
