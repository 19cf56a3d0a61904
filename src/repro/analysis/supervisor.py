"""Fault-tolerant sweep scheduler: the one process pool of the library.

:func:`run_supervised_sweep` executes a sweep on a
:class:`~concurrent.futures.ProcessPoolExecutor` with chunked submission
(a bounded window of in-flight tasks) and completion streaming, and keeps it
alive through its execution layer the way the paper's gossip survives
``f = n^epsilon`` node failures:

* **per-task wall-clock timeouts** — an overdue task's worker pool is killed
  and respawned; the task is charged a ``timeout`` attempt, innocent
  in-flight tasks are requeued without charge,
* **bounded retry with exponential backoff + jitter** — the jitter stream is
  seeded per ``(key, repetition, attempt)`` through
  :func:`repro.engine.rng.derive_seed`, so retry schedules are reproducible,
* **automatic ``BrokenProcessPool`` recovery** — a worker dying (OOM-kill,
  SIGKILL, segfault) respawns the pool and requeues the in-flight tasks
  (attribution is impossible, so every in-flight task is charged one
  ``worker-crash`` attempt; repeated pool deaths therefore still terminate),
* **poison-task quarantine** — a task that keeps failing past
  ``max_retries`` becomes a structured :class:`TaskFailure` (surfaced through
  the ``on_failure`` hook and the final report) instead of an exception, so
  one poison configuration cannot abort the rest of the grid, and
* a final :class:`SweepReport` distinguishing ok / retried / quarantined
  work, making a *degraded* run an explicit, machine-readable outcome.

The fail-fast :func:`repro.analysis.sweep.run_sweep` runs on this loop too:
with ``max_retries=0`` and an ``on_failure`` hook that re-raises
:attr:`TaskFailure.error`, the worker's own exception.  The ``finally`` of
the loop kills the pool on any exceptional exit.

Execution always goes through the pool (even for ``n_jobs=1``): process
isolation is what makes kill/timeout recovery possible at all, and task
functions are already required to be picklable by the sweep contract.  A pool
initializer installs the parent's ``REPRO_*`` environment and active kernel
backend in every worker, so sweeps run the same execution path under the
``fork`` and ``spawn`` start methods.
Deterministic chaos injection (:mod:`repro.engine.chaos`) plugs in via the
``chaos`` argument; fault targets are matched by the result store's
``(config_hash, repetition)`` pair identity.
"""

from __future__ import annotations

import heapq
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..engine import backends
from ..engine.chaos import Fault, FaultPlan, inject_worker_faults
from ..engine.rng import derive_seed
from ..io.store import config_hash
from .sweep import ProgressHook, ResultHook, SweepTask, _notify, _run_one, stable_key_hash

__all__ = [
    "RetryPolicy",
    "TaskFailure",
    "SweepReport",
    "run_supervised_sweep",
]

#: Called when a task is quarantined, with ``(index, task, failure)``.
FailureHook = Callable[[int, SweepTask, "TaskFailure"], None]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry / timeout budget of a supervised sweep.

    Attributes
    ----------
    max_retries:
        Extra attempts granted after the first failure; a task is quarantined
        once it has failed ``max_retries + 1`` times.
    timeout:
        Per-task wall-clock limit in seconds (``None`` disables timeouts).
        Enforced by killing and respawning the worker pool, so it also reaps
        genuinely hung workers.
    backoff_base / backoff_factor / backoff_cap:
        Exponential backoff before a retry: attempt ``a`` (1-based) waits
        ``min(cap, base * factor**(a-1))`` seconds, scaled by jitter.
    jitter:
        Relative jitter amplitude in ``[0, 1]``: the delay is multiplied by a
        factor drawn uniformly from ``[1 - jitter, 1 + jitter]``.
    seed:
        Seed of the jitter stream.  Jitter is derived per
        ``(key, repetition, attempt)`` via :func:`derive_seed`, so the full
        retry schedule of a sweep is reproducible.
    """

    max_retries: int = 2
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 5.0
    jitter: float = 0.5
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must lie in [0, 1], got {self.jitter}")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_cap < 0:
            raise ValueError("backoff parameters must be non-negative (factor >= 1)")

    def delay_for(self, task: SweepTask, attempt: int) -> float:
        """Deterministic backoff delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be at least 1, got {attempt}")
        delay = min(self.backoff_cap, self.backoff_base * self.backoff_factor ** (attempt - 1))
        if self.jitter and delay > 0:
            import random

            unit = random.Random(
                derive_seed(self.seed, stable_key_hash(task.key), task.repetition, attempt)
            ).random()
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return max(0.0, delay)


@dataclass
class TaskFailure:
    """Structured record of a quarantined (poison) task.

    Persisted to the result store as a ``failure`` entry instead of raising,
    so a degraded sweep stays machine-readable and resumable.  ``error`` is
    the exception that ended the last attempt (the worker's own, or a
    ``BrokenProcessPool`` / ``TimeoutError``); it is not serialized.
    """

    index: int
    key: Any
    repetition: int
    seed: int
    attempts: int
    kind: str
    message: str
    history: List[Dict[str, Any]] = field(default_factory=list)
    error: Optional[BaseException] = field(default=None, repr=False, compare=False)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "key": self.key,
            "repetition": self.repetition,
            "seed": self.seed,
            "attempts": self.attempts,
            "kind": self.kind,
            "message": self.message,
            "history": list(self.history),
        }


@dataclass
class SweepReport:
    """Machine-readable outcome of a supervised sweep.

    ``ok + len(quarantined) == total`` when the sweep ran to the end; a
    nonempty ``quarantined`` list marks the run as *degraded* (the CLI exits
    nonzero on it) without having aborted the healthy part of the grid.

    ``cache_hits`` / ``executed`` are filled in by the read-through cache
    layer of :func:`repro.experiments.scenarios.run_scenario` when the sweep
    runs against a result store: ``cache_hits`` pairs were served from the
    store without any simulation and ``executed`` (== ``total``) went
    through the scheduler.
    """

    total: int = 0
    ok: int = 0
    retried: int = 0
    quarantined: List[TaskFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    pool_restarts: int = 0
    cache_hits: int = 0
    executed: int = 0

    @property
    def degraded(self) -> bool:
        """Whether any task ended up quarantined."""
        return bool(self.quarantined)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "ok": self.ok,
            "retried": self.retried,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "pool_restarts": self.pool_restarts,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "quarantined": [f.to_jsonable() for f in self.quarantined],
        }

    def summary(self) -> str:
        line = (
            f"{self.ok}/{self.total} ok, {self.retried} retried "
            f"({self.retries} retries), {len(self.quarantined)} quarantined"
        )
        extras = []
        if self.cache_hits:
            extras.append(f"{self.cache_hits} cache hits")
        if self.timeouts:
            extras.append(f"{self.timeouts} timeouts")
        if self.worker_crashes:
            extras.append(f"{self.worker_crashes} worker crashes")
        if self.pool_restarts:
            extras.append(f"{self.pool_restarts} pool restarts")
        return line + (f" [{', '.join(extras)}]" if extras else "")


def _worker_initializer(env: Dict[str, str], backend: backends.KernelBackend) -> None:
    """Install the parent's ``REPRO_*`` environment and kernel backend.

    Under the ``fork`` start method both are inherited anyway; under
    ``spawn`` (and ``forkserver``) the worker starts from a fresh
    interpreter, so this installs them before any task runs.
    """
    os.environ.update(env)
    backends.set_active(backend)


def _supervised_attempt(
    task_fn: Callable[[SweepTask], Dict[str, Any]],
    task: SweepTask,
    attempt: int,
    faults: Tuple[Fault, ...],
) -> Dict[str, Any]:
    """Worker-side wrapper: fire scheduled chaos faults, then run the task."""
    if faults:
        inject_worker_faults(faults, attempt)
    return _run_one(task_fn, task)


@dataclass
class _TaskState:
    index: int
    task: SweepTask
    attempts: int = 0
    history: List[Dict[str, Any]] = field(default_factory=list)


class _Supervisor:
    """One supervised sweep execution (see :func:`run_supervised_sweep`)."""

    def __init__(
        self,
        task_fn: Callable[[SweepTask], Dict[str, Any]],
        tasks: Sequence[SweepTask],
        *,
        n_jobs: int,
        policy: RetryPolicy,
        chaos: Optional[FaultPlan],
        pairs: Optional[Sequence[Tuple[str, int]]],
        progress: Optional[ProgressHook],
        on_result: Optional[ResultHook],
        on_failure: Optional[FailureHook],
        window: Optional[int],
    ):
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be at least 1, got {n_jobs}")
        self.task_fn = task_fn
        self.tasks = list(tasks)
        self.total = len(self.tasks)
        self.n_jobs = n_jobs
        self.policy = policy
        self.progress = progress
        self.on_result = on_result
        self.on_failure = on_failure
        self.window = window if window is not None else max(4 * n_jobs, 16)
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")
        if pairs is not None and len(pairs) != self.total:
            raise ValueError("pairs must align one-to-one with tasks")
        self.worker_faults: List[Tuple[Fault, ...]] = [()] * self.total
        if chaos is not None:
            if pairs is None:
                pairs = [(config_hash(t.key, t.params), t.repetition) for t in self.tasks]
            self.worker_faults = [chaos.worker_faults(pair) for pair in pairs]
        self.records: List[Optional[Dict[str, Any]]] = [None] * self.total
        self.report = SweepReport(total=self.total)
        self.env = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
        self.backend = backends.active()
        self.ready = deque(_TaskState(i, t) for i, t in enumerate(self.tasks))
        #: (not_before, index, state) heap of retries waiting out their backoff.
        self.delayed: List[Tuple[float, int, _TaskState]] = []
        self.in_flight: Dict[Any, _TaskState] = {}
        self.deadlines: Dict[Any, float] = {}
        self.settled = 0
        self.pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.n_jobs,
            initializer=_worker_initializer,
            initargs=(self.env, self.backend),
        )

    def _discard_pool(self, kill: bool) -> None:
        pool = self.pool
        if pool is None:
            return
        if kill:
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.kill()
                except OSError:  # pragma: no cover - process already gone
                    pass
        try:
            # wait=True joins the executor's management thread (the workers
            # are already dead after a kill, so this returns promptly) —
            # leaving it dangling trips noisy atexit errors.
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - broken pools may refuse
            pass
        self.pool = None

    def _restart_pool(self, kill: bool) -> None:
        self._discard_pool(kill)
        self.in_flight.clear()
        self.deadlines.clear()
        self.pool = self._new_pool()
        self.report.pool_restarts += 1

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def _submit(self, state: _TaskState) -> None:
        future = self.pool.submit(
            _supervised_attempt,
            self.task_fn,
            state.task,
            state.attempts,
            self.worker_faults[state.index],
        )
        self.in_flight[future] = state
        if self.policy.timeout is not None:
            self.deadlines[future] = time.monotonic() + self.policy.timeout

    def _fill(self) -> None:
        while len(self.in_flight) < self.window:
            now = time.monotonic()
            if self.delayed and self.delayed[0][0] <= now:
                state = heapq.heappop(self.delayed)[2]
            elif self.ready:
                state = self.ready.popleft()
            else:
                break
            self._submit(state)

    def _settle_ok(self, state: _TaskState, record: Dict[str, Any]) -> None:
        if state.attempts:
            self.report.retried += 1
        _notify(self.records, state.index, state.task, record, self.on_result)
        self.report.ok += 1
        self.settled += 1
        if self.progress is not None:
            self.progress(self.settled, self.total)

    def _fail_attempt(
        self, state: _TaskState, kind: str, message: str, error: BaseException
    ) -> None:
        state.history.append({"attempt": state.attempts, "kind": kind, "message": message})
        state.attempts += 1
        if state.attempts > self.policy.max_retries:
            failure = TaskFailure(
                index=state.index,
                key=state.task.key,
                repetition=state.task.repetition,
                seed=state.task.seed,
                attempts=state.attempts,
                kind=kind,
                message=message,
                history=list(state.history),
                error=error,
            )
            self.report.quarantined.append(failure)
            if self.on_failure is not None:
                self.on_failure(state.index, state.task, failure)
            self.settled += 1
            if self.progress is not None:
                self.progress(self.settled, self.total)
        else:
            self.report.retries += 1
            delay = self.policy.delay_for(state.task, state.attempts)
            heapq.heappush(self.delayed, (time.monotonic() + delay, state.index, state))

    def _requeue_uncharged(self) -> None:
        """Requeue every in-flight task unchanged, preserving index order."""
        for state in sorted(self.in_flight.values(), key=lambda s: s.index, reverse=True):
            self.ready.appendleft(state)
        self.in_flight.clear()
        self.deadlines.clear()

    def _wait_timeout(self) -> Optional[float]:
        now = time.monotonic()
        horizons = []
        if self.deadlines:
            horizons.append(min(self.deadlines.values()))
        if self.delayed and len(self.in_flight) < self.window:
            horizons.append(self.delayed[0][0])
        if not horizons:
            return None
        return max(0.0, min(horizons) - now)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> Tuple[List[Optional[Dict[str, Any]]], SweepReport]:
        if self.total == 0:
            return self.records, self.report
        self.pool = self._new_pool()
        completed_normally = False
        try:
            while self.ready or self.delayed or self.in_flight:
                self._fill()
                if not self.in_flight:
                    # Only backoff timers remain: sleep until the earliest.
                    pause = max(0.0, self.delayed[0][0] - time.monotonic())
                    time.sleep(min(pause, 0.5))
                    continue
                finished, _ = wait(
                    set(self.in_flight),
                    timeout=self._wait_timeout(),
                    return_when=FIRST_COMPLETED,
                )
                pool_broken = False
                for future in sorted(finished, key=lambda f: self.in_flight[f].index):
                    state = self.in_flight.pop(future)
                    self.deadlines.pop(future, None)
                    try:
                        record = future.result()
                    except BrokenProcessPool as error:
                        pool_broken = True
                        self.report.worker_crashes += 1
                        self._fail_attempt(
                            state, "worker-crash", str(error) or "worker process died", error
                        )
                    except Exception as error:
                        self._fail_attempt(
                            state, "error", f"{type(error).__name__}: {error}", error
                        )
                    else:
                        self._settle_ok(state, record)
                if pool_broken:
                    # The whole pool is dead; every still-in-flight task gets
                    # charged one crash attempt (which worker ran which task
                    # is unknowable) and the pool is respawned.
                    for future in sorted(
                        self.in_flight, key=lambda f: self.in_flight[f].index
                    ):
                        state = self.in_flight[future]
                        self.report.worker_crashes += 1
                        message = "process pool broke while in flight"
                        self._fail_attempt(
                            state, "worker-crash", message, BrokenProcessPool(message)
                        )
                    self._restart_pool(kill=True)
                    continue
                now = time.monotonic()
                overdue = [f for f, deadline in self.deadlines.items() if deadline <= now]
                if overdue:
                    for future in sorted(overdue, key=lambda f: self.in_flight[f].index):
                        state = self.in_flight.pop(future)
                        self.deadlines.pop(future, None)
                        self.report.timeouts += 1
                        message = f"exceeded {self.policy.timeout}s wall clock; worker killed"
                        self._fail_attempt(state, "timeout", message, TimeoutError(message))
                    # Timeouts are enforced by killing the pool, so requeue
                    # the innocent in-flight tasks without charging them.
                    self._requeue_uncharged()
                    self._restart_pool(kill=True)
            completed_normally = True
        finally:
            # Normal completion leaves an idle, healthy pool: shut it down
            # gracefully.  On an exceptional exit (KeyboardInterrupt, or a
            # fail-fast hook re-raising a task error) kill the workers so
            # chaos hangs or stuck tasks cannot block us.
            self._discard_pool(kill=not completed_normally)
        return self.records, self.report


def run_supervised_sweep(
    task_fn: Callable[[SweepTask], Dict[str, Any]],
    tasks: Sequence[SweepTask],
    *,
    n_jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[FaultPlan] = None,
    pairs: Optional[Sequence[Tuple[str, int]]] = None,
    progress: Optional[ProgressHook] = None,
    on_result: Optional[ResultHook] = None,
    on_failure: Optional[FailureHook] = None,
    window: Optional[int] = None,
) -> Tuple[List[Optional[Dict[str, Any]]], SweepReport]:
    """Execute a sweep under supervision; never raises on task failure.

    ``task_fn``, ``tasks``, ``n_jobs``, ``progress``, ``on_result`` and
    ``window`` are as for :func:`repro.analysis.sweep.run_sweep`; the
    additions:

    policy:
        The :class:`RetryPolicy` (retry budget, backoff, per-task timeout).
    chaos:
        Optional :class:`~repro.engine.chaos.FaultPlan` of injected faults.
    pairs:
        Optional pre-computed ``(config_hash, repetition)`` pair per task
        (chaos target identity); derived from the tasks when a chaos plan
        needs them and none are given.
    on_failure:
        Hook fired with ``(index, task, failure)`` when a task is quarantined
        (the scenario engine persists a structured failure entry here; an
        exception it raises aborts the sweep and kills the pool).

    Returns
    -------
    (records, report):
        ``records`` has one entry per task in task order, ``None`` where the
        task was quarantined; ``report`` is the :class:`SweepReport`.
    """
    supervisor = _Supervisor(
        task_fn,
        tasks,
        n_jobs=n_jobs,
        policy=policy or RetryPolicy(),
        chaos=chaos,
        pairs=pairs,
        progress=progress,
        on_result=on_result,
        on_failure=on_failure,
        window=window,
    )
    return supervisor.run()
