"""Declarative scenario registry driving the resumable sweep engine.

Every reproduced figure/table and every extension experiment is described by
one :class:`ScenarioSpec` — a declarative bundle of

* the sweep **grid** (a function from a config object to ``(key, params)``
  configurations),
* the picklable **task function** executed per (configuration, repetition),
* the **aggregation** recipe (``group_by`` + ``metrics``, or a custom
  aggregate), plus optional record-preparation and finalize hooks for the
  experiment-specific derived columns and metadata,
* one **config value** per profile: the library default, the CLI quick
  scale and the tiny ``--smoke`` scale, and
* **render hints** for the ASCII plots.

New workloads therefore become *data*: registering a spec is enough to make
an experiment runnable through :func:`run_scenario`, the ``repro scenarios``
CLI, the combined report builder and the on-disk result store — including
``--resume`` after an interrupted sweep.  :func:`run_scenario` is the one way
to run an experiment; with no config it uses the spec's library-scale
default.  A sweep's result metadata starts from its config's fields
(``dataclasses.asdict``), so every result names the settings that made it.
"""

from __future__ import annotations

import importlib
from dataclasses import asdict, dataclass, is_dataclass, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis.supervisor import (
    RetryPolicy,
    SweepReport,
    TaskFailure,
    run_supervised_sweep,
)
from ..analysis.sweep import SweepTask, expand_grid, run_sweep
from ..engine import backends
from ..engine.chaos import ChaosSpec, FaultPlan, corrupt_last_line
from ..io.store import ResultStore, StoreEntry, config_hash
from .runner import ExperimentResult, aggregate_records

__all__ = [
    "ScenarioSpec",
    "register",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "resolve_config",
    "run_scenario",
]

#: (key, params) pairs as consumed by :func:`repro.analysis.sweep.expand_grid`.
Configurations = List[Tuple[Any, Dict[str, Any]]]


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one experiment scenario.

    Attributes
    ----------
    name:
        Registry / CLI name (e.g. ``"figure1"``, ``"density"``).
    result_name:
        ``ExperimentResult.name`` (kept distinct for historical names such as
        ``density_sweep``); controls the output file names.
    description:
        One-line description copied into the result.
    task:
        Module-level task function (picklable for process pools).
    grid:
        ``config -> [(key, params), ...]`` building the sweep grid.
    default_config:
        Library-scale config (the ``"default"`` profile, used by
        :func:`run_scenario` when called without a config).
    cli_config:
        Config at the CLI quick scale (the ``"cli"`` profile,
        ``repro scenarios run``); ``None`` runs the default config.
    smoke_config:
        Config at the tiny ``--smoke`` scale (the ``"smoke"`` profile).
    group_by / metrics:
        Default aggregation recipe (``aggregate_records``).
    prepare_records:
        Optional hook mutating the raw records before aggregation (e.g.
        unpacking composite keys into columns).
    aggregate:
        Optional full replacement for the default aggregation
        (``(records, config) -> rows``).
    finalize:
        Optional hook ``(rows, records, config) -> extra_metadata`` run after
        aggregation; may mutate rows (derived columns) and returns metadata
        entries (fit constants, growth summaries, ...).
    columns:
        Preferred column order for rendered tables.
    render:
        ASCII-plot hints (``x``, ``y``, ``group_by``, ``log_x``) or ``None``.
    run_override:
        Full bypass for non-sweep scenarios (Table 1's deterministic
        constants); receives the resolved config and returns the result.
    """

    name: str
    result_name: str
    description: str
    task: Optional[Callable[[SweepTask], Dict[str, Any]]] = None
    grid: Optional[Callable[[Any], Configurations]] = None
    default_config: Any = None
    cli_config: Any = None
    smoke_config: Any = None
    group_by: Tuple[str, ...] = ()
    metrics: Tuple[str, ...] = ()
    prepare_records: Optional[Callable[[List[Dict[str, Any]], Any], None]] = None
    aggregate: Optional[Callable[[List[Dict[str, Any]], Any], List[Dict[str, Any]]]] = None
    finalize: Optional[
        Callable[[List[Dict[str, Any]], List[Dict[str, Any]], Any], Optional[Dict[str, Any]]]
    ] = None
    columns: Optional[Tuple[str, ...]] = None
    render: Optional[Mapping[str, Any]] = None
    run_override: Optional[Callable[[Any], ExperimentResult]] = None


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, ScenarioSpec] = {}

#: Experiment modules that register scenario specs at import time.
_SCENARIO_MODULES = (
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "table1",
    "density_sweep",
    "broadcast_vs_gossip",
    "ablation_parameters",
    "ablation_redundancy",
    "leader_election_cost",
    "graph_models",
    "scale",
    "push_sum",
    "churn",
)


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add ``spec`` to the registry (idempotent per name); returns it."""
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_registered() -> None:
    """Import every experiment module so its spec registration runs."""
    for module in _SCENARIO_MODULES:
        importlib.import_module(f"{__package__}.{module}")


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by registry name."""
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None


def scenario_names() -> List[str]:
    """Sorted names of all registered scenarios."""
    _ensure_registered()
    return sorted(_REGISTRY)


def all_scenarios() -> List[ScenarioSpec]:
    """All registered specs, sorted by name."""
    _ensure_registered()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #
def resolve_config(
    spec: ScenarioSpec,
    *,
    config: Any = None,
    seed: Optional[int] = None,
    profile: str = "default",
) -> Any:
    """Resolve the config object for a scenario run.

    ``config`` wins when given; otherwise the spec's config for ``profile``
    (``"default"``, ``"cli"`` or ``"smoke"``) is used, or its default config
    when it declares none for that profile.  A given ``seed`` replaces the
    config's seed field.  An unknown profile raises :class:`ValueError`.
    """
    profiles = {"default": spec.default_config, "cli": spec.cli_config, "smoke": spec.smoke_config}
    if profile not in profiles:
        raise ValueError(f"unknown config profile {profile!r}; expected one of {tuple(profiles)}")
    if config is None:
        config = profiles[profile]
        if config is None:
            config = spec.default_config
    if seed is not None and hasattr(config, "seed"):
        config = replace(config, seed=seed)
    return config


def _task_pair(task: SweepTask) -> Tuple[str, int]:
    return (config_hash(task.key, task.params), task.repetition)


def run_scenario(
    scenario: Any,
    *,
    config: Any = None,
    seed: Optional[int] = None,
    profile: str = "default",
    n_jobs: int = 1,
    store: Optional[ResultStore] = None,
    read_store: Optional[Any] = None,
    resume: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
    supervise: bool = False,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[Any] = None,
) -> ExperimentResult:
    """Run one scenario through the sweep engine and aggregate its result.

    Parameters
    ----------
    scenario:
        A :class:`ScenarioSpec` or a registry name.
    config:
        Config object; defaults to the spec's config for ``profile`` (see
        :func:`resolve_config`).
    seed:
        Optional base-seed override.
    profile:
        ``"default"`` (library scale), ``"cli"`` (quick CLI scale) or
        ``"smoke"`` (tiny CI scale) when no explicit config is given; any
        other name raises :class:`ValueError`.
    n_jobs:
        Worker processes.
    store:
        Optional :class:`~repro.io.store.ResultStore`; every completed
        (configuration, repetition) record is appended to it the moment it
        finishes, and aggregation reads the JSON-round-tripped records so
        fresh and resumed runs are record-identical.  The store doubles as a
        read-through cache: pairs already persisted (with matching derived
        seeds) are served without executing any simulation, and
        ``metadata["cache"]`` reports ``total`` / ``hits`` /
        ``primary_hits`` / ``secondary_hits`` / ``executed``.
    read_store:
        Optional secondary *read-only* cache (a :class:`ResultStore` or the
        path of an existing store directory) — e.g. a team-shared result
        store.  Requires ``store``; a path that is not a directory raises
        :class:`ValueError` and creates nothing.  Pairs missing from the
        primary store but present in the secondary (same config hash,
        repetition and derived seed) are copied into the primary store
        instead of being executed; quarantined failures and corrupt lines in
        the secondary never satisfy a hit.
    resume:
        With ``store``: skip pairs already persisted.  Without ``resume``,
        a store that already holds records for this scenario is an error
        (pass ``resume=True`` or point at a fresh store).
    progress:
        ``(done, total)`` callback over the *executed* tasks.
    supervise:
        Execute through the fault-tolerant supervisor
        (:func:`repro.analysis.supervisor.run_supervised_sweep`): task
        failures are retried with seeded backoff, dead worker pools are
        respawned, poison configurations are quarantined (persisted as
        structured failure entries when a store is given) and the resulting
        :class:`~repro.analysis.supervisor.SweepReport` lands in
        ``metadata["sweep_report"]``.  Implied by ``policy`` or ``chaos``.
    policy:
        The supervisor's :class:`~repro.analysis.supervisor.RetryPolicy`.
    chaos:
        A :class:`~repro.engine.chaos.FaultPlan` or
        :class:`~repro.engine.chaos.ChaosSpec` of deterministically injected
        faults (a spec is materialized against the full task grid, so the
        plan is stable across resumed runs).

    Returns
    -------
    ExperimentResult
        Aggregated rows, raw records (in deterministic task order) and
        metadata.  Quarantined pairs are absent from the records (the sweep
        is degraded, not aborted).  A sweep's metadata holds the config's
        fields (``dataclasses.asdict``) and the finalize hook's entries.
        ``metadata["execution"]`` is the active
        kernel backend's ``describe()``: its name, whether the compiled
        kernels run, the thread budget, the C-kernel status and the SIMD
        level.
    """
    spec = scenario if isinstance(scenario, ScenarioSpec) else get_scenario(scenario)
    config = resolve_config(spec, config=config, seed=seed, profile=profile)

    if spec.run_override is not None:
        result = spec.run_override(config)
        result.metadata["execution"] = backends.active().describe()
        return result

    if spec.task is None or spec.grid is None:
        raise ValueError(f"scenario {spec.name!r} defines neither a sweep nor a run override")

    configurations = spec.grid(config)
    repetitions = int(getattr(config, "repetitions", 1))
    base_seed = getattr(config, "seed", None)
    tasks = expand_grid(configurations, repetitions, base_seed)
    pairs = [_task_pair(task) for task in tasks]

    supervised = supervise or policy is not None or chaos is not None
    plan: Optional[FaultPlan] = None
    if chaos is not None:
        plan = chaos.materialize(pairs) if isinstance(chaos, ChaosSpec) else chaos
    report: Optional[SweepReport] = None

    def execute(
        exec_tasks: List[SweepTask],
        exec_pairs: List[Tuple[str, int]],
        on_result,
        on_failure,
    ) -> List[Optional[Dict[str, Any]]]:
        nonlocal report
        if supervised:
            exec_records, report = run_supervised_sweep(
                spec.task,
                exec_tasks,
                n_jobs=n_jobs,
                policy=policy,
                chaos=plan,
                pairs=exec_pairs,
                progress=progress,
                on_result=on_result,
                on_failure=on_failure,
            )
            return exec_records
        return run_sweep(
            spec.task, exec_tasks, n_jobs=n_jobs, progress=progress, on_result=on_result
        )

    if read_store is not None:
        if store is None:
            raise ValueError("read_store requires a primary store to copy hits into")
        if not isinstance(read_store, ResultStore) and not Path(read_store).is_dir():
            raise ValueError(f"read_store {read_store} is not a directory")

    if store is not None:
        completed = store.completed_entries(spec.name)
        # Any pre-existing record (or quarantine failure) is a conflict
        # without resume — even from a different grid/scale, since the
        # scenario file would mix result sets.
        if not resume and (completed or store.failures(spec.name)):
            raise RuntimeError(
                f"store already holds records for scenario {spec.name!r}; "
                "pass resume=True (--resume) to continue, or use a fresh store"
            )
        secondary: Dict[Tuple[str, int], StoreEntry] = {}
        if read_store is not None:
            if not isinstance(read_store, ResultStore):
                read_store = ResultStore(read_store)
            # completed_entries already excludes quarantined failures and
            # CRC-skipped corrupt lines — those never satisfy a cache hit.
            secondary = read_store.completed_entries(spec.name)
        by_pair: Dict[Tuple[str, int], Dict[str, Any]] = {}
        pending: List[SweepTask] = []
        pending_pairs: List[Tuple[str, int]] = []
        primary_hits = 0
        secondary_hits = 0
        for task, pair in zip(tasks, pairs):
            entry = completed.get(pair)
            if entry is not None:
                if int(entry["seed"]) != task.seed:
                    # A pair persisted under a different base seed is stale,
                    # not resumable: serving it would mix seeds silently.
                    raise RuntimeError(
                        f"store record for scenario {spec.name!r} (config {pair[0]}, "
                        f"repetition {pair[1]}) was produced with seed {entry['seed']}, "
                        f"but this sweep derives seed {task.seed}; rerun with the "
                        "original base seed or use a fresh store"
                    )
                by_pair[pair] = entry["record"]
                primary_hits += 1
                continue
            shared = secondary.get(pair)
            if shared is not None and int(shared["seed"]) == task.seed:
                # Read-through: copy the shared record into the primary store
                # so later runs hit locally.  A seed mismatch is a plain miss
                # (the secondary store is someone else's cache, not an error).
                by_pair[pair] = store.append(
                    spec.name,
                    key=task.key,
                    params=task.params,
                    repetition=task.repetition,
                    seed=task.seed,
                    record=shared["record"],
                )
                secondary_hits += 1
                continue
            pending.append(task)
            pending_pairs.append(pair)

        def persist(index: int, task: SweepTask, record: Dict[str, Any]) -> Dict[str, Any]:
            pair = _task_pair(task)
            stored = store.append(
                spec.name,
                key=task.key,
                params=task.params,
                repetition=task.repetition,
                seed=task.seed,
                record=record,
            )
            if plan is not None and plan.store_faults(pair):
                # Chaos: garble the just-written line in place.  The in-memory
                # record stays good for this run; a later scan must skip and
                # report the corrupt line and resume must re-run the pair.
                corrupt_last_line(store.path_for(spec.name))
            by_pair[pair] = stored
            return stored

        def persist_failure(index: int, task: SweepTask, failure: TaskFailure) -> None:
            store.append_failure(
                spec.name,
                key=task.key,
                params=task.params,
                repetition=task.repetition,
                seed=task.seed,
                failure=failure.to_jsonable(),
            )

        execute(pending, pending_pairs, persist, persist_failure if supervised else None)
        records = [by_pair[pair] for pair in pairs if pair in by_pair]
        cache_info: Optional[Dict[str, int]] = {
            "total": len(tasks),
            "hits": primary_hits + secondary_hits,
            "primary_hits": primary_hits,
            "secondary_hits": secondary_hits,
            "executed": len(pending),
        }
    else:
        records = execute(tasks, pairs, None, None)
        cache_info = None

    records = [record for record in records if record is not None]
    if spec.prepare_records is not None:
        spec.prepare_records(records, config)
    if spec.aggregate is not None:
        rows = spec.aggregate(records, config)
    else:
        rows = aggregate_records(records, spec.group_by, spec.metrics)
    metadata: Dict[str, Any] = asdict(config) if is_dataclass(config) else {}
    metadata["execution"] = backends.active().describe()
    if cache_info is not None:
        metadata["cache"] = cache_info
        if report is not None:
            report.cache_hits = cache_info["hits"]
            report.executed = cache_info["executed"]
    if report is not None:
        metadata["sweep_report"] = report.to_jsonable()
    if spec.finalize is not None:
        extra = spec.finalize(rows, records, config)
        if extra:
            metadata.update(extra)
    return ExperimentResult(
        name=spec.result_name,
        description=spec.description,
        rows=rows,
        raw_records=records,
        metadata=metadata,
    )
