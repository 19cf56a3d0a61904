"""Shared machinery of the experiment harness.

Every experiment (one per paper table/figure plus the extensions) is expressed
as a sweep over (configuration, repetition) pairs, declared as a
:class:`~repro.experiments.scenarios.ScenarioSpec` in its module and executed
by :func:`~repro.experiments.scenarios.run_scenario`.  This module provides
the spec-independent building blocks:

* a protocol factory mapping protocol names to configured protocol objects,
* the picklable task functions executed for each pair (so sweeps can run on a
  process pool),
* :func:`aggregate_records`, the default group-and-average aggregation
  (re-exported from :mod:`repro.analysis.statistics`, where it is shared
  with the store's SQLite query index), and
* :class:`ExperimentResult`, the uniform result container with helpers for
  rendering and persistence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.statistics import aggregate_records
from ..analysis.sweep import SweepTask, stable_key_hash
from ..core.fast_gossiping import FastGossiping
from ..core.memory_gossiping import MemoryGossiping
from ..core.parameters import (
    FastGossipingParameters,
    MemoryGossipingParameters,
    PushPullParameters,
    tuned_fast_gossiping,
    tuned_memory_gossiping,
)
from ..core.push_pull import PushPullGossip
from ..core.push_sum import PushSumGossip, PushSumParameters
from ..core.results import GossipResult
from ..engine.event_clock import sample_churn_plan
from ..engine.failures import NO_FAILURES, sample_uniform_failures
from ..engine.metrics import MessageAccounting
from ..engine.rng import derive_seed
from ..graphs.generators import GraphSpec, make_graph
from ..io.results import save_csv, save_json
from ..io.tables import format_records

__all__ = [
    "PROTOCOL_NAMES",
    "ALL_PROTOCOL_NAMES",
    "make_protocol",
    "run_gossip",
    "gossip_task",
    "robustness_task",
    "push_sum_task",
    "churn_task",
    "spread_monotone",
    "ExperimentResult",
    "aggregate_records",
]

#: Names of the gossiping protocols compared in the paper's Figure 1.
PROTOCOL_NAMES = ("push-pull", "fast-gossiping", "memory")

#: All protocols :func:`make_protocol` can build (Figure 1 set plus the
#: push-sum aggregation workload).
ALL_PROTOCOL_NAMES = PROTOCOL_NAMES + ("push-sum",)


def make_protocol(
    name: str,
    *,
    protocol_options: Optional[Mapping[str, Any]] = None,
):
    """Instantiate a gossiping protocol by name.

    Parameters
    ----------
    name:
        ``"push-pull"``, ``"fast-gossiping"``, ``"memory"`` or
        ``"push-sum"``.
    protocol_options:
        Keyword overrides for the protocol's parameter dataclass
        (e.g. ``{"walk_probability_factor": 2.0}`` for fast-gossiping,
        ``{"num_trees": 3, "gather_only": True, "leader": 0}`` for memory,
        or ``{"clock": "event"}`` for push-pull / push-sum).
    """
    options = dict(protocol_options or {})
    if name == "push-pull":
        params = PushPullParameters(**options) if options else PushPullParameters()
        return PushPullGossip(params)
    if name == "push-sum":
        params = PushSumParameters(**options) if options else PushSumParameters()
        return PushSumGossip(params)
    if name == "fast-gossiping":
        params = tuned_fast_gossiping()
        if options:
            params = params.with_overrides(**options)
        return FastGossiping(params)
    if name == "memory":
        leader = options.pop("leader", None)
        gather_only = bool(options.pop("gather_only", False))
        elect_leader = bool(options.pop("elect_leader", False))
        params = tuned_memory_gossiping()
        if options:
            params = params.with_overrides(**options)
        return MemoryGossiping(
            params, leader=leader, elect_leader=elect_leader, gather_only=gather_only
        )
    raise ValueError(
        f"unknown protocol {name!r}; expected one of {ALL_PROTOCOL_NAMES}"
    )


# --------------------------------------------------------------------------- #
# Task functions (module level so they are picklable for process pools)
# --------------------------------------------------------------------------- #
def run_gossip(task: SweepTask) -> Tuple[Dict[str, Any], GossipResult]:
    """Run one gossiping protocol once; return its sweep record and result.

    Expected task params: ``graph_spec`` (dict), ``protocol`` (name) and
    optional ``protocol_options`` (dict).
    """
    params = task.params
    spec = GraphSpec.from_dict(params["graph_spec"])
    graph = make_graph(spec, rng=task.seed)
    protocol = make_protocol(
        params["protocol"], protocol_options=params.get("protocol_options")
    )
    result = protocol.run(graph, rng=task.seed + 1)
    record = {
        "n": spec.n,
        "graph": spec.describe(),
        "mean_degree": graph.mean_degree(),
        "protocol": params["protocol"],
        "completed": result.completed,
        "rounds": result.rounds,
        "messages_per_node": result.messages_per_node(MessageAccounting.PACKETS),
        "opens_per_node": result.messages_per_node(MessageAccounting.OPENS),
        "strict_cost_per_node": result.messages_per_node(
            MessageAccounting.OPENS_AND_PACKETS
        ),
    }
    return record, result


def gossip_task(task: SweepTask) -> Dict[str, Any]:
    """The :func:`run_gossip` record; the task of the size/density sweeps."""
    return run_gossip(task)[0]


def robustness_task(task: SweepTask) -> Dict[str, Any]:
    """Run the memory model with crash failures before Phase II.

    Expected task params: ``graph_spec`` (dict), ``failed`` (int, number of
    failed nodes), ``num_trees`` (int), optional ``leader`` (int).
    """
    params = task.params
    spec = GraphSpec.from_dict(params["graph_spec"])
    graph = make_graph(spec, rng=task.seed)
    leader = int(params.get("leader", 0))
    failed_count = int(params["failed"])
    protocol = make_protocol(
        "memory",
        protocol_options={
            "num_trees": int(params.get("num_trees", 3)),
            "leader": leader,
            "gather_only": True,
        },
    )
    failures = (
        sample_uniform_failures(
            spec.n, failed_count, rng=task.seed + 7, protect=[leader]
        )
        if failed_count
        else NO_FAILURES
    )
    result = protocol.run(graph, rng=task.seed + 1, failures=failures)
    lost = int(result.extras["lost_messages"])
    return {
        "n": spec.n,
        "failed": failed_count,
        "num_trees": int(params.get("num_trees", 3)),
        "additional_lost": lost,
        "loss_ratio": (lost / failed_count) if failed_count else 0.0,
        "messages_per_node": result.messages_per_node(MessageAccounting.PACKETS),
        "rounds": result.rounds,
    }


def spread_monotone(spread: Sequence[float], tolerance: float = 1e-12) -> bool:
    """True when the spread series never increases beyond float rounding.

    Push-sum's exact-arithmetic guarantee; the tolerance absorbs the
    ``~1e-16``-scale wobble double rounding can introduce per step.
    """
    return all(b <= a + tolerance for a, b in zip(spread, spread[1:]))


def push_sum_task(task: SweepTask) -> Dict[str, Any]:
    """Run push-sum averaging once under a configured clock.

    Expected task params: ``graph_spec`` (dict), ``clock`` (``"sync"`` /
    ``"event"``), ``base_seed`` and optional ``tolerance``.  The simulation
    seed derives from the size alone (not the configuration key, which
    includes the clock), so both clocks run the same graph and their
    convergence behaviour is directly comparable.
    """
    params = task.params
    spec = GraphSpec.from_dict(params["graph_spec"])
    seed = derive_seed(
        params["base_seed"], stable_key_hash(("pushsum", spec.n)), task.repetition
    )
    graph = make_graph(spec, rng=seed)
    protocol = PushSumGossip(
        PushSumParameters(
            clock=params["clock"],
            tolerance=float(params.get("tolerance", 1e-8)),
        )
    )
    result = protocol.run(graph, rng=seed + 1)
    extras = result.extras
    return {
        "n": spec.n,
        "clock": params["clock"],
        "converged": result.completed,
        "rounds": result.rounds,
        "events": int(extras["events"]),
        "sim_time": float(extras["sim_time"]),
        "messages_per_node": result.messages_per_node(MessageAccounting.PUSHES),
        "mass_error": float(extras["mass_error"]),
        "spread_final": float(extras["spread"]),
        "variance_initial": float(extras["variance_initial"]),
        "variance_final": float(extras["variance_final"]),
        "estimate_error": float(extras["estimate_error"]),
        "spread_monotone": spread_monotone(extras["series"]["spread"]),
    }


def churn_task(task: SweepTask) -> Dict[str, Any]:
    """Run event-clock push-pull with seeded join/leave churn.

    Expected task params: ``graph_spec`` (dict), ``churn_fraction`` (float),
    ``rejoin_fraction`` (float).
    """
    params = task.params
    spec = GraphSpec.from_dict(params["graph_spec"])
    graph = make_graph(spec, rng=task.seed)
    protocol = PushPullGossip(PushPullParameters(clock="event"))
    leavers = int(round(float(params["churn_fraction"]) * spec.n))
    plan = None
    if leavers:
        # Churn lands within the first quarter of the wakeup budget so runs
        # have time to finish after the membership settles.
        plan = sample_churn_plan(
            spec.n,
            leavers=leavers,
            rng=task.seed + 7,
            horizon=protocol.params.max_events(spec.n) // 4,
            rejoin_fraction=float(params.get("rejoin_fraction", 0.5)),
        )
    result = protocol.run(graph, rng=task.seed + 1, churn=plan)
    extras = result.extras
    return {
        "n": spec.n,
        "churn_fraction": float(params["churn_fraction"]),
        "churn_ops": int(extras.get("churn_ops", 0)),
        "survivors": int(extras["alive_nodes"]),
        "completed": result.completed,
        "rounds": result.rounds,
        "events": int(extras["events"]),
        "sim_time": float(extras["sim_time"]),
        "messages_per_node": result.messages_per_node(MessageAccounting.PACKETS),
        "opens_per_node": result.messages_per_node(MessageAccounting.OPENS),
    }


# --------------------------------------------------------------------------- #
# Result container and aggregation
# --------------------------------------------------------------------------- #
@dataclass
class ExperimentResult:
    """Uniform container for experiment outputs.

    Attributes
    ----------
    name:
        Experiment identifier (e.g. ``"figure1"``).
    description:
        One-line description of what is reproduced.
    rows:
        Aggregated rows (one per plotted point / table row).
    raw_records:
        Per-run records before aggregation.
    metadata:
        Sweep settings (sizes, repetitions, seed, ...).
    """

    name: str
    description: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    raw_records: List[Dict[str, Any]] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def to_table(self, columns: Optional[Sequence[str]] = None, title: Optional[str] = None) -> str:
        """Render the aggregated rows as a text table."""
        if not self.rows:
            return f"{self.name}: no rows"
        if columns is None:
            columns = list(self.rows[0].keys())
        return format_records(self.rows, columns, title=title or self.description)

    def save(self, directory: Union[str, Path]) -> Dict[str, Path]:
        """Persist rows and raw records under ``directory``."""
        directory = Path(directory)
        paths = {
            "rows_json": save_json(self.rows, directory / f"{self.name}_rows.json"),
            "rows_csv": save_csv(self.rows, directory / f"{self.name}_rows.csv"),
            "metadata": save_json(self.metadata, directory / f"{self.name}_metadata.json"),
        }
        if self.raw_records:
            paths["raw_csv"] = save_csv(self.raw_records, directory / f"{self.name}_raw.csv")
        return paths
