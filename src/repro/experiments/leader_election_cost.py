"""Experiment E10 (ablation) — cost and correctness of leader election.

Theorem 2 of the paper states that Algorithm 2 needs ``O(n log log n)``
transmissions when leader election (Algorithm 3) has to run first.  This
experiment measures the election's per-node packet cost as a function of ``n``
for both variants implemented here — the literal pseudocode (active nodes push
every step, ``Theta(log n)`` per node) and the budgeted variant in which nodes
go quiet a few steps after activation (``Theta(log log n)`` per node) — and
verifies that the elected leader is unique.

Declared as a scenario spec.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import math

from ..analysis.sweep import SweepTask
from ..core.leader_election import LeaderElection
from ..core.parameters import LeaderElectionParameters, loglog2
from ..graphs.generators import GraphSpec, make_graph, paper_graph_spec
from .config import LeaderElectionConfig
from .scenarios import ScenarioSpec, register

__all__ = [
    "election_task",
    "ELECTION_COLUMNS",
    "LEADER_ELECTION_COST",
]

ELECTION_COLUMNS = (
    "n",
    "variant",
    "messages_per_node",
    "messages_per_node_std",
    "unique_fraction",
    "rounds",
    "repetitions",
)


def election_task(task: SweepTask) -> Dict[str, Any]:
    """Run one leader election.

    Expected task params: ``graph_spec`` (dict), ``variant``
    (``"pseudocode"`` or ``"budgeted"``).
    """
    params = task.params
    spec = GraphSpec.from_dict(params["graph_spec"])
    graph = make_graph(spec, rng=task.seed)
    variant = params["variant"]
    if variant == "budgeted":
        limit = max(2, math.ceil(2 * loglog2(spec.n)))
        election = LeaderElection(LeaderElectionParameters(), active_push_limit=limit)
    else:
        election = LeaderElection(LeaderElectionParameters())
    result = election.run(graph, rng=task.seed + 1)
    return {
        "n": spec.n,
        "variant": variant,
        "messages_per_node": result.messages_per_node(),
        "rounds": result.rounds,
        "unique": result.unique,
        "candidates": int(result.candidates.size),
    }


def _configurations(config: LeaderElectionConfig) -> List[Tuple[Tuple[int, str], Dict]]:
    configurations: List[Tuple[Tuple[int, str], Dict]] = []
    for n in config.sizes:
        spec = paper_graph_spec(n)
        for variant in ("pseudocode", "budgeted"):
            configurations.append(
                ((n, variant), {"graph_spec": spec.as_dict(), "variant": variant})
            )
    return configurations


def _finalize(
    rows: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    config: LeaderElectionConfig,
) -> None:
    for row in rows:
        members = [
            r for r in records if r["n"] == row["n"] and r["variant"] == row["variant"]
        ]
        row["unique_fraction"] = sum(1 for m in members if m["unique"]) / len(members)


LEADER_ELECTION_COST = register(
    ScenarioSpec(
        name="election",
        result_name="leader_election_cost",
        description=(
            "Leader election (Algorithm 3): per-node packet cost and uniqueness "
            "vs n, pseudocode vs budgeted-push variant"
        ),
        task=election_task,
        grid=_configurations,
        default_config=LeaderElectionConfig(),
        cli_config=LeaderElectionConfig(sizes=(256, 512, 1024), repetitions=2),
        smoke_config=LeaderElectionConfig(sizes=(128,), repetitions=1),
        group_by=("n", "variant"),
        metrics=("messages_per_node", "rounds"),
        finalize=_finalize,
        columns=ELECTION_COLUMNS,
        render={"x": "n", "y": "messages_per_node", "group_by": "variant", "log_x": True},
    )
)
