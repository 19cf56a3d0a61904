"""Experiment E8 (ablation) — the broadcast/gossip density separation.

Background of the paper (Section 1.1): for single-message *broadcasting* the
``O(n log log n)`` message bound achievable on complete graphs (Karp et al.)
cannot be achieved on sparse random graphs, whereas the paper shows that for
*gossiping* sparse random graphs are as good as complete graphs.  This
ablation makes the contrast measurable:

* age-quenched push–pull broadcasting on the complete graph vs on
  ``G(n, log²n/n)`` — per-node packets grow noticeably faster on the sparse
  graph (``Theta(log n)`` envelope vs ``Theta(log log n)``), while
* the memory-model gossiping cost stays flat on both topologies.

Declared as a scenario spec.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..analysis.sweep import SweepTask
from ..broadcast.age_based import AgeBasedBroadcast
from ..engine.metrics import MessageAccounting
from ..graphs.erdos_renyi import paper_edge_probability
from ..graphs.generators import GraphSpec, make_graph
from .config import BroadcastAblationConfig
from .runner import make_protocol
from .scenarios import ScenarioSpec, register

__all__ = [
    "broadcast_task",
    "BROADCAST_COLUMNS",
    "BROADCAST_ABLATION",
]

BROADCAST_COLUMNS = (
    "n",
    "topology",
    "task",
    "messages_per_node",
    "messages_per_node_std",
    "rounds",
    "repetitions",
)


def broadcast_task(task: SweepTask) -> Dict[str, Any]:
    """Run one broadcasting or gossiping measurement for the ablation.

    Expected task params: ``graph_spec`` (dict), ``topology`` (label),
    ``task`` (``"broadcast"`` or ``"gossip-memory"``).
    """
    params = task.params
    spec = GraphSpec.from_dict(params["graph_spec"])
    graph = make_graph(spec, rng=task.seed)
    kind = params["task"]
    if kind == "broadcast":
        result = AgeBasedBroadcast().run(graph, source=0, rng=task.seed + 1)
        messages = result.messages_per_node(MessageAccounting.PACKETS)
        rounds = result.rounds
        completed = result.completed
    elif kind == "gossip-memory":
        protocol = make_protocol("memory", protocol_options={"leader": 0})
        outcome = protocol.run(graph, rng=task.seed + 1)
        messages = outcome.messages_per_node(MessageAccounting.PACKETS)
        rounds = outcome.rounds
        completed = outcome.completed
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown ablation task {kind!r}")
    return {
        "n": spec.n,
        "topology": params["topology"],
        "task": kind,
        "messages_per_node": messages,
        "rounds": rounds,
        "completed": completed,
    }


def _configurations(
    config: BroadcastAblationConfig,
) -> List[Tuple[Tuple[int, str, str], Dict]]:
    configurations: List[Tuple[Tuple[int, str, str], Dict]] = []
    for n in config.sizes:
        sparse = GraphSpec(
            kind="erdos_renyi",
            n=n,
            params={
                "p": paper_edge_probability(n, config.density_exponent),
                "require_connected": True,
            },
        )
        complete = GraphSpec(kind="complete", n=n)
        for topology, spec in (("sparse", sparse), ("complete", complete)):
            for kind in ("broadcast", "gossip-memory"):
                configurations.append(
                    (
                        (n, topology, kind),
                        {"graph_spec": spec.as_dict(), "topology": topology, "task": kind},
                    )
                )
    return configurations


def _finalize(
    rows: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    config: BroadcastAblationConfig,
) -> Dict[str, Any]:
    # Separation summary: growth of the per-node broadcast cost from the
    # smallest to the largest n, per topology (sparse should grow faster).
    growth: Dict[str, float] = {}
    for topology in ("sparse", "complete"):
        series = sorted(
            (row["n"], row["messages_per_node"])
            for row in rows
            if row["topology"] == topology and row["task"] == "broadcast"
        )
        if len(series) >= 2 and series[0][1] > 0:
            growth[topology] = series[-1][1] / series[0][1]
    return {"broadcast_cost_growth": growth}


BROADCAST_ABLATION = register(
    ScenarioSpec(
        name="broadcast",
        result_name="broadcast_ablation",
        description=(
            "Broadcast-vs-gossip ablation: per-node packets of age-quenched "
            "push-pull broadcasting and memory-model gossiping on sparse vs "
            "complete graphs"
        ),
        task=broadcast_task,
        grid=_configurations,
        default_config=BroadcastAblationConfig,
        cli_config=lambda seed: BroadcastAblationConfig(
            sizes=(256, 512, 1024), repetitions=2, seed=20150529 if seed is None else seed
        ),
        smoke_config=lambda seed: BroadcastAblationConfig(
            sizes=(96, 128), repetitions=1, seed=20150529 if seed is None else seed
        ),
        group_by=("n", "topology", "task"),
        metrics=("messages_per_node", "rounds"),
        finalize=_finalize,
        metadata=lambda config: {
            "sizes": list(config.sizes),
            "repetitions": config.repetitions,
            "seed": config.seed,
        },
        columns=BROADCAST_COLUMNS,
        render={"x": "n", "y": "messages_per_node", "group_by": "task", "log_x": True},
    )
)
