"""Experiment E11 (ablation) — gather redundancy of the memory model.

Algorithm 2 stores *every* neighbour a node contacted during Phase I and
re-contacts all of them during the gathering phase, which gives each original
message several disjoint upward paths to the leader.  A stricter reading keeps
only the contact that first informed each node (a spanning tree).  This
ablation measures the trade-off between the two interpretations under the
robustness experiment of Figure 2: replaying all contacts costs slightly more
packets but loses far fewer messages when nodes crash; the strict tree loses
messages at ratios much closer to the magnitudes the paper reports for its
large graphs.

Declared as a scenario spec.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..analysis.sweep import SweepTask
from ..core.memory_gossiping import MemoryGossiping
from ..core.parameters import tuned_memory_gossiping
from ..engine.failures import NO_FAILURES, sample_uniform_failures
from ..engine.metrics import MessageAccounting
from ..graphs.generators import GraphSpec, make_graph, paper_graph_spec
from .config import RobustnessConfig
from .scenarios import ScenarioSpec, register

__all__ = [
    "redundancy_task",
    "REDUNDANCY_COLUMNS",
    "REDUNDANCY_ABLATION",
]

REDUNDANCY_COLUMNS = (
    "gather_contacts",
    "failed",
    "failed_fraction",
    "additional_lost",
    "loss_ratio",
    "messages_per_node",
    "repetitions",
)


def redundancy_task(task: SweepTask) -> Dict[str, Any]:
    """Run one robustness measurement with a chosen gather-contacts mode.

    Expected task params: ``graph_spec`` (dict), ``failed`` (int),
    ``num_trees`` (int), ``gather_contacts`` (``"all"`` or ``"first"``),
    optional ``leader`` (int).
    """
    params = task.params
    spec = GraphSpec.from_dict(params["graph_spec"])
    graph = make_graph(spec, rng=task.seed)
    leader = int(params.get("leader", 0))
    failed_count = int(params["failed"])
    protocol_params = tuned_memory_gossiping().with_overrides(
        num_trees=int(params.get("num_trees", 3)),
        gather_contacts=str(params["gather_contacts"]),
    )
    protocol = MemoryGossiping(protocol_params, leader=leader, gather_only=True)
    failures = (
        sample_uniform_failures(spec.n, failed_count, rng=task.seed + 7, protect=[leader])
        if failed_count
        else NO_FAILURES
    )
    result = protocol.run(graph, rng=task.seed + 1, failures=failures)
    lost = int(result.extras["lost_messages"])
    return {
        "n": spec.n,
        "gather_contacts": params["gather_contacts"],
        "failed": failed_count,
        "failed_fraction": failed_count / spec.n,
        "additional_lost": lost,
        "loss_ratio": (lost / failed_count) if failed_count else 0.0,
        "messages_per_node": result.messages_per_node(MessageAccounting.PACKETS),
    }


def _configurations(config: RobustnessConfig) -> List[Tuple[Tuple[str, int], Dict]]:
    spec = paper_graph_spec(config.size)
    configurations: List[Tuple[Tuple[str, int], Dict]] = []
    for mode in ("all", "first"):
        for failed in config.failed_counts():
            configurations.append(
                (
                    (mode, failed),
                    {
                        "graph_spec": spec.as_dict(),
                        "failed": failed,
                        "num_trees": config.num_trees,
                        "gather_contacts": mode,
                        "leader": 0,
                    },
                )
            )
    return configurations


def _finalize(
    rows: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    config: RobustnessConfig,
) -> Dict[str, Any]:
    for row in rows:
        row["failed_fraction"] = row["failed"] / config.size

    # Summary: how much extra loss the strict tree incurs at the largest F.
    largest = max(config.failed_counts())
    ratios = {
        row["gather_contacts"]: row["loss_ratio"]
        for row in rows
        if row["failed"] == largest
    }
    return {"loss_ratio_at_largest_f": ratios}


REDUNDANCY_ABLATION = register(
    ScenarioSpec(
        name="redundancy",
        result_name="ablation_redundancy",
        description=(
            "Gather-redundancy ablation: robustness (additional lost messages / F) "
            "when replaying all Phase I contacts vs only first-informing contacts"
        ),
        task=redundancy_task,
        grid=_configurations,
        default_config=RobustnessConfig(),
        cli_config=RobustnessConfig(
            size=1024, failed_fractions=(0.0, 0.1, 0.3), repetitions=2, seed=20150532
        ),
        smoke_config=RobustnessConfig(
            size=128, failed_fractions=(0.0, 0.3), repetitions=1, seed=20150532
        ),
        group_by=("gather_contacts", "failed"),
        metrics=("additional_lost", "loss_ratio", "messages_per_node"),
        finalize=_finalize,
        columns=REDUNDANCY_COLUMNS,
        render={"x": "failed", "y": "loss_ratio", "group_by": "gather_contacts", "log_x": False},
    )
)
