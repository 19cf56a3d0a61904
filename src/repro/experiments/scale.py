"""Extension experiment — scaling beyond the paper's small sizes.

The paper simulates graphs up to n = 10⁶ on half-terabyte machines; the
reproduction's knowledge matrix walls off well before that (the matrix
alone is ``n² / 8`` bytes).  This scenario sweeps one protocol across sizes
and records rounds, per-node message cost and the storage the knowledge
state holds at the end of the run.  On the exchange protocols (the default
push-pull, fast-gossiping) that includes the swap buffer, which the matrix
keeps after an exchange round; only the memory model's push rounds never
allocate it.  ``scale --smoke`` keeps CI-friendly sizes;
``ScaleConfig(sizes=(50_000, 100_000))`` moves to the n >= 50k regime.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..analysis.sweep import SweepTask
from ..graphs.generators import paper_graph_spec
from .config import ScaleConfig
from .runner import run_gossip
from .scenarios import ScenarioSpec, register

__all__ = ["SCALE_COLUMNS", "SCALE"]

#: Columns of the aggregated scale rows.
SCALE_COLUMNS = (
    "n",
    "rounds",
    "messages_per_node",
    "storage_mb",
    "completed",
    "repetitions",
)


def scale_task(task: SweepTask) -> Dict[str, Any]:
    """The ``gossip_task`` record plus the run's final ``storage_mb``."""
    record, result = run_gossip(task)
    record["storage_mb"] = result.knowledge.storage_nbytes() / 1e6
    return record


def _configurations(config: ScaleConfig) -> List[Tuple[Tuple[int, str], Dict]]:
    options: Dict[str, object] = {"leader": 0} if config.protocol == "memory" else {}
    configurations = []
    for n in config.sizes:
        spec = paper_graph_spec(n)
        configurations.append(
            (
                (n, config.protocol),
                {
                    "graph_spec": spec.as_dict(),
                    "protocol": config.protocol,
                    "protocol_options": options,
                },
            )
        )
    return configurations


def _finalize(
    rows: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    config: ScaleConfig,
) -> Dict[str, Any]:
    """Mark each size completed when every repetition completed."""
    for row in rows:
        row["completed"] = all(r["completed"] for r in records if r["n"] == row["n"])
    return {}


SCALE = register(
    ScenarioSpec(
        name="scale",
        result_name="scale",
        description=(
            "Scaling: one protocol per size — rounds, message cost and the "
            "knowledge storage held at the end of the run"
        ),
        task=scale_task,
        grid=_configurations,
        default_config=ScaleConfig(),
        smoke_config=ScaleConfig(sizes=(96, 128), repetitions=1),
        group_by=("n",),
        metrics=("rounds", "messages_per_node", "storage_mb"),
        finalize=_finalize,
        columns=SCALE_COLUMNS,
        render={"x": "n", "y": "storage_mb", "group_by": None, "log_x": True},
    )
)
