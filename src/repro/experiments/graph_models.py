"""Experiment E12 (extension) — Erdős–Rényi vs configuration-model substrates.

The paper proves its first result for the configuration model and its second
for Erdős–Rényi graphs, and notes (Section 1.3) that both results hold for
both random-graph models with the same proof techniques.  This extension makes
the claim empirical: it runs every gossiping protocol on an Erdős–Rényi graph
and on a random-regular (configuration-model) graph of the *same* expected
degree and size, and compares the per-node message cost — the two families
should be indistinguishable for every protocol.

Declared as a scenario spec.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

from ..graphs.generators import GraphSpec
from .config import SizeSweepConfig
from .runner import gossip_task
from .scenarios import ScenarioSpec, register

__all__ = ["GRAPH_MODEL_COLUMNS", "GRAPH_MODELS"]

GRAPH_MODEL_COLUMNS = (
    "n",
    "model",
    "protocol",
    "messages_per_node",
    "messages_per_node_std",
    "rounds",
    "repetitions",
)


def _default_config() -> SizeSweepConfig:
    return SizeSweepConfig(sizes=(512, 1024), repetitions=3)


def _configurations(config: SizeSweepConfig) -> List[Tuple[Tuple[int, str, str], Dict]]:
    configurations: List[Tuple[Tuple[int, str, str], Dict]] = []
    for n in config.sizes:
        degree = int(round(math.log2(n) ** config.density_exponent))
        if (degree * n) % 2:
            degree += 1
        specs = {
            "erdos_renyi": GraphSpec(
                "erdos_renyi",
                n,
                {"expected_degree": float(degree), "require_connected": True},
            ),
            "configuration_model": GraphSpec(
                "random_regular", n, {"d": degree, "require_connected": True}
            ),
        }
        for model, spec in specs.items():
            for protocol in config.protocols:
                options: Dict[str, object] = {"leader": 0} if protocol == "memory" else {}
                configurations.append(
                    (
                        (n, model, protocol),
                        {
                            "graph_spec": spec.as_dict(),
                            "protocol": protocol,
                            "protocol_options": options,
                        },
                    )
                )
    return configurations


def _prepare_records(records: List[Dict[str, Any]], config: SizeSweepConfig) -> None:
    for record in records:
        record["model"] = record["key"][1]


def _finalize(
    rows: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    config: SizeSweepConfig,
) -> Dict[str, Any]:
    # Per (n, protocol): relative gap between the two graph models.
    gaps: List[Dict[str, object]] = []
    for n in config.sizes:
        for protocol in config.protocols:
            costs = {
                row["model"]: row["messages_per_node"]
                for row in rows
                if row["n"] == n and row["protocol"] == protocol
            }
            if len(costs) == 2 and min(costs.values()) > 0:
                gaps.append(
                    {
                        "n": n,
                        "protocol": protocol,
                        "relative_gap": abs(costs["erdos_renyi"] - costs["configuration_model"])
                        / min(costs.values()),
                    }
                )
    return {"relative_gaps": gaps}


GRAPH_MODELS = register(
    ScenarioSpec(
        name="graph-models",
        result_name="graph_models",
        description=(
            "Graph-model comparison (extension): per-node gossiping cost on "
            "Erdős–Rényi vs configuration-model (random-regular) graphs of the "
            "same expected degree"
        ),
        task=gossip_task,
        grid=_configurations,
        default_config=_default_config,
        cli_config=lambda seed: SizeSweepConfig(
            sizes=(256, 512), repetitions=2, seed=20150533 if seed is None else seed
        ),
        smoke_config=lambda seed: SizeSweepConfig(
            sizes=(128,), repetitions=1, seed=20150533 if seed is None else seed
        ),
        group_by=("n", "model", "protocol"),
        metrics=("messages_per_node", "rounds"),
        prepare_records=_prepare_records,
        finalize=_finalize,
        metadata=lambda config: {
            "sizes": list(config.sizes),
            "repetitions": config.repetitions,
            "seed": config.seed,
        },
        columns=GRAPH_MODEL_COLUMNS,
        render={"x": "n", "y": "messages_per_node", "group_by": "model", "log_x": True},
    )
)
