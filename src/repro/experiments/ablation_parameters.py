"""Experiment E9 (ablation) — sensitivity of fast-gossiping to its parameters.

Section 5 of the paper stresses that the message complexity can be reduced
significantly "by tuning the parameters of our algorithms".  This ablation
varies the two most influential knobs of Algorithm 1 — the per-round
random-walk probability factor and the length of the per-round broadcast
sub-phase — and reports the resulting per-node message cost and running time,
making the time/messages trade-off of the paper concrete.

Declared as a scenario spec.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..graphs.erdos_renyi import paper_edge_probability
from ..graphs.generators import GraphSpec
from .config import ParameterAblationConfig
from .runner import gossip_task
from .scenarios import ScenarioSpec, register

__all__ = ["ABLATION_COLUMNS", "PARAMETER_ABLATION"]

ABLATION_COLUMNS = (
    "walk_probability_factor",
    "broadcast_steps_factor",
    "messages_per_node",
    "messages_per_node_std",
    "rounds",
    "completed",
    "repetitions",
)


def _configurations(
    config: ParameterAblationConfig,
) -> List[Tuple[Tuple[float, float], Dict]]:
    spec = GraphSpec(
        kind="erdos_renyi",
        n=config.size,
        params={
            "p": paper_edge_probability(config.size, config.density_exponent),
            "require_connected": True,
        },
    )
    configurations: List[Tuple[Tuple[float, float], Dict]] = []
    for walk_factor in config.walk_probability_factors:
        for broadcast_factor in config.broadcast_steps_factors:
            configurations.append(
                (
                    (walk_factor, broadcast_factor),
                    {
                        "graph_spec": spec.as_dict(),
                        "protocol": "fast-gossiping",
                        "protocol_options": {
                            "walk_probability_factor": float(walk_factor),
                            "broadcast_steps_factor": float(broadcast_factor),
                        },
                    },
                )
            )
    return configurations


def _prepare_records(records: List[Dict[str, Any]], config: ParameterAblationConfig) -> None:
    """Unpack the composite configuration key into per-record columns."""
    for record in records:
        walk_factor, broadcast_factor = record["key"]
        record["walk_probability_factor"] = walk_factor
        record["broadcast_steps_factor"] = broadcast_factor


def _finalize(
    rows: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    config: ParameterAblationConfig,
) -> None:
    for row in rows:
        row["completed"] = all(
            r["completed"]
            for r in records
            if r["walk_probability_factor"] == row["walk_probability_factor"]
            and r["broadcast_steps_factor"] == row["broadcast_steps_factor"]
        )


PARAMETER_ABLATION = register(
    ScenarioSpec(
        name="parameters",
        result_name="ablation_parameters",
        description=(
            "Fast-gossiping parameter ablation: per-node message cost vs "
            "random-walk probability factor and broadcast sub-phase length"
        ),
        task=gossip_task,
        grid=_configurations,
        default_config=ParameterAblationConfig,
        cli_config=lambda seed: ParameterAblationConfig(
            size=512, repetitions=2, seed=20150530 if seed is None else seed
        ),
        smoke_config=lambda seed: ParameterAblationConfig(
            size=128,
            walk_probability_factors=(0.5, 2.0),
            broadcast_steps_factors=(0.5,),
            repetitions=1,
            seed=20150530 if seed is None else seed,
        ),
        group_by=("walk_probability_factor", "broadcast_steps_factor"),
        metrics=("messages_per_node", "rounds"),
        prepare_records=_prepare_records,
        finalize=_finalize,
        metadata=lambda config: {
            "size": config.size,
            "repetitions": config.repetitions,
            "seed": config.seed,
            "walk_probability_factors": list(config.walk_probability_factors),
            "broadcast_steps_factors": list(config.broadcast_steps_factors),
        },
        columns=ABLATION_COLUMNS,
        render=None,
    )
)
