"""Experiment E3 — Figure 2: robustness of the memory model under failures.

Figure 2 of the paper: on a 10⁶-node ``G(n, log²n/n)`` graph, Algorithm 2
builds three communication trees, ``F`` uniformly random nodes are marked
failed right before Phase II, and the plot shows — as a function of ``F`` —
the ratio of *additional* lost original messages (messages of healthy nodes
that reach no tree root) to ``F``.  The qualitative finding: the ratio is
essentially zero for small ``F`` and grows once a substantial fraction of the
network fails.

The reproduction uses a smaller graph; failure counts are expressed as
fractions of ``n`` so the x-axis is comparable across scales.  Declared as a
scenario spec; run it with ``run_scenario("figure2")``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..graphs.erdos_renyi import paper_edge_probability
from ..graphs.generators import GraphSpec
from .config import RobustnessConfig
from .runner import robustness_task
from .scenarios import ScenarioSpec, register

__all__ = ["FIGURE2_COLUMNS", "FIGURE2", "robustness_configurations"]

FIGURE2_COLUMNS = (
    "n",
    "failed",
    "failed_fraction",
    "additional_lost",
    "loss_ratio",
    "loss_ratio_std",
    "repetitions",
)


def robustness_configurations(
    config: RobustnessConfig,
) -> List[Tuple[Tuple[int, int], Dict]]:
    """Build the (size, failed-count) sweep configurations."""
    spec = GraphSpec(
        kind="erdos_renyi",
        n=config.size,
        params={
            "p": paper_edge_probability(config.size, config.density_exponent),
            "require_connected": True,
        },
    )
    configurations = []
    for failed in config.failed_counts():
        configurations.append(
            (
                (config.size, failed),
                {
                    "graph_spec": spec.as_dict(),
                    "failed": failed,
                    "num_trees": config.num_trees,
                    "leader": 0,
                },
            )
        )
    return configurations


def _finalize(
    rows: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    config: RobustnessConfig,
) -> None:
    for row in rows:
        row["failed_fraction"] = row["failed"] / row["n"]


FIGURE2 = register(
    ScenarioSpec(
        name="figure2",
        result_name="figure2",
        description=(
            "Figure 2: ratio of additional lost healthy messages to the number "
            "of failed nodes F (memory model, 3 trees, failures before Phase II)"
        ),
        task=robustness_task,
        grid=robustness_configurations,
        default_config=RobustnessConfig,
        cli_config=lambda seed: RobustnessConfig(
            size=1024, repetitions=2, seed=20150526 if seed is None else seed
        ),
        smoke_config=lambda seed: RobustnessConfig(
            size=128, failed_fractions=(0.0, 0.25), repetitions=1, seed=20150526 if seed is None else seed
        ),
        group_by=("n", "failed"),
        metrics=("additional_lost", "loss_ratio", "messages_per_node"),
        finalize=_finalize,
        metadata=lambda config: {
            "size": config.size,
            "num_trees": config.num_trees,
            "failed_fractions": list(config.failed_fractions),
            "repetitions": config.repetitions,
            "seed": config.seed,
        },
        columns=FIGURE2_COLUMNS,
        render={"x": "failed", "y": "loss_ratio", "group_by": None, "log_x": False},
    )
)
