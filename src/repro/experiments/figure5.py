"""Experiment E5 — Figure 5: threshold exceedance of the robustness losses.

Figure 5 of the paper shows, for graphs of 100,000 and 500,000 nodes and a
series of failed-node counts, the *percentage of runs* in which more than
``T`` additional healthy messages were lost, for ``T ∈ {0, 10, 100}``.  The
qualitative statement: even for thousands of failed nodes almost no run loses
more than a handful of additional messages.

The reproduction runs repeated robustness simulations per (size, failure
count) and reports one exceedance-fraction column per threshold.  The custom
exceedance aggregation is declared on the scenario spec.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..graphs.erdos_renyi import paper_edge_probability
from ..graphs.generators import GraphSpec
from .config import RobustnessDetailConfig
from .runner import robustness_task
from .scenarios import ScenarioSpec, register

__all__ = ["FIGURE5"]


def _configurations(config: RobustnessDetailConfig) -> List[Tuple[Tuple[int, int], Dict]]:
    configurations = []
    for n in config.sizes:
        spec = GraphSpec(
            kind="erdos_renyi",
            n=n,
            params={
                "p": paper_edge_probability(n, config.density_exponent),
                "require_connected": True,
            },
        )
        for fraction in config.failed_fractions:
            failed = int(round(n * fraction))
            configurations.append(
                (
                    (n, failed),
                    {
                        "graph_spec": spec.as_dict(),
                        "failed": failed,
                        "num_trees": config.num_trees,
                        "leader": 0,
                    },
                )
            )
    return configurations


def _aggregate(
    records: List[dict], config: RobustnessDetailConfig
) -> List[Dict[str, object]]:
    """Aggregate per-run losses into exceedance fractions per (n, failed)."""
    grouped: Dict[Tuple[int, int], List[dict]] = {}
    order: List[Tuple[int, int]] = []
    for record in records:
        key = (record["n"], record["failed"])
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(record)
    rows: List[Dict[str, object]] = []
    for key in order:
        members = grouped[key]
        row: Dict[str, object] = {
            "n": key[0],
            "failed": key[1],
            "failed_fraction": key[1] / key[0],
            "repetitions": len(members),
        }
        for threshold in config.thresholds:
            exceed = sum(1 for m in members if m["additional_lost"] > threshold)
            row[f"exceed_T{threshold}"] = exceed / len(members)
        rows.append(row)
    return rows


FIGURE5 = register(
    ScenarioSpec(
        name="figure5",
        result_name="figure5",
        description=(
            "Figure 5: fraction of robustness runs in which more than T "
            "additional healthy messages were lost (T per column)"
        ),
        task=robustness_task,
        grid=_configurations,
        default_config=RobustnessDetailConfig,
        cli_config=lambda seed: RobustnessDetailConfig(
            sizes=(512, 1024), repetitions=3, seed=20150527 if seed is None else seed
        ),
        smoke_config=lambda seed: RobustnessDetailConfig(
            sizes=(128,),
            thresholds=(0, 10),
            failed_fractions=(0.1, 0.5),
            repetitions=2,
            seed=20150527 if seed is None else seed,
        ),
        aggregate=_aggregate,
        metadata=lambda config: {
            "sizes": list(config.sizes),
            "thresholds": list(config.thresholds),
            "failed_fractions": list(config.failed_fractions),
            "num_trees": config.num_trees,
            "repetitions": config.repetitions,
            "seed": config.seed,
        },
        render={"x": "failed", "y": "exceed_T0", "group_by": "n", "log_x": False},
    )
)
