"""Experiment E2 — Figure 4: detailed view of Algorithm 1's message complexity.

Figure 4 of the paper zooms into the fast-gossiping series of Figure 1 on a
finer grid of graph sizes.  Two effects are visible: the series jumps whenever
a ceil'd phase length increases by one step, and *between* jumps the messages
per node decrease slightly because the per-round random-walk probability
``1 / log n`` shrinks while the phase lengths stay constant.  We reproduce the
series on a finer (but smaller) grid and report, for every consecutive pair of
sizes with identical resolved schedules, whether the cost indeed decreased.

Declared as a scenario spec.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Tuple

from ..core.parameters import tuned_fast_gossiping
from ..graphs.erdos_renyi import paper_edge_probability
from ..graphs.generators import GraphSpec
from .config import SizeSweepConfig
from .runner import gossip_task
from .scenarios import ScenarioSpec, register

__all__ = ["FIGURE4_COLUMNS", "FIGURE4", "default_figure4_config"]

FIGURE4_COLUMNS = (
    "n",
    "messages_per_node",
    "messages_per_node_std",
    "rounds",
    "walk_probability",
    "schedule_signature",
    "repetitions",
)


def default_figure4_config() -> SizeSweepConfig:
    """A finer size grid restricted to the fast-gossiping protocol."""
    return SizeSweepConfig(
        sizes=(256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096),
        repetitions=3,
        protocols=("fast-gossiping",),
    )


def _configurations(config: SizeSweepConfig) -> List[Tuple[Tuple[int, str], Dict]]:
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
        configurations.append(
            (
                (n, "fast-gossiping"),
                {"graph_spec": spec.as_dict(), "protocol": "fast-gossiping"},
            )
        )
    return configurations


def _finalize(
    rows: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    config: SizeSweepConfig,
) -> Dict[str, Any]:
    """Annotate rows with the resolved schedule and collect plateau deltas."""
    params = tuned_fast_gossiping()
    for row in rows:
        schedule = params.resolve(int(row["n"]))
        row["walk_probability"] = schedule.walk_probability
        row["schedule_signature"] = (
            f"P1={schedule.distribution_steps}/rounds={schedule.rounds}/"
            f"walk={schedule.walk_steps}/bc={schedule.broadcast_steps}"
        )

    # Within-plateau decrease check: for consecutive sizes with an identical
    # schedule, does the per-node cost decrease (as in the paper's Figure 4)?
    decreases = []
    for first, second in zip(rows, rows[1:]):
        if first["schedule_signature"] == second["schedule_signature"]:
            decreases.append(
                {
                    "from_n": first["n"],
                    "to_n": second["n"],
                    "delta_messages_per_node": second["messages_per_node"]
                    - first["messages_per_node"],
                }
            )
    return {"within_plateau_deltas": decreases}


FIGURE4 = register(
    ScenarioSpec(
        name="figure4",
        result_name="figure4",
        description=(
            "Figure 4: fast-gossiping messages per node on a fine size grid, "
            "showing schedule plateaus and the within-plateau decrease"
        ),
        task=gossip_task,
        grid=_configurations,
        default_config=default_figure4_config,
        cli_config=lambda seed: (
            default_figure4_config()
            if seed is None
            else replace(default_figure4_config(), seed=seed)
        ),
        smoke_config=lambda seed: SizeSweepConfig(
            sizes=(96, 128, 192),
            repetitions=1,
            protocols=("fast-gossiping",),
            seed=20150525 if seed is None else seed,
        ),
        group_by=("n",),
        metrics=("messages_per_node", "rounds"),
        finalize=_finalize,
        metadata=lambda config: {
            "sizes": list(config.sizes),
            "repetitions": config.repetitions,
            "seed": config.seed,
        },
        columns=FIGURE4_COLUMNS,
        render={"x": "n", "y": "messages_per_node", "group_by": None, "log_x": True},
    )
)
