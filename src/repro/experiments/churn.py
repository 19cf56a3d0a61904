"""Extension experiment — gossiping under node churn (event clock).

The continuous-time model makes membership churn expressible: nodes leave
and rejoin at seeded wakeup indices (:func:`repro.engine.event_clock
.sample_churn_plan`) while event-clock push-pull keeps running.  A node that
is away neither acts nor answers — its Poisson clock stands still and calls
into it open a channel but exchange nothing — yet it keeps its knowledge and
resumes where it left off when it rejoins.  Completion targets the
finally-alive membership.

The sweep varies the leaving fraction per size and records how much extra
work (wakeups, exchanges per node) the protocol spends absorbing the churn,
plus whether gossiping still completes — the event-clock analogue of the
paper's crash-failure robustness experiments, with transient instead of
permanent failures.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..graphs.generators import paper_graph_spec
from .config import ChurnConfig
from .runner import churn_task
from .scenarios import ScenarioSpec, register

__all__ = ["CHURN_COLUMNS", "CHURN"]

#: Columns of the aggregated churn rows.
CHURN_COLUMNS = (
    "n",
    "churn_fraction",
    "rounds",
    "events",
    "sim_time",
    "messages_per_node",
    "survivors",
    "completed",
    "repetitions",
)


def _configurations(config: ChurnConfig) -> List[Tuple[Tuple[int, float], Dict]]:
    configurations = []
    for n in config.sizes:
        spec = paper_graph_spec(n)
        for fraction in config.churn_fractions:
            configurations.append(
                (
                    (n, fraction),
                    {
                        "graph_spec": spec.as_dict(),
                        "churn_fraction": fraction,
                        "rejoin_fraction": config.rejoin_fraction,
                    },
                )
            )
    return configurations


def _finalize(
    rows: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    config: ChurnConfig,
) -> Dict[str, Any]:
    for row in rows:
        row["completed"] = all(
            r["completed"]
            for r in records
            if r["n"] == row["n"]
            and r["churn_fraction"] == row["churn_fraction"]
        )
    return {"all_completed": all(r["completed"] for r in records)}


CHURN = register(
    ScenarioSpec(
        name="churn",
        result_name="churn",
        description=(
            "Event-clock push-pull under seeded join/leave churn: extra "
            "wakeups and messages spent absorbing transient membership "
            "changes, per leaving fraction"
        ),
        task=churn_task,
        grid=_configurations,
        default_config=ChurnConfig(),
        smoke_config=ChurnConfig(sizes=(96,), churn_fractions=(0.0, 0.125), repetitions=1),
        group_by=("n", "churn_fraction"),
        metrics=(
            "rounds",
            "events",
            "sim_time",
            "messages_per_node",
            "opens_per_node",
            "survivors",
        ),
        finalize=_finalize,
        columns=CHURN_COLUMNS,
        render={
            "x": "churn_fraction",
            "y": "messages_per_node",
            "group_by": "n",
        },
    )
)
