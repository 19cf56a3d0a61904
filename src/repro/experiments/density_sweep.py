"""Experiment E7 (extension) — the titular density sweep.

The paper's central claim is that — unlike for broadcasting — the message
complexity of randomized gossiping does *not* deteriorate when moving from the
complete graph to sparse random graphs of degree ``log^{2+eps} n``.  The
published evaluation fixes the density at ``log² n`` and sweeps ``n``; this
extension fixes ``n`` and sweeps the density from ``log² n`` up to the
complete graph, which exposes the claim directly: for each protocol the
per-node message count should stay essentially flat across densities.

Declared as a scenario spec.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..graphs.generators import GraphSpec
from .config import DensitySweepConfig
from .runner import gossip_task
from .scenarios import ScenarioSpec, register

__all__ = ["DENSITY_COLUMNS", "DENSITY_SWEEP"]

DENSITY_COLUMNS = (
    "expected_degree",
    "graph",
    "protocol",
    "messages_per_node",
    "messages_per_node_std",
    "rounds",
    "repetitions",
)


def _configurations(config: DensitySweepConfig) -> List[Tuple[Tuple[str, str], Dict]]:
    configurations = []
    n = config.size
    specs: List[Tuple[str, GraphSpec]] = []
    for degree in config.degrees():
        specs.append(
            (
                f"er_d{int(round(degree))}",
                GraphSpec(
                    kind="erdos_renyi",
                    n=n,
                    params={"expected_degree": float(degree), "require_connected": True},
                ),
            )
        )
    if config.include_complete:
        specs.append(("complete", GraphSpec(kind="complete", n=n)))
    for label, spec in specs:
        for protocol in config.protocols:
            options: Dict[str, object] = {"leader": 0} if protocol == "memory" else {}
            configurations.append(
                (
                    (label, protocol),
                    {
                        "graph_spec": spec.as_dict(),
                        "protocol": protocol,
                        "protocol_options": options,
                    },
                )
            )
    return configurations


def _finalize(
    rows: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    config: DensitySweepConfig,
) -> Dict[str, Any]:
    for row in rows:
        row["expected_degree"] = row.pop("mean_degree")

    # Flatness summary per protocol: max/min ratio of the per-node cost across
    # densities; values near 1 support the paper's thesis.
    flatness: Dict[str, float] = {}
    for protocol in config.protocols:
        values = [row["messages_per_node"] for row in rows if row["protocol"] == protocol]
        if values and min(values) > 0:
            flatness[protocol] = max(values) / min(values)
    return {"max_over_min_cost_ratio": flatness}


DENSITY_SWEEP = register(
    ScenarioSpec(
        name="density",
        result_name="density_sweep",
        description=(
            "Density sweep (extension): messages per node vs expected degree at "
            "fixed n, from log^2 n up to the complete graph"
        ),
        task=gossip_task,
        grid=_configurations,
        default_config=DensitySweepConfig(),
        cli_config=DensitySweepConfig(size=512, repetitions=2),
        smoke_config=DensitySweepConfig(size=128, expected_degrees=(32.0, 64.0), repetitions=1),
        group_by=("graph", "protocol"),
        metrics=("messages_per_node", "rounds", "mean_degree"),
        finalize=_finalize,
        columns=DENSITY_COLUMNS,
        render={
            "x": "expected_degree",
            "y": "messages_per_node",
            "group_by": "protocol",
            "log_x": True,
        },
    )
)
