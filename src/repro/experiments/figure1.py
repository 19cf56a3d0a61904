"""Experiment E1 — Figure 1: communication overhead vs graph size.

The paper's Figure 1 plots the average number of messages sent per node for
three gossiping methods (plain push–pull, Algorithm 1 / fast-gossiping and
Algorithm 2 / memory model) on Erdős–Rényi graphs ``G(n, log²n / n)`` with
``n`` from 10³ to 10⁶.  The reproduced series preserves the qualitative
findings:

* push–pull cost grows ``Theta(log n)`` — highest and growing,
* fast-gossiping sits below push–pull and grows like ``log n / log log n``
  with an increasing gap,
* the memory model stays bounded by a small constant (≈5 in the paper).

The experiment is expressed as a :class:`~repro.experiments.scenarios
.ScenarioSpec` (grid + task + aggregation + finalize hook); run it with
``run_scenario("figure1")``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..analysis.bounds import (
    fast_gossiping_messages_per_node,
    fit_constant,
    memory_gossiping_messages_per_node,
    push_pull_gossip_messages_per_node,
)
from ..graphs.erdos_renyi import paper_edge_probability
from ..graphs.generators import GraphSpec
from .config import SizeSweepConfig
from .runner import gossip_task
from .scenarios import ScenarioSpec, register

__all__ = ["FIGURE1_COLUMNS", "FIGURE1"]

#: Columns of the aggregated Figure 1 rows (used by reports).
FIGURE1_COLUMNS = (
    "n",
    "protocol",
    "messages_per_node",
    "messages_per_node_std",
    "rounds",
    "completed",
    "repetitions",
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
        for protocol in config.protocols:
            options: Dict[str, object] = {}
            if protocol == "memory":
                options = {"leader": 0}
            configurations.append(
                (
                    (n, protocol),
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
    config: SizeSweepConfig,
) -> Dict[str, Any]:
    """Add per-row completion flags and fit the asymptotic shapes."""
    for row in rows:
        row["completed"] = all(
            r["completed"]
            for r in records
            if r["n"] == row["n"] and r["protocol"] == row["protocol"]
        )
    fits: Dict[str, float] = {}
    shapes = {
        "push-pull": push_pull_gossip_messages_per_node,
        "fast-gossiping": fast_gossiping_messages_per_node,
        "memory": memory_gossiping_messages_per_node,
    }
    for protocol, bound in shapes.items():
        series = [(row["n"], row["messages_per_node"]) for row in rows if row["protocol"] == protocol]
        if series:
            sizes, values = zip(*series)
            fits[protocol] = fit_constant(sizes, values, bound)
    return {"bound_fit_constants": fits}


FIGURE1 = register(
    ScenarioSpec(
        name="figure1",
        result_name="figure1",
        description=(
            "Figure 1: average messages sent per node vs graph size on "
            "G(n, log^2 n / n) for push-pull, fast-gossiping and the memory model"
        ),
        task=gossip_task,
        grid=_configurations,
        default_config=SizeSweepConfig,
        cli_config=lambda seed: SizeSweepConfig(
            sizes=(256, 512, 1024, 2048), repetitions=2, seed=20150525 if seed is None else seed
        ),
        smoke_config=lambda seed: SizeSweepConfig(
            sizes=(96, 128), repetitions=1, seed=20150525 if seed is None else seed
        ),
        group_by=("n", "protocol"),
        metrics=("messages_per_node", "rounds", "opens_per_node", "strict_cost_per_node"),
        finalize=_finalize,
        metadata=lambda config: {
            "sizes": list(config.sizes),
            "repetitions": config.repetitions,
            "seed": config.seed,
            "density_exponent": config.density_exponent,
        },
        columns=FIGURE1_COLUMNS,
        render={"x": "n", "y": "messages_per_node", "group_by": "protocol", "log_x": True},
    )
)
