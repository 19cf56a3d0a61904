"""Extension experiment — push-sum averaging under both execution clocks.

The aggregation workload the event-clock engine exists for
(:mod:`repro.core.push_sum`): every node estimates the network average from
``(s, w)`` pairs halved toward random neighbours.  The sweep compares the
synchronous clock against the continuous-time event clock per size — the
simulation seed derives from the size alone, so both clocks average the same
values on the same graph — and records the per-run convergence invariants:

* ``mass_error`` — relative drift of ``sum(s)`` (zero up to float rounding),
* ``spread_monotone`` — whether ``max(s/w) - min(s/w)`` ever increased
  beyond float rounding (it must not),
* ``variance_final`` against ``variance_initial`` — the decay the protocol
  is run for.

The finalize hook folds these into sweep-level flags (``mass_conserved``,
``spread_monotone``), so a broken clock or kernel shows up as a failed
scenario, not just a noisy plot.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..graphs.erdos_renyi import paper_edge_probability
from ..graphs.generators import GraphSpec
from .config import PushSumConfig
from .runner import push_sum_task
from .scenarios import ScenarioSpec, register

__all__ = ["PUSHSUM_COLUMNS", "PUSHSUM"]

#: Columns of the aggregated push-sum rows.
PUSHSUM_COLUMNS = (
    "n",
    "clock",
    "rounds",
    "events",
    "sim_time",
    "messages_per_node",
    "mass_error",
    "variance_final",
    "spread_final",
    "converged",
    "repetitions",
)


def _configurations(config: PushSumConfig) -> List[Tuple[Tuple[int, str], Dict]]:
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
        for clock in config.clocks:
            configurations.append(
                (
                    (n, clock),
                    {
                        "graph_spec": spec.as_dict(),
                        "clock": clock,
                        "tolerance": config.tolerance,
                        "base_seed": config.seed,
                    },
                )
            )
    return configurations


def _finalize(
    rows: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    config: PushSumConfig,
) -> Dict[str, Any]:
    """Surface the exact invariants as sweep-level pass/fail flags."""
    for row in rows:
        members = [
            r
            for r in records
            if r["n"] == row["n"] and r["clock"] == row["clock"]
        ]
        row["converged"] = all(r["converged"] for r in members)
    return {
        "mass_conserved": all(r["mass_error"] <= 1e-9 for r in records),
        "spread_monotone": all(r["spread_monotone"] for r in records),
        "variance_decayed": all(
            r["variance_final"] <= r["variance_initial"] for r in records
        ),
    }


PUSHSUM = register(
    ScenarioSpec(
        name="pushsum",
        result_name="pushsum",
        description=(
            "Push-sum averaging under the synchronous and event clocks: "
            "convergence cost per size with mass-conservation and "
            "monotone-spread invariants checked per run"
        ),
        task=push_sum_task,
        grid=_configurations,
        default_config=PushSumConfig,
        cli_config=lambda seed: PushSumConfig(
            seed=20150532 if seed is None else seed
        ),
        smoke_config=lambda seed: PushSumConfig(
            sizes=(96, 128),
            repetitions=1,
            seed=20150532 if seed is None else seed,
        ),
        group_by=("n", "clock"),
        metrics=(
            "rounds",
            "events",
            "sim_time",
            "messages_per_node",
            "mass_error",
            "variance_final",
            "spread_final",
        ),
        finalize=_finalize,
        metadata=lambda config: {
            "sizes": list(config.sizes),
            "clocks": list(config.clocks),
            "tolerance": config.tolerance,
            "repetitions": config.repetitions,
            "seed": config.seed,
            "density_exponent": config.density_exponent,
        },
        columns=PUSHSUM_COLUMNS,
        render={
            "x": "n",
            "y": "messages_per_node",
            "group_by": "clock",
            "log_x": True,
        },
    )
)
