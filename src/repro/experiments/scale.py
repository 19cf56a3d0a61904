"""Extension experiment — storage-layout scaling beyond the dense ceiling.

The paper simulates graphs up to n = 10⁶ on half-terabyte machines; the
reproduction's dense knowledge matrix walls off well before that (the matrix
alone is ``n² / 8`` bytes).  This scenario sweeps one protocol across sizes
under each pluggable knowledge-storage layout
(:mod:`repro.engine.layouts`: ``dense`` / ``paged``) and records
rounds, per-node message cost and the storage each layout holds at the end
of the run.

Because trajectories are bit-identical across layouts, the rounds and message
columns must agree within each size — the sweep doubles as a large-n
cross-layout consistency check, while the ``storage_mb`` column shows what
each layout pays for it.  On the exchange protocols (the default
push-pull, fast-gossiping) that includes the swap buffer for ``paged`` as
well as ``dense``: both keep it after an exchange round, and only the
memory model's push rounds never allocate it.  ``scale --smoke`` keeps
CI-friendly sizes; ``ScaleConfig.paper_scale()`` moves to the n >= 100k
regime.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Tuple

from ..analysis.sweep import SweepTask, stable_key_hash
from ..engine.rng import derive_seed
from ..graphs.erdos_renyi import paper_edge_probability
from ..graphs.generators import GraphSpec
from .config import ScaleConfig
from .runner import gossip_task
from .scenarios import ScenarioSpec, register

__all__ = ["SCALE_COLUMNS", "SCALE"]

#: Columns of the aggregated scale rows.
SCALE_COLUMNS = (
    "n",
    "knowledge_layout",
    "rounds",
    "messages_per_node",
    "storage_mb",
    "completed",
    "repetitions",
)


def scale_task(task: SweepTask) -> Dict[str, Any]:
    """``gossip_task`` with a layout-independent simulation seed.

    Sweep seeds normally derive from the configuration key, which here
    includes the layout — that would hand every layout a different graph and
    call sequence, defeating the cross-layout comparison.  Re-derive the seed
    from the size alone so all layouts of one size run the *same* trajectory
    (bit-identical by the storage contract) and only memory/speed differ.
    """
    seed = derive_seed(
        task.params["base_seed"],
        stable_key_hash(("scale", task.params["graph_spec"]["n"])),
        task.repetition,
    )
    return gossip_task(replace(task, seed=seed))


def _configurations(config: ScaleConfig) -> List[Tuple[Tuple[int, str], Dict]]:
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
        for layout in config.layouts:
            options: Dict[str, object] = {}
            if config.protocol == "memory":
                options = {"leader": 0}
            configurations.append(
                (
                    (n, layout),
                    {
                        "graph_spec": spec.as_dict(),
                        "protocol": config.protocol,
                        "protocol_options": options,
                        "knowledge_layout": layout,
                        "base_seed": config.seed,
                    },
                )
            )
    return configurations


def _finalize(
    rows: List[Dict[str, Any]],
    records: List[Dict[str, Any]],
    config: ScaleConfig,
) -> Dict[str, Any]:
    """Assert the cross-layout invariance the storage contract promises."""
    consistent = True
    for n in {row["n"] for row in rows}:
        group = [row for row in rows if row["n"] == n]
        if len({(row["rounds"], row["messages_per_node"]) for row in group}) > 1:
            consistent = False
    for row in rows:
        row["completed"] = all(
            r["completed"]
            for r in records
            if r["n"] == row["n"]
            and r["knowledge_layout"] == row["knowledge_layout"]
        )
    return {"layouts_consistent": consistent}


SCALE = register(
    ScenarioSpec(
        name="scale",
        result_name="scale",
        description=(
            "Storage-layout scaling: one protocol per size under the dense "
            "and paged knowledge layouts — identical trajectories, different "
            "memory footprints"
        ),
        task=scale_task,
        grid=_configurations,
        default_config=ScaleConfig.quick,
        cli_config=lambda seed: ScaleConfig(
            seed=20150525 if seed is None else seed
        ),
        smoke_config=lambda seed: ScaleConfig(
            sizes=(96, 128),
            repetitions=1,
            seed=20150525 if seed is None else seed,
        ),
        group_by=("n", "knowledge_layout"),
        metrics=("rounds", "messages_per_node", "storage_mb"),
        finalize=_finalize,
        metadata=lambda config: {
            "sizes": list(config.sizes),
            "layouts": list(config.layouts),
            "protocol": config.protocol,
            "repetitions": config.repetitions,
            "seed": config.seed,
            "density_exponent": config.density_exponent,
        },
        columns=SCALE_COLUMNS,
        render={
            "x": "n",
            "y": "storage_mb",
            "group_by": "knowledge_layout",
            "log_x": True,
        },
    )
)
