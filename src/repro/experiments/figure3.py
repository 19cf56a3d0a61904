"""Experiment E4 — Figure 3: robustness at two additional graph sizes.

Figure 3 of the paper repeats the Figure 2 robustness study on graphs of
100,000 and 500,000 nodes, confirming that the loss-ratio curve has the same
shape across scales.  The reproduction runs the identical sweep on two
(smaller) sizes and reports the same ratio series per size.

The scenario expresses the multi-size study as a single grid whose keys are
``(n, failed)`` — seeds derive from a stable hash of the key, so every
(size, failure-count) cell keeps its trajectory no matter which other sizes
are in the grid.  :class:`Figure3Config` holds Figure 2's failure fractions,
tree count, repetitions and seed, with a ``sizes`` list in place of Figure 2's
single ``size``.  Run it with ``run_scenario("figure3", config=Figure3Config(...))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..graphs.generators import paper_graph_spec
from .config import RobustnessConfig
from .figure2 import FIGURE2_COLUMNS
from .runner import robustness_task
from .scenarios import ScenarioSpec, register

__all__ = [
    "FIGURE3_COLUMNS",
    "FIGURE3",
    "Figure3Config",
]

FIGURE3_COLUMNS = FIGURE2_COLUMNS


@dataclass(frozen=True)
class Figure3Config:
    """The Figure 2 robustness study over a list of sizes (one sweep, many sizes).

    Attributes
    ----------
    sizes:
        Graph sizes (the paper uses 10^5 and 5*10^5).
    failed_fractions:
        Failed-node counts expressed as fractions of each size.
    num_trees:
        Independently built communication trees (3 in the paper).
    repetitions:
        Runs per (size, failure count).
    seed:
        Base seed; all runs derive their seeds deterministically from it.
    """

    sizes: Tuple[int, ...] = (1024, 2048)
    failed_fractions: Tuple[float, ...] = RobustnessConfig.failed_fractions
    num_trees: int = 3
    repetitions: int = 3
    seed: Optional[int] = 20150526


def _configurations(config: Figure3Config) -> List[Tuple[Tuple[int, int], Dict]]:
    configurations = []
    for size in config.sizes:
        spec = paper_graph_spec(int(size))
        for fraction in config.failed_fractions:
            failed = int(round(size * fraction))
            configurations.append(
                (
                    (int(size), failed),
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
    config: Figure3Config,
) -> None:
    for row in rows:
        row["failed_fraction"] = row["failed"] / row["n"]


FIGURE3 = register(
    ScenarioSpec(
        name="figure3",
        result_name="figure3",
        description=(
            "Figure 3: robustness ratio (additional lost messages / F) vs F at "
            "two graph sizes"
        ),
        task=robustness_task,
        grid=_configurations,
        default_config=Figure3Config(),
        cli_config=Figure3Config(sizes=(512, 1024), repetitions=2),
        smoke_config=Figure3Config(sizes=(96, 128), failed_fractions=(0.1, 0.4), repetitions=1),
        group_by=("n", "failed"),
        metrics=("additional_lost", "loss_ratio"),
        finalize=_finalize,
        columns=FIGURE3_COLUMNS,
        render={"x": "failed", "y": "loss_ratio", "group_by": "n", "log_x": False},
    )
)
