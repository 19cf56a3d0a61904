"""Experiment E6 — Table 1: the constants used in the simulations.

Table 1 of the paper lists the phase-length constants of Algorithms 1 and 2 as
functions of ``n`` ("The actual constants used in our simulation").  The
reproduction resolves exactly those formulas for a list of concrete sizes so
the resulting schedules can be inspected and compared with the paper's
formulas, and verifies the tuned presets round-trip through the parameter
dataclasses.

Table 1 is deterministic (no sweep, no randomness), so its scenario spec uses
a ``run_override`` rather than the sweep engine; the "config" is simply the
list of sizes, e.g. ``run_scenario("table1", config=[1024, 10**6])``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..core.parameters import table1_rows, tuned_fast_gossiping, tuned_memory_gossiping
from .runner import ExperimentResult
from .scenarios import ScenarioSpec, register

__all__ = ["TABLE1_COLUMNS", "TABLE1"]

TABLE1_COLUMNS = (
    "n",
    "algorithm",
    "phase",
    "limit",
    "value",
)

#: Human-readable layout mirroring Table 1 of the paper.
_TABLE1_LAYOUT = {
    "algorithm1_fast_gossiping": [
        ("I", "number of steps", "phase1_distribution_steps"),
        ("II", "number of rounds", "phase2_rounds"),
        ("II", "random walk probability", "phase2_walk_probability"),
        ("II", "number of random walk steps", "phase2_walk_steps"),
        ("II", "number of broadcast steps", "phase2_broadcast_steps"),
        ("III", "finish: push-pull until informed", None),
    ],
    "algorithm2_memory_model": [
        ("I", "first loop, number of steps (multiple of 4)", "phase1_push_steps"),
        ("I", "second loop, number of long-steps", "phase1_pull_longsteps"),
        ("II", "number of steps (corresponds to Phase I)", None),
        ("III", "number of push steps", "phase3_broadcast_steps"),
    ],
}


def run_table1(sizes: Optional[Sequence[int]] = None) -> ExperimentResult:
    """Reproduce Table 1: resolved schedule constants for concrete sizes."""
    sizes = list(sizes) if sizes is not None else [1024, 4096, 16384, 65536, 10**6]
    rows: List[Dict[str, object]] = []
    for n in sizes:
        resolved = table1_rows(int(n))
        for algorithm, layout in _TABLE1_LAYOUT.items():
            data = resolved[algorithm]
            for phase, limit, key in layout:
                rows.append(
                    {
                        "n": n,
                        "algorithm": algorithm,
                        "phase": phase,
                        "limit": limit,
                        "value": data.get(key) if key else "(runs until complete / replay)",
                    }
                )
    return ExperimentResult(
        name="table1",
        description="Table 1: simulation constants of Algorithms 1 and 2 resolved per n",
        rows=rows,
        metadata={
            "sizes": sizes,
            "fast_gossiping_defaults": tuned_fast_gossiping().__dict__,
            "memory_defaults": tuned_memory_gossiping().__dict__,
        },
    )


TABLE1 = register(
    ScenarioSpec(
        name="table1",
        result_name="table1",
        description="Table 1: simulation constants of Algorithms 1 and 2 resolved per n",
        smoke_config=(1024, 65536),
        columns=TABLE1_COLUMNS,
        run_override=run_table1,
    )
)
