#!/usr/bin/env python
"""Robustness study: how many messages survive crashed nodes? (Figures 2/3/5.)

Reproduces a laptop-sized slice of the paper's robustness experiments: the
memory-model protocol builds three independent communication trees, a varying
number of nodes crash right before the gathering phase, and we measure how
many *healthy* nodes' original messages nevertheless fail to reach the leader.

Run with::

    python examples/robustness_study.py [n] [repetitions]
"""

from __future__ import annotations

import sys

from repro.experiments import RobustnessConfig, RobustnessDetailConfig, run_scenario
from repro.io import format_records


def main(n: int = 1024, repetitions: int = 3) -> None:
    """Run the Figure 2-style ratio sweep and the Figure 5-style exceedance sweep."""
    ratio_config = RobustnessConfig(
        size=n,
        failed_fractions=(0.0, 0.05, 0.1, 0.2, 0.3, 0.4),
        repetitions=repetitions,
    )
    ratio = run_scenario("figure2", config=ratio_config)
    print(
        ratio.to_table(
            ("n", "failed", "failed_fraction", "additional_lost", "loss_ratio"),
            title="Additional lost messages per failed node (Figure 2 style)",
        )
    )
    print()

    detail_config = RobustnessDetailConfig(
        sizes=(n,),
        failed_fractions=(0.05, 0.2, 0.4),
        thresholds=(0, 10, 100),
        repetitions=repetitions,
    )
    detail = run_scenario("figure5", config=detail_config)
    print(
        format_records(
            detail.rows,
            ("n", "failed", "exceed_T0", "exceed_T10", "exceed_T100"),
            title="Fraction of runs losing more than T extra messages (Figure 5 style)",
        )
    )
    print()
    print(
        "Paper's qualitative finding: losses stay negligible until a large\n"
        "fraction of the network fails; the three independent trees provide\n"
        "enough redundancy for small failure counts."
    )


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 1024
    reps = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    main(size, reps)
