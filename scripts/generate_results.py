#!/usr/bin/env python
"""Regenerate every reproduced table/figure and persist the rows under results/.

Runs every scenario in the declarative registry at the default laptop scale
(with a couple of historical overrides), saves the aggregated rows as
JSON/CSV, appends each run's raw records to the JSONL result store under
``results/store/``, and prints the tables so the numbers quoted in the
documentation can be re-derived with one command::

    python scripts/generate_results.py [output_dir]

Every sweep runs with ``resume=True``, so rerunning the same command after
an interruption resumes it: records already in the store are reused.
``repro scenarios run <name> --resume`` would not do the same, because it
runs the scenario's ``cli`` profile rather than the default scale.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.experiments import (
    RobustnessConfig,
    all_scenarios,
    resolve_config,
    run_scenario,
    write_report,
)
from repro.io import ResultStore

#: Scenario order of the report (paper artifacts first, extensions after).
SCENARIO_ORDER = (
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "table1",
    "density",
    "broadcast",
    "parameters",
    "redundancy",
    "graph-models",
    "election",
)

#: Historical config overrides (kept from the pre-registry script).
CONFIG_OVERRIDES = {
    "redundancy": RobustnessConfig(size=1024, repetitions=3),
}


def main(output_dir: str = "results") -> None:
    """Run all registered scenarios and persist their rows under ``output_dir``."""
    out = Path(output_dir)
    specs = {spec.name: spec for spec in all_scenarios()}
    results = []
    with ResultStore(out / "store") as store:
        for name in SCENARIO_ORDER:
            spec = specs[name]
            config = CONFIG_OVERRIDES.get(name)
            if config is None:
                config = resolve_config(spec, profile="default")
            start = time.time()
            result = run_scenario(
                spec,
                config=config,
                store=store if spec.run_override is None else None,
                resume=True,
            )
            result.save(out)
            results.append(result)
            elapsed = time.time() - start
            print(f"\n### {name} ({elapsed:.1f}s)\n")
            print(result.to_table())
            sys.stdout.flush()
        # Inside the with-block so the store-overview section can be served
        # from the store's query index before the connection closes.
        report_path = write_report(
            results,
            out / "REPORT.md",
            title="Randomized gossiping reproduction — combined report",
            preamble=(
                "Generated by scripts/generate_results.py; see EXPERIMENTS.md for the "
                "paper-vs-measured discussion of every table and figure."
            ),
            auto_plots=True,
            store=store,
        )
    print(f"\nwrote combined report: {report_path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "results")
