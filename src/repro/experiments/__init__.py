"""Experiment harness: a declarative scenario registry and its one runner.

Every paper table/figure and every extension is registered as a
:class:`~repro.experiments.scenarios.ScenarioSpec` — grid, task function,
aggregation recipe and render hints — and executed by
:func:`~repro.experiments.scenarios.run_scenario`, optionally against the
resumable on-disk result store (:class:`repro.io.store.ResultStore`).
``run_scenario(name)`` uses the scenario's library-scale default config;
``run_scenario(name, config=...)`` runs any other scale.  It returns an
:class:`~repro.experiments.runner.ExperimentResult` whose rows correspond to
the points of the paper's plot (or the rows of its table); call
``result.to_table()`` for a printable report or ``result.save(dir)`` to
persist the rows as JSON/CSV.
"""

from .churn import CHURN_COLUMNS
from .config import (
    BroadcastAblationConfig,
    ChurnConfig,
    DensitySweepConfig,
    LeaderElectionConfig,
    ParameterAblationConfig,
    PushSumConfig,
    RobustnessConfig,
    RobustnessDetailConfig,
    ScaleConfig,
    SizeSweepConfig,
)
from .figure1 import FIGURE1_COLUMNS
from .figure2 import FIGURE2_COLUMNS
from .figure3 import FIGURE3_COLUMNS, Figure3Config
from .figure4 import FIGURE4_COLUMNS
from .report import (
    build_report,
    experiment_section,
    markdown_table,
    scenario_plot,
    write_report,
)
from .push_sum import PUSHSUM_COLUMNS
from .runner import ExperimentResult, aggregate_records, make_protocol
from .scale import SCALE_COLUMNS
from .scenarios import (
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    register,
    resolve_config,
    run_scenario,
    scenario_names,
)
from .table1 import TABLE1_COLUMNS

__all__ = [
    "BroadcastAblationConfig",
    "ChurnConfig",
    "CHURN_COLUMNS",
    "DensitySweepConfig",
    "LeaderElectionConfig",
    "ParameterAblationConfig",
    "PushSumConfig",
    "PUSHSUM_COLUMNS",
    "RobustnessConfig",
    "RobustnessDetailConfig",
    "ScaleConfig",
    "SizeSweepConfig",
    "FIGURE1_COLUMNS",
    "FIGURE2_COLUMNS",
    "FIGURE3_COLUMNS",
    "Figure3Config",
    "FIGURE4_COLUMNS",
    "SCALE_COLUMNS",
    "build_report",
    "experiment_section",
    "markdown_table",
    "scenario_plot",
    "write_report",
    "ExperimentResult",
    "aggregate_records",
    "make_protocol",
    "ScenarioSpec",
    "all_scenarios",
    "get_scenario",
    "register",
    "resolve_config",
    "run_scenario",
    "scenario_names",
    "TABLE1_COLUMNS",
]
