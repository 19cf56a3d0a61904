"""Analysis toolkit: theoretical bounds, run statistics, sweeps, ASCII plots."""

from .ascii_plot import AsciiPlot, Series, plot_experiment_rows, plot_series
from .bounds import (
    broadcast_messages_per_node_complete,
    broadcast_messages_per_node_sparse,
    fast_gossiping_messages_per_node,
    fast_gossiping_rounds,
    fit_constant,
    gossip_lower_bound_messages,
    leader_election_messages_per_node,
    memory_gossiping_messages_per_node,
    memory_gossiping_rounds,
    push_pull_gossip_messages_per_node,
    push_pull_gossip_rounds,
    shape_correlation,
)
from .statistics import SampleStatistics, aggregate_records, summarize
from .supervisor import RetryPolicy, SweepReport, TaskFailure, run_supervised_sweep
from .sweep import SweepTask, expand_grid, run_sweep

__all__ = [
    "AsciiPlot",
    "Series",
    "plot_experiment_rows",
    "plot_series",
    "broadcast_messages_per_node_complete",
    "broadcast_messages_per_node_sparse",
    "fast_gossiping_messages_per_node",
    "fast_gossiping_rounds",
    "fit_constant",
    "gossip_lower_bound_messages",
    "leader_election_messages_per_node",
    "memory_gossiping_messages_per_node",
    "memory_gossiping_rounds",
    "push_pull_gossip_messages_per_node",
    "push_pull_gossip_rounds",
    "shape_correlation",
    "SampleStatistics",
    "aggregate_records",
    "summarize",
    "RetryPolicy",
    "SweepReport",
    "TaskFailure",
    "run_supervised_sweep",
    "SweepTask",
    "expand_grid",
    "run_sweep",
]
