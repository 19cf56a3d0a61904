"""The paper's qualitative findings, checked at quick scale (n <= 2048).

Each test regenerates one table, figure or extension of Elsässer & Kaaser
(IPDPS 2015) through :func:`repro.experiments.run_scenario` and asserts the
shape the paper reports: the protocol ordering of Figure 1, the robustness
curves of Figures 2, 3 and 5, the flat cost across densities, and the
hand-checked Table 1 constants at n = 10^6.
"""

from __future__ import annotations

from repro.experiments import (
    BroadcastAblationConfig,
    DensitySweepConfig,
    Figure3Config,
    LeaderElectionConfig,
    ParameterAblationConfig,
    RobustnessConfig,
    RobustnessDetailConfig,
    SizeSweepConfig,
    default_figure4_config,
    run_scenario,
)


def test_figure1_protocol_ordering():
    """Fig. 1: memory < fast-gossiping < push-pull at every n; memory stays small."""
    config = SizeSweepConfig(sizes=(256, 512, 1024, 2048), repetitions=2)
    result = run_scenario("figure1", config=config)
    assert all(row["completed"] for row in result.rows)
    for n in {row["n"] for row in result.rows}:
        cost = {row["protocol"]: row["messages_per_node"] for row in result.rows if row["n"] == n}
        assert cost["memory"] < cost["fast-gossiping"] < cost["push-pull"]
    memory_costs = [row["messages_per_node"] for row in result.rows if row["protocol"] == "memory"]
    assert max(memory_costs) < 12.0


def test_figure2_loss_ratio_shape():
    """Fig. 2: no loss without failures, ~0 for small F, growing with F."""
    config = RobustnessConfig(
        size=1024, failed_fractions=(0.0, 0.05, 0.1, 0.2, 0.4), repetitions=2
    )
    rows = sorted(run_scenario("figure2", config=config).rows, key=lambda row: row["failed"])
    assert rows[0]["additional_lost"] == 0.0
    # Small failure counts lose (almost) nothing thanks to the 3-tree redundancy.
    assert all(row["loss_ratio"] <= 0.05 for row in rows if row["failed_fraction"] <= 0.05)
    assert rows[-1]["loss_ratio"] >= rows[0]["loss_ratio"]


def test_figure3_same_shape_at_both_sizes():
    """Fig. 3: the Figure 2 curve keeps its shape at two graph sizes."""
    config = Figure3Config(
        size=512, sizes=(512, 1024), failed_fractions=(0.0, 0.1, 0.3), repetitions=2
    )
    result = run_scenario("figure3", config=config)
    for n in (512, 1024):
        series = sorted(
            (row for row in result.rows if row["n"] == n), key=lambda row: row["failed"]
        )
        assert series[0]["additional_lost"] == 0.0
        assert series[-1]["loss_ratio"] >= series[0]["loss_ratio"]


def test_figure4_cost_envelope():
    """Fig. 4: fast-gossiping's cost moves in plateaus inside a narrow envelope."""
    result = run_scenario("figure4", config=default_figure4_config())
    costs = [row["messages_per_node"] for row in result.rows]
    assert max(costs) < 3 * min(costs)
    assert "within_plateau_deltas" in result.metadata


def test_figure5_exceedance_ordering():
    """Fig. 5: exceedance is monotone in T and zero at T=100 for few failures."""
    config = RobustnessDetailConfig(
        sizes=(512, 1024),
        thresholds=(0, 10, 100),
        failed_fractions=(0.05, 0.2, 0.4),
        repetitions=3,
    )
    rows = run_scenario("figure5", config=config).rows
    for row in rows:
        assert row["exceed_T100"] <= row["exceed_T10"] <= row["exceed_T0"]
    assert all(row["exceed_T100"] == 0.0 for row in rows if row["failed_fraction"] <= 0.05)


def test_table1_constants_at_a_million_nodes():
    """Table 1 resolved at n = 10^6 (log2 n ~ 19.93, log log n ~ 4.32)."""
    result = run_scenario("table1", config=[1024, 4096, 16384, 65536, 10**6])
    value = {(row["n"], row["algorithm"], row["limit"]): row["value"] for row in result.rows}
    fast, memory = "algorithm1_fast_gossiping", "algorithm2_memory_model"
    assert value[(10**6, fast, "number of steps")] == 6
    assert value[(10**6, fast, "number of rounds")] == 5
    assert value[(10**6, memory, "first loop, number of steps (multiple of 4)")] == 40
    assert value[(10**6, memory, "number of push steps")] == 19


def test_density_flatness():
    """The paper's thesis: per-node cost is flat from log^2 n degree to complete."""
    result = run_scenario("density", config=DensitySweepConfig(size=512, repetitions=2))
    flatness = result.metadata["max_over_min_cost_ratio"]
    assert flatness["memory"] < 2.0
    assert flatness["fast-gossiping"] < 2.5
    assert flatness["push-pull"] < 2.0


def test_gossip_cost_is_topology_insensitive():
    """Memory-model gossiping costs the same on sparse and complete graphs."""
    config = BroadcastAblationConfig(sizes=(256, 512, 1024), repetitions=2)
    result = run_scenario("broadcast", config=config)
    rows = [row for row in result.rows if row["task"] == "gossip-memory"]
    for n in {row["n"] for row in rows}:
        cost = {row["topology"]: row["messages_per_node"] for row in rows if row["n"] == n}
        assert abs(cost["sparse"] - cost["complete"]) <= 0.35 * cost["complete"]
    assert max(row["messages_per_node"] for row in rows) < 10.0


def test_parameter_ablation_spans_a_tradeoff():
    """Section 5: every parameterisation completes, at visibly different costs."""
    config = ParameterAblationConfig(
        size=512,
        walk_probability_factors=(0.5, 1.0, 2.0),
        broadcast_steps_factors=(0.5, 1.0),
        repetitions=2,
    )
    rows = run_scenario("parameters", config=config).rows
    assert all(row["completed"] for row in rows)
    costs = [row["messages_per_node"] for row in rows]
    assert max(costs) > min(costs)


def test_redundant_gather_is_more_robust():
    """All-contacts gathering loses no more than the strict first-contact tree."""
    config = RobustnessConfig(size=1024, failed_fractions=(0.0, 0.1, 0.3), repetitions=2)
    rows = run_scenario("redundancy", config=config).rows
    row = {(r["gather_contacts"], r["failed"]): r for r in rows}
    largest = max(r["failed"] for r in rows)
    assert row[("all", 0)]["additional_lost"] == 0.0
    assert row[("first", 0)]["additional_lost"] == 0.0
    assert row[("first", largest)]["additional_lost"] >= row[("all", largest)]["additional_lost"]
    assert row[("all", 0)]["messages_per_node"] >= row[("first", 0)]["messages_per_node"]


def test_leader_election_unique_and_budgeted_cheaper():
    """Algorithm 3: one leader per run; the budgeted variant sends fewer packets."""
    config = LeaderElectionConfig(sizes=(256, 512, 1024), repetitions=2)
    rows = run_scenario("election", config=config).rows
    assert all(row["unique_fraction"] == 1.0 for row in rows)
    for n in {row["n"] for row in rows}:
        cost = {row["variant"]: row["messages_per_node"] for row in rows if row["n"] == n}
        assert cost["budgeted"] < cost["pseudocode"]


def test_graph_models_agree():
    """Section 1.3: Erdős–Rényi and configuration-model graphs behave alike."""
    config = SizeSweepConfig(sizes=(512, 1024), repetitions=2)
    result = run_scenario("graph-models", config=config)
    for gap in result.metadata["relative_gaps"]:
        assert gap["relative_gap"] < 0.35, gap
