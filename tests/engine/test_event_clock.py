"""Tests for the event-clock scheduler and its determinism contract.

The contract (module docstring of :mod:`repro.engine.event_clock`):

* the event stream is a pure function of (seed, graph) — chunk size and
  kernel backend never touch the generator,
* groups are maximal non-colliding prefixes: all ``2k`` endpoints pairwise
  distinct, callers sorted (the ``apply_exchange`` precondition),
* batched group application is bit-identical to applying the wakeups one at
  a time (pinned here against a sequential replay, and on random event lists
  by ``tests/harness/``),
* whole event-clock runs are bit-identical across every kernel backend at
  equal seeds,
* churn plans are seeded data that the scheduler applies itself;
  membership only changes at forced group boundaries and dead nodes are
  thinned from the stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PushPullGossip, PushPullParameters
from repro.engine import _ckernel, backends
from repro.engine.event_clock import (
    ChurnPlan,
    EventScheduler,
    group_events,
    sample_churn_plan,
)
from repro.engine.knowledge import KnowledgeMatrix
from repro.graphs import erdos_renyi, paper_edge_probability


@pytest.fixture(scope="module")
def graph():
    n = 96
    return erdos_renyi(n, paper_edge_probability(n), rng=7, require_connected=True)


def churn_plan(indices, nodes, joins):
    return ChurnPlan(
        indices=np.asarray(indices, dtype=np.int64),
        nodes=np.asarray(nodes, dtype=np.int64),
        joins=np.asarray(joins, dtype=bool),
    )


def collect_groups(graph, seed, **kwargs):
    scheduler = EventScheduler(
        graph, np.random.default_rng(seed), max_events=600, **kwargs
    )
    return list(scheduler.rounds()), scheduler


class TestStreamDeterminism:
    def test_identical_streams_at_equal_seeds(self, graph):
        a, _ = collect_groups(graph, 42)
        b, _ = collect_groups(graph, 42)
        assert len(a) == len(b)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.callers, gb.callers)
            assert np.array_equal(ga.targets, gb.targets)
            assert np.array_equal(ga.openers, gb.openers)
            assert ga.end_time == gb.end_time
            assert ga.end_index == gb.end_index

    def test_different_seeds_differ(self, graph):
        a, _ = collect_groups(graph, 42)
        b, _ = collect_groups(graph, 43)
        assert any(
            not np.array_equal(ga.callers, gb.callers) for ga, gb in zip(a, b)
        )

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1024])
    def test_stream_discipline_and_border_carry(self, graph, chunk):
        """The documented contract, replayed by hand: per chunk the
        generator yields gaps, then owners, then callees, and grouping the
        resulting stream in one :func:`group_events` pass reproduces the
        scheduler's partition exactly.  Varying the chunk size puts borders
        inside almost every group, so a scheduler that reset its
        duplicate-tracking state at chunk borders would diverge here."""
        budget = 600
        rng = np.random.default_rng(42)
        owners: list = []
        callees: list = []
        drawn = 0
        while drawn < budget:
            k = min(chunk, budget - drawn)
            rng.exponential(1.0 / graph.n, k)
            chunk_owners = rng.integers(0, graph.n, size=k)
            owners.extend(chunk_owners.tolist())
            callees.extend(graph.sample_neighbors(chunk_owners, rng).tolist())
            drawn += k
        expected = group_events(owners, callees, graph.n)

        groups, _ = collect_groups(graph, 42, chunk_events=chunk)
        emitted = [
            (g.callers.tolist(), g.targets.tolist()) for g in groups if g.size
        ]
        assert len(emitted) == len(expected)
        for (gc, gt), (rc, rt) in zip(emitted, expected):
            assert gc == rc.tolist()
            assert gt == rt.tolist()

    def test_budget_is_respected(self, graph):
        groups, scheduler = collect_groups(graph, 42)
        assert scheduler.events == 600
        assert sum(g.size for g in groups) <= 600
        assert groups[-1].end_index <= 600

    def test_times_increase(self, graph):
        groups, scheduler = collect_groups(graph, 42)
        times = [g.end_time for g in groups if g.size]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert scheduler.time >= times[-1]


class TestGroupInvariants:
    def test_groups_are_non_colliding_and_sorted(self, graph):
        groups, _ = collect_groups(graph, 42)
        assert sum(g.size for g in groups) > 0
        for g in groups:
            endpoints = np.concatenate([g.callers, g.targets])
            assert np.unique(endpoints).size == endpoints.size
            assert np.all(np.diff(g.callers) > 0)

    def test_groups_are_maximal(self, graph):
        """A collision boundary means the next event collides with the group."""
        groups, _ = collect_groups(graph, 42)
        for prev, nxt in zip(groups, groups[1:]):
            if prev.forced or nxt.size == 0:
                continue
            # The first event of the next group must share an endpoint with
            # the previous group, otherwise the boundary was premature.
            prev_nodes = set(prev.callers.tolist()) | set(prev.targets.tolist())
            collides = any(
                c in prev_nodes or t in prev_nodes
                for c, t in zip(nxt.callers.tolist(), nxt.targets.tolist())
            )
            assert collides

    def test_group_events_matches_scheduler_rule(self):
        callers = [0, 2, 4, 0, 1, 3]
        targets = [1, 3, 5, 2, 5, 4]
        groups = group_events(callers, targets, 6)
        # 0-1, 2-3, 4-5 are disjoint; the fourth event (0-2) collides.
        assert [g[0].tolist() for g in groups] == [[0, 2, 4], [0, 1, 3]]
        for c, t in groups:
            endpoints = np.concatenate([c, t])
            assert np.unique(endpoints).size == endpoints.size

    def test_group_events_rejects_self_events(self):
        with pytest.raises(ValueError, match="itself"):
            group_events([1], [1], 4)

    def test_boundaries_fall_at_churn_indices(self, graph):
        plan = churn_plan([100, 300], [5, 5], [False, True])
        groups, _ = collect_groups(graph, 42, churn=plan)
        forced_indices = [g.end_index for g in groups if g.forced]
        assert 100 in forced_indices
        assert 300 in forced_indices

    def test_boundaries_that_change_no_liveness_keep_the_stream(self, graph):
        """Churn boundaries re-cut groups but never consume randomness: with
        edits that re-join nodes already alive, the flattened event sequence
        is identical with and without the plan."""

        def flat(groups):
            pairs = []
            for g in groups:
                pairs.extend(zip(g.callers.tolist(), g.targets.tolist()))
            return pairs

        plan = churn_plan([50, 51, 200], [1, 2, 3], [True, True, True])
        plain, _ = collect_groups(graph, 42)
        rejoined, _ = collect_groups(graph, 42, churn=plan)
        assert {50, 51, 200} <= {g.end_index for g in rejoined if g.forced}
        assert len(rejoined) > len(plain)
        assert sorted(flat(plain)) == sorted(flat(rejoined))


class TestLiveness:
    def test_dead_owner_is_thinned(self, graph):
        alive = np.ones(graph.n, dtype=bool)
        alive[5] = False
        groups, _ = collect_groups(graph, 42, alive=alive)
        for g in groups:
            assert 5 not in g.callers
            assert 5 not in g.openers

    def test_dead_callee_opens_channel_but_no_exchange(self, graph):
        alive = np.ones(graph.n, dtype=bool)
        alive[5] = False
        groups, _ = collect_groups(graph, 42, alive=alive)
        openers = np.concatenate([g.openers for g in groups])
        exchanges = sum(g.size for g in groups)
        # Dead callees are never exchange targets, yet their callers still
        # opened a channel: strictly more opens than exchanges.
        for g in groups:
            assert 5 not in g.targets
        assert openers.size > exchanges

    def test_rejoined_node_calls_again(self, graph):
        alive = np.ones(graph.n, dtype=bool)
        alive[5] = False
        groups, _ = collect_groups(
            graph, 42, alive=alive, churn=churn_plan([300], [5], [True])
        )
        before = [g for g in groups if g.end_index <= 300]
        after = [g for g in groups if g.end_index > 300]
        assert not any(5 in g.openers for g in before)
        assert any(5 in g.callers for g in after)

    def test_validation(self, graph):
        with pytest.raises(ValueError, match="max_events"):
            EventScheduler(graph, np.random.default_rng(0), max_events=0)
        with pytest.raises(ValueError, match="chunk_events"):
            EventScheduler(
                graph, np.random.default_rng(0), max_events=1, chunk_events=0
            )


class TestChurnPlan:
    def test_sampling_is_deterministic(self):
        a = sample_churn_plan(64, leavers=10, rng=9, horizon=500)
        b = sample_churn_plan(64, leavers=10, rng=9, horizon=500)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.joins, b.joins)

    def test_plan_shape(self):
        plan = sample_churn_plan(64, leavers=10, rng=9, horizon=500)
        assert len(plan) >= 10
        assert np.all(np.diff(plan.indices) >= 0)
        leaves = plan.nodes[~plan.joins]
        assert np.unique(leaves).size == 10
        # Every rejoin is a node that left, strictly later than its leave.
        for node in plan.nodes[plan.joins].tolist():
            left_at = plan.indices[(plan.nodes == node) & ~plan.joins][0]
            back_at = plan.indices[(plan.nodes == node) & plan.joins][0]
            assert back_at > left_at

    def test_final_alive(self):
        plan = ChurnPlan(
            indices=np.asarray([10, 20, 30], dtype=np.int64),
            nodes=np.asarray([3, 3, 4], dtype=np.int64),
            joins=np.asarray([False, True, False]),
        )
        final = plan.final_alive(np.ones(6, dtype=bool))
        assert final[3]  # left, came back
        assert not final[4]  # left for good
        assert final.sum() == 5

    def test_zero_leavers(self):
        plan = sample_churn_plan(64, leavers=0, rng=9, horizon=500)
        assert len(plan) == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="leavers"):
            sample_churn_plan(8, leavers=8, rng=1, horizon=100)
        with pytest.raises(ValueError, match="ascending"):
            ChurnPlan(
                indices=np.asarray([20, 10], dtype=np.int64),
                nodes=np.asarray([1, 2], dtype=np.int64),
                joins=np.asarray([False, False]),
            )


class TestBatchedEqualsSequential:
    def test_group_replay_matches_one_event_at_a_time(self, graph):
        """The tentpole equivalence: batched apply_exchange per group is
        bit-identical to a per-wakeup pure replay of the same stream."""
        batched = KnowledgeMatrix(graph.n)
        sequential = KnowledgeMatrix(graph.n)
        scheduler = EventScheduler(
            graph, np.random.default_rng(11), max_events=4 * graph.n
        )
        for group in scheduler.rounds():
            if not group.size:
                continue
            batched.apply_exchange(group.callers, group.targets)
            for c, t in zip(group.callers.tolist(), group.targets.tolist()):
                sent = sequential.rows(np.asarray([c]))[0]
                pulled = sequential.rows(np.asarray([t]))[0]
                sequential.scatter_rows(sent[None], [0], [t])
                sequential.scatter_rows(pulled[None], [0], [c])
        assert batched.fingerprint() == sequential.fingerprint()


class TestWholeRunParity:
    """Event-clock runs are bit-identical across backends."""

    #: NumPy, the compiled kernels on one thread, and the compiled kernels
    #: forced to two shards on every batch.
    BACKENDS = {
        "numpy": backends.NumpyBackend(),
        "c": backends.CBackend(max_threads=1),
        "c-sharded": backends.CBackend(max_threads=2, shard_work=1),
    }

    def _fingerprint(self, graph, backend):
        with backends.use(self.BACKENDS[backend]):
            result = PushPullGossip(PushPullParameters(clock="event")).run(
                graph, rng=42
            )
        assert result.completed
        return (
            result.knowledge.fingerprint(),
            result.rounds,
            result.extras["events"],
            result.extras["sim_time"],
        )

    def test_bit_identical_across_backends(self, graph):
        reference = self._fingerprint(graph, "numpy")
        compiled = _ckernel.available()
        for backend in self.BACKENDS:
            if backend != "numpy" and not compiled:
                continue
            assert self._fingerprint(graph, backend) == reference, backend

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_event_groups_never_build_the_swap_buffer(self, backend):
        """Event groups carry far fewer than ``n / 4`` channels, so every
        group gathers and scatters: the run holds no swap buffer, and its
        bits stay pinned."""
        if backend != "numpy" and not _ckernel.available():
            pytest.skip("compiled kernel unavailable on this machine")
        n = 512
        graph = erdos_renyi(
            n, paper_edge_probability(n), rng=7, require_connected=True
        )
        with backends.use(self.BACKENDS[backend]):
            result = PushPullGossip().run(graph, rng=42, clock="event")
        assert result.completed
        assert result.rounds == 395
        assert result.extras["events"] == 5644
        assert result.knowledge.fingerprint() == (
            "0bf86c1fa00c9a796e06bc3240672e77e5c0a83e8df9a4520a7aff41a5c5e8be"
        )
        assert result.knowledge._scratch is None

    def test_event_run_reports_event_extras(self, graph):
        result = PushPullGossip().run(graph, rng=42, clock="event")
        assert result.extras["clock"] == "event"
        assert result.extras["events"] > 0
        assert result.extras["sim_time"] > 0.0
        assert result.completed

    def test_sync_and_event_clocks_are_different_processes(self, graph):
        sync = PushPullGossip().run(graph, rng=42)
        event = PushPullGossip().run(graph, rng=42, clock="event")
        assert sync.extras["clock"] == "sync"
        assert event.extras["clock"] == "event"
        assert sync.rounds != event.rounds


class TestClockSeam:
    def test_unknown_clock_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown clock"):
            PushPullGossip().run(graph, rng=1, clock="warped")

    def test_churn_requires_event_clock(self, graph):
        plan = sample_churn_plan(graph.n, leavers=4, rng=3, horizon=200)
        with pytest.raises(ValueError, match="event clock"):
            PushPullGossip().run(graph, rng=1, clock="sync", churn=plan)

    def test_params_clock_is_honored(self, graph):
        result = PushPullGossip(PushPullParameters(clock="event")).run(graph, rng=1)
        assert result.extras["clock"] == "event"

    def test_explicit_clock_overrides_params(self, graph):
        result = PushPullGossip(PushPullParameters(clock="event")).run(
            graph, rng=1, clock="sync"
        )
        assert result.extras["clock"] == "sync"


class TestChurnRuns:
    def test_churn_run_completes_for_survivors(self, graph):
        plan = sample_churn_plan(graph.n, leavers=8, rng=3, horizon=400)
        result = PushPullGossip().run(graph, rng=5, clock="event", churn=plan)
        assert result.completed
        assert result.extras["churn_ops"] == len(plan)
        final = plan.final_alive(np.ones(graph.n, dtype=bool))
        # Completion targets the finally-alive membership: every surviving
        # node knows every survivor's message (a node that left for good may
        # never have spread its own).
        survivor_mask = result.knowledge.row_with(np.flatnonzero(final).tolist())
        missing = result.knowledge.count_missing(
            survivor_mask, np.flatnonzero(final)
        )
        assert int(missing.sum()) == 0

    def test_churn_run_is_deterministic(self, graph):
        plan = sample_churn_plan(graph.n, leavers=8, rng=3, horizon=400)
        a = PushPullGossip().run(graph, rng=5, clock="event", churn=plan)
        b = PushPullGossip().run(graph, rng=5, clock="event", churn=plan)
        assert a.knowledge.fingerprint() == b.knowledge.fingerprint()
        assert a.rounds == b.rounds
        assert a.extras == b.extras

    def test_empty_churn_plan_matches_plain_event_run(self, graph):
        """A zero-op churn plan must not perturb the trajectory."""
        empty = sample_churn_plan(graph.n, leavers=0, rng=3, horizon=400)
        plain = PushPullGossip().run(graph, rng=5, clock="event")
        with_plan = PushPullGossip().run(graph, rng=5, clock="event", churn=empty)
        assert plain.knowledge.fingerprint() == with_plan.knowledge.fingerprint()
        assert plain.rounds == with_plan.rounds
