"""Whole-protocol pins: saturation filtering and fused deficit recounts.

The drivers thread the :class:`CompletionTracker`'s complete-row mask into
``apply_exchange`` (saturation-filtered rounds) and its deficit array into
the swap-form kernels (fused in-kernel recounts).  Both are pure shortcuts:
a run with them stripped must produce the *same trajectory* — same rounds,
same completion, same ledger totals, bit-identical knowledge.  These tests
pin that on full protocol runs, for the synchronous and event clocks, and
check the one case where the filter must stay off: churn, where live rows
are no longer guaranteed subsets of the completion row.

The stripped runs are produced by monkeypatching
``KnowledgeMatrix.apply_exchange`` (and the memory protocol's broadcast
step-group helper) to drop the optional kwargs, which forces the plain
unfiltered / recount-in-Python paths of the very same kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FastGossiping, MemoryGossiping, PushPullGossip, erdos_renyi
from repro.core import memory_gossiping
from repro.engine.event_clock import sample_churn_plan
from repro.engine.knowledge import KnowledgeMatrix
from repro.graphs import paper_edge_probability


@pytest.fixture(autouse=True)
def _dense_layout(monkeypatch):
    # These pins target the dense driver shortcuts (the block layouts ignore
    # the fused kwargs and have their own filter path); neutralize any forced
    # storage layout from the surrounding CI environment.
    monkeypatch.setenv("REPRO_KNOWLEDGE_LAYOUT", "dense")


def _graph(n, rng):
    return erdos_renyi(n, paper_edge_probability(n), rng=rng, require_connected=True)


def _summary(result):
    return (result.rounds, result.completed, result.ledger.total())


def _strip_exchange_kwargs(monkeypatch, *, keep_filter=False):
    """Force plain exchanges: drop the filter and/or fused-deficit kwargs."""
    orig = KnowledgeMatrix.apply_exchange

    def stripped(self, callers, targets, *, complete=None, complete_row=None, **_):
        if keep_filter:
            return orig(
                self, callers, targets, complete=complete, complete_row=complete_row
            )
        return orig(self, callers, targets)

    monkeypatch.setattr(KnowledgeMatrix, "apply_exchange", stripped)


def _strip_replay_filter(monkeypatch):
    """Memory broadcast: replay every step group unfiltered."""
    orig = memory_gossiping._broadcast_group

    def plain(knowledge, senders, receivers, complete, complete_row):
        orig(knowledge, senders, receivers, None, None)

    monkeypatch.setattr(memory_gossiping, "_broadcast_group", plain)


class TestFilteredMatchesUnfiltered:
    def test_push_pull_sync(self, monkeypatch):
        graph = _graph(256, 11)
        a = PushPullGossip().run(graph, rng=5)
        assert a.completed
        assert a.knowledge.filter_stats["rounds"] > 0
        with pytest.MonkeyPatch.context() as mp:
            _strip_exchange_kwargs(mp)
            b = PushPullGossip().run(graph, rng=5)
        assert b.knowledge.filter_stats["rounds"] == 0
        assert _summary(a) == _summary(b)
        assert a.knowledge == b.knowledge

    def test_push_pull_event_clock(self, monkeypatch):
        graph = _graph(128, 12)
        a = PushPullGossip().run(graph, rng=6, clock="event")
        assert a.completed
        assert a.knowledge.filter_stats["rounds"] > 0
        with pytest.MonkeyPatch.context() as mp:
            _strip_exchange_kwargs(mp)
            b = PushPullGossip().run(graph, rng=6, clock="event")
        assert _summary(a) == _summary(b)
        assert a.knowledge == b.knowledge

    def test_fast_gossiping(self, monkeypatch):
        graph = _graph(256, 13)
        a = FastGossiping().run(graph, rng=7)
        assert a.completed
        with pytest.MonkeyPatch.context() as mp:
            _strip_exchange_kwargs(mp)
            b = FastGossiping().run(graph, rng=7)
        assert _summary(a) == _summary(b)
        assert a.knowledge == b.knowledge

    def test_memory_replay_filter(self, monkeypatch):
        graph = _graph(256, 14)
        a = MemoryGossiping(leader=0).run(graph, rng=8)
        assert a.completed
        assert a.knowledge.filter_stats["rounds"] > 0
        with pytest.MonkeyPatch.context() as mp:
            _strip_replay_filter(mp)
            b = MemoryGossiping(leader=0).run(graph, rng=8)
        assert b.knowledge.filter_stats["rounds"] == 0
        assert _summary(a) == _summary(b)
        assert a.knowledge == b.knowledge


class TestChurnKeepsFilterOff:
    def test_filter_never_fires_under_churn(self):
        graph = _graph(128, 15)
        plan = sample_churn_plan(graph.n, leavers=8, rng=3, horizon=400)
        result = PushPullGossip().run(graph, rng=9, clock="event", churn=plan)
        # The promotion shortcut is unsound once nodes can leave for good,
        # so the driver must never hand the complete mask to the kernels.
        assert result.knowledge.filter_stats["rounds"] == 0
        assert result.knowledge.filter_stats["edges"] == 0

    def test_fused_deficits_equivalent_under_churn(self):
        """Fused recounts stay on under churn and must not change anything."""
        graph = _graph(128, 15)
        plan = sample_churn_plan(graph.n, leavers=8, rng=3, horizon=400)
        a = PushPullGossip().run(graph, rng=9, clock="event", churn=plan)
        with pytest.MonkeyPatch.context() as mp:
            _strip_exchange_kwargs(mp)
            b = PushPullGossip().run(graph, rng=9, clock="event", churn=plan)
        assert _summary(a) == _summary(b)
        assert a.knowledge == b.knowledge


class TestFusedDeficitsMatchRecount:
    @pytest.mark.parametrize(
        "factory,seed",
        [(PushPullGossip, 21), (FastGossiping, 22)],
        ids=["push-pull", "fast-gossiping"],
    )
    def test_trajectories_identical(self, factory, seed):
        graph = _graph(256, 16)
        a = factory().run(graph, rng=seed)
        with pytest.MonkeyPatch.context() as mp:
            # Keep the saturation filter; only the in-kernel recount is
            # dropped, so the tracker falls back to update()/mark_promoted().
            _strip_exchange_kwargs(mp, keep_filter=True)
            b = factory().run(graph, rng=seed)
        assert _summary(a) == _summary(b)
        assert a.knowledge == b.knowledge


class TestDeferralBoundIsSound:
    def test_popcount_never_exceeds_bound(self):
        """The early-round tracker deferral rests on this invariant.

        The synchronous driver skips all completion bookkeeping while
        ``bound_{t+1} = bound_t * (2 + max indegree)`` stays below the mask
        popcount — sound only if no row's popcount can exceed the bound.
        Replay real rounds and check the actual maxima against it.
        """
        from repro.engine.channels import open_channels

        graph = _graph(192, 17)
        rng = np.random.default_rng(23)
        km = KnowledgeMatrix(graph.n)
        bound = 1
        for _ in range(6):
            channels = open_channels(graph, rng)
            indeg = np.bincount(channels.targets, minlength=graph.n).max()
            bound = bound * (2 + int(indeg))
            km.apply_exchange(channels.callers, channels.targets)
            everyone = np.arange(graph.n, dtype=np.int64)
            max_pop = int(
                np.bitwise_count(km.rows(everyone)).sum(axis=1).max()
            )
            assert max_pop <= bound
            if max_pop >= km.n_messages:
                break
