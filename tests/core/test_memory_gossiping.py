"""Tests for repro.core.memory_gossiping (Algorithm 2).

Besides whole runs, :class:`TestPerGroupReplay` pins the Phase II/III
replay: each recorded step group as one batch, and the saturation-filtered
broadcast helper against the unfiltered replay, on NumPy and on the
compiled kernels serial or sharded, with the last word of a row whole or
ragged.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    MemoryGossiping,
    PushPullGossip,
    tuned_memory_gossiping,
)
from repro.core.memory_gossiping import _broadcast_group
from repro.engine import MessageAccounting, _ckernel, backends, sample_uniform_failures
from repro.engine.knowledge import KnowledgeMatrix
from repro.graphs import complete_graph


class TestCompletion:
    def test_completes_on_paper_graph(self, small_paper_graph):
        result = MemoryGossiping(leader=0).run(small_paper_graph, rng=1)
        assert result.completed
        assert result.knowledge.is_complete()
        assert result.extras["lost_messages"] == 0

    def test_completes_on_complete_graph(self, small_complete_graph):
        result = MemoryGossiping(leader=0).run(small_complete_graph, rng=2)
        assert result.completed

    def test_completes_on_regular_graph(self, small_regular_graph):
        result = MemoryGossiping(leader=0).run(small_regular_graph, rng=3)
        assert result.completed

    def test_random_leader_when_unspecified(self, small_paper_graph):
        result = MemoryGossiping().run(small_paper_graph, rng=4)
        assert result.completed
        assert 0 <= result.extras["leader"] < small_paper_graph.n

    def test_elected_leader(self, small_paper_graph):
        result = MemoryGossiping(elect_leader=True).run(small_paper_graph, rng=5)
        assert result.completed
        assert result.extras["election_unique"]
        # The election cost is merged into the ledger: the leader-election
        # phase must appear alongside the gossiping phases.
        assert "leader-election" in result.ledger.phases

    def test_deterministic(self, small_paper_graph):
        a = MemoryGossiping(leader=0).run(small_paper_graph, rng=6)
        b = MemoryGossiping(leader=0).run(small_paper_graph, rng=6)
        assert a.total_messages() == b.total_messages()
        assert a.rounds == b.rounds

    def test_invalid_leader(self, small_paper_graph):
        with pytest.raises(ValueError):
            MemoryGossiping(leader=small_paper_graph.n).run(small_paper_graph, rng=7)

    def test_gather_only_stops_before_broadcast(self, small_paper_graph):
        result = MemoryGossiping(leader=0, gather_only=True).run(small_paper_graph, rng=8)
        assert not result.completed  # Phase III skipped
        # But the leader has gathered everything.
        assert result.extras["lost_messages"] == 0
        assert result.knowledge.counts()[0] == small_paper_graph.n
        assert "phase3-broadcast" not in result.ledger.phases


class TestTreeStructure:
    def test_tree_covers_all_nodes(self, small_paper_graph):
        result = MemoryGossiping(leader=0).run(small_paper_graph, rng=9)
        tree = result.extras["trees"][0]
        assert tree.covers_all()
        assert tree.root == 0
        assert tree.num_informed == small_paper_graph.n

    def test_children_informed_after_parents(self, small_paper_graph):
        """Every push contact happens strictly after the parent was informed."""
        result = MemoryGossiping(leader=0).run(small_paper_graph, rng=10)
        tree = result.extras["trees"][0]
        for parent, step in zip(tree.push_parents.tolist(), tree.push_steps.tolist()):
            assert tree.informed_step[parent] <= step

    def test_pull_parents_informed_before_edge(self, small_paper_graph):
        result = MemoryGossiping(leader=0).run(small_paper_graph, rng=11)
        tree = result.extras["trees"][0]
        for parent, step in zip(tree.pull_parents.tolist(), tree.pull_steps.tolist()):
            assert 0 <= tree.informed_step[parent] <= step

    def test_fanout_bound_on_contacts_per_parent(self, small_paper_graph):
        """Each node contacts at most `fanout` children per tree (it is active once)."""
        result = MemoryGossiping(leader=0).run(small_paper_graph, rng=12)
        tree = result.extras["trees"][0]
        schedule = tuned_memory_gossiping().resolve(small_paper_graph.n)
        counts = np.bincount(tree.push_parents, minlength=small_paper_graph.n)
        assert counts.max() <= schedule.fanout

    def test_multiple_trees(self, small_paper_graph):
        params = tuned_memory_gossiping().with_overrides(num_trees=3)
        result = MemoryGossiping(params, leader=0).run(small_paper_graph, rng=13)
        assert result.extras["num_trees"] == 3
        assert len(result.extras["trees"]) == 3
        assert result.completed

    def test_depth_estimate_positive(self, small_paper_graph):
        result = MemoryGossiping(leader=0).run(small_paper_graph, rng=14)
        tree = result.extras["trees"][0]
        assert tree.depth_estimate() > 0
        assert tree.num_push_edges > 0


class TestMessageComplexity:
    def test_constant_messages_per_node(self, medium_paper_graph):
        """Theorem 2: O(n) transmissions, i.e. O(1) per node."""
        result = MemoryGossiping(leader=0).run(medium_paper_graph, rng=15)
        assert result.messages_per_node() < 10.0

    def test_much_cheaper_than_push_pull(self, medium_paper_graph):
        memory = MemoryGossiping(leader=0).run(medium_paper_graph, rng=16)
        baseline = PushPullGossip().run(medium_paper_graph, rng=17)
        assert memory.messages_per_node() < 0.5 * baseline.messages_per_node()

    def test_cost_roughly_size_independent(self, small_paper_graph, medium_paper_graph):
        small = MemoryGossiping(leader=0).run(small_paper_graph, rng=18)
        large = MemoryGossiping(leader=0).run(medium_paper_graph, rng=19)
        # Bounded by a constant: the two sizes differ by at most a few packets.
        assert abs(small.messages_per_node() - large.messages_per_node()) < 4.0

    def test_phase_accounting_present(self, small_paper_graph):
        result = MemoryGossiping(leader=0).run(small_paper_graph, rng=20)
        assert set(result.ledger.phases) == {
            "phase1-tree-construction",
            "phase2-gather",
            "phase3-broadcast",
        }
        assert result.ledger.phase_totals("phase2-gather").packets > 0


class TestRoundAccounting:
    def test_no_pull_rounds_burned_after_coverage(self, small_paper_graph):
        """Regression: with ``run_pull_until_complete`` the pull budget used
        to keep executing ``fanout`` no-op rounds per remaining long-step
        after every node was already informed, inflating ``rounds``.

        With the fix, Phase I stops right after the pull round that informs
        the last node, so its round count equals the largest informing step.
        """
        result = MemoryGossiping(leader=0).run(small_paper_graph, rng=40)
        assert result.completed
        tree = result.extras["trees"][0]
        assert tree.pull_steps.size > 0  # coverage completed during the pulls
        phase1 = result.ledger.phase_totals("phase1-tree-construction")
        assert phase1.rounds == int(tree.informed_step.max())

    def test_phase1_round_count_matches_schedule(self):
        """Phase I executes exactly the long-steps it runs — ``fanout``
        rounds per push long-step actually taken, plus pull rounds only while
        uninformed callers remain."""
        graph = complete_graph(64)
        params = tuned_memory_gossiping().with_overrides(push_longsteps_factor=6.0)
        result = MemoryGossiping(params, leader=0).run(graph, rng=41)
        tree = result.extras["trees"][0]
        schedule = params.resolve(graph.n)
        fanout = schedule.fanout
        assert tree.pull_steps.size == 0
        # The last informing long-step is followed by exactly one more
        # (contact-only) long-step after which the frontier empties.
        last_informing = int(np.ceil(tree.informed_step.max() / fanout))
        expected_longsteps = min(last_informing + 1, schedule.push_longsteps)
        phase1 = result.ledger.phase_totals("phase1-tree-construction")
        assert phase1.rounds == expected_longsteps * fanout

    def test_pull_budget_respected_when_incomplete(self, small_paper_graph):
        """Without ``run_pull_until_complete`` the pull phase still runs at
        most ``pull_longsteps`` long-steps."""
        params = tuned_memory_gossiping().with_overrides(
            run_pull_until_complete=False, push_longsteps_factor=0.25
        )
        schedule = params.resolve(small_paper_graph.n)
        result = MemoryGossiping(params, leader=0).run(small_paper_graph, rng=42)
        phase1 = result.ledger.phase_totals("phase1-tree-construction")
        max_rounds = (schedule.push_longsteps + schedule.pull_longsteps) * schedule.fanout
        assert phase1.rounds <= max_rounds


class TestCrashedCalleeRecords:
    def test_dead_callee_contact_recorded_once_and_charged_once(self, small_paper_graph):
        """Regression: the crashed-callee branch duplicated the record
        code path; every push contact (dead or alive callee) must appear
        exactly once and cost exactly one open + one push packet."""
        n = small_paper_graph.n
        plan = sample_uniform_failures(n, n // 4, rng=43, protect=[0], inject_at="start")
        alive = plan.alive_mask(n)
        result = MemoryGossiping(leader=0).run(small_paper_graph, rng=44, failures=plan)
        tree = result.extras["trees"][0]
        # One packet and one open per recorded push contact.
        phase1 = result.ledger.phase_totals("phase1-tree-construction")
        assert phase1.push_packets == tree.num_push_edges
        # Opens = push contacts + pull-phase opens; the latter are at least
        # the answered pulls, so the push side pins exactly one open each.
        assert phase1.channel_opens - phase1.pull_packets >= tree.num_push_edges
        # Contacts to crashed callees exist but never inform them.
        dead_children = tree.push_children[~alive[tree.push_children]]
        assert dead_children.size > 0
        assert np.all(tree.informed_step[~alive] == -1)
        # No (parent, child, step) triple is recorded twice.
        triples = set(
            zip(
                tree.push_parents.tolist(),
                tree.push_children.tolist(),
                tree.push_steps.tolist(),
            )
        )
        assert len(triples) == tree.num_push_edges


class TestFailures:
    def test_failures_before_gather_lose_few_messages(self, medium_paper_graph):
        n = medium_paper_graph.n
        params = tuned_memory_gossiping().with_overrides(num_trees=3)
        protocol = MemoryGossiping(params, leader=0, gather_only=True)
        plan = sample_uniform_failures(n, n // 20, rng=21, protect=[0])
        result = protocol.run(medium_paper_graph, rng=22, failures=plan)
        # 5% failures: the three trees provide enough redundancy that almost
        # no healthy message is lost.
        assert result.extras["lost_messages"] <= n // 100

    def test_more_failures_lose_more(self, medium_paper_graph):
        n = medium_paper_graph.n
        params = tuned_memory_gossiping().with_overrides(num_trees=1)
        protocol = MemoryGossiping(params, leader=0, gather_only=True)
        few = protocol.run(
            medium_paper_graph,
            rng=23,
            failures=sample_uniform_failures(n, n // 50, rng=24, protect=[0]),
        )
        many = protocol.run(
            medium_paper_graph,
            rng=23,
            failures=sample_uniform_failures(n, n // 2, rng=25, protect=[0]),
        )
        assert many.extras["lost_messages"] >= few.extras["lost_messages"]
        assert many.extras["lost_messages"] > 0

    def test_lost_messages_exclude_failed_nodes(self, medium_paper_graph):
        n = medium_paper_graph.n
        plan = sample_uniform_failures(n, n // 3, rng=26, protect=[0])
        protocol = MemoryGossiping(leader=0, gather_only=True)
        result = protocol.run(medium_paper_graph, rng=27, failures=plan)
        lost = set(result.extras["lost_message_ids"].tolist())
        assert not lost & set(plan.failed.tolist())

    def test_leader_must_not_fail(self, small_paper_graph):
        plan = sample_uniform_failures(small_paper_graph.n, 3, rng=28)
        if 0 not in plan.failed:
            plan = sample_uniform_failures(
                small_paper_graph.n, small_paper_graph.n - 1, rng=28
            )
        with pytest.raises(ValueError):
            MemoryGossiping(leader=0).run(small_paper_graph, rng=29, failures=plan)

    def test_unsupported_injection_point(self, small_paper_graph):
        # A plan naming an unknown point would silently never fire, so
        # construction itself rejects it.
        with pytest.raises(ValueError, match="unknown injection point"):
            sample_uniform_failures(
                small_paper_graph.n, 2, rng=30, inject_at="mid-broadcast"
            )

    def test_zero_failures_equivalent_to_no_plan(self, small_paper_graph):
        from repro.engine.failures import FailurePlan

        empty = FailurePlan(failed=np.zeros(0, dtype=np.int64))
        a = MemoryGossiping(leader=0).run(small_paper_graph, rng=32, failures=empty)
        b = MemoryGossiping(leader=0).run(small_paper_graph, rng=32)
        assert a.total_messages() == b.total_messages()
        assert a.completed and b.completed


#: Run in a fresh interpreter: one memory-model run on ``K_2048``, then its
#: VmHWM above the RSS the process had once the graph was built.
_PEAK_ON_K2048 = """
import json
from repro.core import MemoryGossiping
from repro.graphs import complete_graph

def status(key):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) * 1024
    raise KeyError(key)

graph = complete_graph(2048)
base = status("VmRSS")
result = MemoryGossiping().run(graph, rng=7)
print(json.dumps({"rise": status("VmHWM") - base, "completed": bool(result.completed)}))
"""


class TestPeakAboveTheGraph:
    """A memory run adds no per-edge array to the graph it runs on.

    ``K_2048`` has 4.2 million directed edges, stored in 16 MiB; its
    knowledge matrix is 0.5 MiB.  ``open-avoid`` searches each caller's own
    neighbour slice, so the run's peak stays a few MiB above the graph (on a
    2-core x86-64 VM, 4 MB, which is the complete graph's own build
    temporary).  A sorted ``owner * n + neighbour`` key per directed edge,
    built on the first memory run and kept with the graph, raised it by
    about 69 MB there.
    """

    BOUND = 16 * 2**20

    def test_memory_run_peak_stays_near_the_graph(self):
        if not os.path.exists("/proc/self/status"):
            pytest.skip("peak RSS is read from /proc")
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        run = subprocess.run(
            [sys.executable, "-c", _PEAK_ON_K2048],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        report = json.loads(run.stdout.strip().splitlines()[-1])
        assert report["completed"]
        assert report["rise"] <= self.BOUND, report


@pytest.fixture(params=["compiled", "threads", "numpy"])
def kernel_path(request, monkeypatch):
    """The compiled kernels as installed, or forced to two shards on every
    batch however small, or NumPy."""
    if request.param == "numpy":
        monkeypatch.setattr(_ckernel, "_LIB", None)
        yield request.param
        return
    if not _ckernel.available():
        pytest.skip("compiled kernel unavailable on this machine")
    if request.param == "threads":
        with backends.use(backends.CBackend(max_threads=2, shard_work=1)):
            yield request.param
        return
    yield request.param


class TestPerGroupReplay:
    """The memory model replays each recorded step group as one batch.

    The replay must match a per-edge reference that snapshots the group's
    sender rows before any write, and the saturation-filtered broadcast
    helper must match the unfiltered replay bit for bit.
    """

    @pytest.fixture(params=[640, 601])
    def n(self, request):
        """Nodes (and messages): 10 words per row, the last one whole or ragged."""
        return request.param

    @staticmethod
    def as_groups(*pairs):
        return [
            (np.asarray(s, dtype=np.int64), np.asarray(r, dtype=np.int64))
            for s, r in pairs
        ]

    @staticmethod
    def reference_replay(n, groups):
        data = KnowledgeMatrix(n).data.copy()
        for senders, receivers in groups:
            sent = data[senders].copy()  # start-of-group rows
            for row, receiver in zip(sent, receivers):
                data[receiver] |= row
        return data

    @staticmethod
    def replay(state, groups, complete=None, complete_row=None):
        for senders, receivers in groups:
            _broadcast_group(state, senders, receivers, complete, complete_row)
        return state

    @staticmethod
    def random_groups(rng, n, count, max_size):
        return [
            (
                rng.integers(0, n, m).astype(np.int64),
                rng.integers(0, n, m).astype(np.int64),
            )
            for m in rng.integers(1, max_size, count)
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_group_sequences_match_sequential(self, kernel_path, n, seed):
        rng = np.random.default_rng(600 + seed)
        groups = self.random_groups(rng, n, 25, 40)
        state = self.replay(KnowledgeMatrix(n), groups)
        assert np.array_equal(state.data, self.reference_replay(n, groups))

    def test_many_edges_into_one_node_then_it_sends(self, kernel_path, n):
        groups = self.as_groups((list(range(100, 300)), [0] * 200), ([0], [1]))
        state = self.replay(KnowledgeMatrix(n), groups)
        assert np.array_equal(state.data, self.reference_replay(n, groups))
        assert state.known_messages(1).tolist() == [0, 1] + list(range(100, 300))

    def test_sender_that_also_receives_forwards_its_start_row(self, kernel_path, n):
        # Node 1 receives from 0 and sends to 2 in the same group: 2 gets
        # only 1's start-of-group row.  The next group relays message 0.
        groups = self.as_groups(([0, 1], [1, 2]), ([1], [2]))
        state = self.replay(KnowledgeMatrix(n), groups[:1])
        assert state.known_messages(2).tolist() == [1, 2]
        self.replay(state, groups[1:])
        assert state.known_messages(2).tolist() == [0, 1, 2]
        assert np.array_equal(state.data, self.reference_replay(n, groups))

    def test_duplicate_receivers_accumulate(self, kernel_path, n):
        groups = self.as_groups(([7, 8, 9, 7], [5, 5, 5, 5]))
        state = self.replay(KnowledgeMatrix(n), groups)
        assert state.known_messages(5).tolist() == [5, 7, 8, 9]
        assert np.array_equal(state.data, self.reference_replay(n, groups))

    @pytest.mark.parametrize("seed", range(3))
    def test_filtered_broadcast_matches_unfiltered(self, kernel_path, n, seed):
        rng = np.random.default_rng(700 + seed)
        groups = self.random_groups(rng, n, 30, 60)
        # A root that knows everything, as after the gather phase; every
        # row is a subset of the full mask, which the filter relies on.
        full = KnowledgeMatrix(n).full_row_mask()
        plain, filtered = KnowledgeMatrix(n), KnowledgeMatrix(n)
        for state in (plain, filtered):
            state.assign_rows(np.asarray([0, 3], dtype=np.int64), full)
        groups.insert(0, self.as_groups(([0] * 8, rng.integers(0, n, 8)))[0])
        everyone = np.arange(n, dtype=np.int64)
        complete = filtered.count_missing(full, everyone) == 0
        self.replay(plain, groups)
        self.replay(filtered, groups, complete, full)
        assert filtered == plain
        assert filtered.filter_stats["rounds"] == len(groups)
        assert filtered.filter_stats["promotions"] > 0
        assert plain.filter_stats["rounds"] == 0
        # ``complete`` marks only rows that really are complete.
        assert not plain.count_missing(full, np.flatnonzero(complete)).any()

    def test_empty_groups_are_skipped(self, kernel_path):
        state = KnowledgeMatrix(5)
        empty = np.zeros(0, dtype=np.int64)
        complete = np.zeros(5, dtype=bool)
        _broadcast_group(state, empty, empty, None, None)
        _broadcast_group(state, empty, empty, complete, state.full_row_mask())
        assert np.array_equal(state.data, KnowledgeMatrix(5).data)
        assert state.filter_stats["rounds"] == 0
