"""Algorithm 2 — gossiping in the memory model (constant-size node memory).

Every node may remember the addresses of the last few (four) neighbours it
contacted, may *avoid* them when opening a new random channel (``open-avoid``)
and may re-contact them deliberately.  With this small extension of the random
phone call model the paper obtains a gossiping algorithm with ``O(log n)``
running time and only ``O(n)`` message transmissions (``O(n log log n)`` if a
leader first has to be elected):

Phase I — *tree construction*: the leader disseminates its message by having
every newly informed node contact four distinct random neighbours (one per
step of a *long-step*), each node storing whom it contacted and when.  A few
pull long-steps let the remaining uninformed nodes fetch the message and
record from whom they got it.  The recorded contacts form a communication
tree rooted at the leader.

Phase II — *gathering*: the recorded edges are replayed in reverse
chronological order, so every node forwards all original messages it has
accumulated towards the leader; afterwards the leader knows every message.

Phase III — *broadcast*: the leader's complete message set is sent back down
the same tree in forward chronological order.

The robustness experiments of the paper build several independent trees in
Phase I, crash ``F`` random nodes right before Phase II and count how many
healthy nodes' original messages are missing at the root afterwards; the
:class:`MemoryGossiping` protocol exposes exactly these quantities in its
result extras.

Implementation notes (the batched kernels)
------------------------------------------
All three phases are fully batched — there is no per-node Python loop on
the hot path.  Phase I processes the whole frontier per push long-step and
every still-uninformed caller per pull step through the batched
``open-avoid`` samplers (:mod:`repro.core.node_memory`,
:meth:`repro.graphs.adjacency.Adjacency.sample_neighbors_avoiding_many`).
The Phase II/III replays apply each recorded per-step edge group as one
scatter-OR batch against start-of-round state; the failure-free broadcast
additionally drops edges into complete rows and assigns the full row to
receivers of complete senders (:func:`_broadcast_group`; see
``docs/architecture.md``).
``tests/core/test_batched_equivalence.py`` pins Phases I–III and the
leader election bit-identically to per-node reference loops sharing the
documented RNG stream discipline;
``tests/core/test_memory_gossiping.py`` pins the per-group replay on every
storage class.

Every scatter-OR batch dispatches through the active kernel backend
(:mod:`repro.engine.backends`): the protocol is backend-agnostic and its
trajectories are bit-identical across the ``numpy`` and ``c`` backends at
every thread count (``REPRO_DISABLE_CKERNEL`` /
``REPRO_KERNEL_THREADS``; see ``docs/parallelism.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.failures import NO_FAILURES, FailurePlan
from ..engine.knowledge import KnowledgeMatrix, adaptive_knowledge
from ..engine.metrics import TransmissionLedger
from ..engine.rng import RandomState, make_rng, spawn_rngs
from ..engine.trace import SpreadingTrace
from ..graphs.adjacency import Adjacency
from .completion import gossip_complete
from .leader_election import LeaderElection, LeaderElectionResult
from .node_memory import NodeMemory, open_avoid_fanout, open_avoid_one
from .parameters import (
    LeaderElectionParameters,
    MemoryGossipingParameters,
    MemoryGossipingSchedule,
    tuned_memory_gossiping,
)
from .protocol import GossipProtocol
from .results import GossipResult

__all__ = ["CommunicationTree", "MemoryGossiping"]


def _group_by_step(steps: np.ndarray, descending: bool) -> List[np.ndarray]:
    """Group edge indices by their step value, ordered by step.

    One stable argsort plus a boundary split replaces the former
    ``O(edges * unique_steps)`` repeated ``flatnonzero`` scans; within each
    group the indices stay in ascending order (stable sort), matching the
    replay order of the per-step scan.
    """
    steps = np.asarray(steps, dtype=np.int64)
    if steps.size == 0:
        return []
    order = np.argsort(steps, kind="stable")
    sorted_steps = steps[order]
    boundaries = np.flatnonzero(sorted_steps[1:] != sorted_steps[:-1]) + 1
    groups = np.split(order, boundaries)
    if descending:
        groups.reverse()
    return groups


def _steps_descending(steps: np.ndarray) -> List[np.ndarray]:
    """Edge index groups from the latest recorded step to the earliest."""
    return _group_by_step(steps, descending=True)


def _steps_ascending(steps: np.ndarray) -> List[np.ndarray]:
    """Edge index groups from the earliest recorded step to the latest."""
    return _group_by_step(steps, descending=False)


@dataclass
class CommunicationTree:
    """The contact structure recorded during Phase I for one tree.

    Attributes
    ----------
    root:
        The leader at which the tree is rooted.
    push_parents / push_children / push_steps:
        One entry per push contact: the active node, the neighbour it
        contacted, and the global Phase I step at which the contact happened.
    pull_children / pull_parents / pull_steps:
        One entry per first-time pull receipt: the previously uninformed node,
        the informed neighbour it pulled the message from, and the step.
    informed_step:
        Step at which each node first received the leader's message
        (-1 = never; the root has step 0).
    """

    root: int
    push_parents: np.ndarray
    push_children: np.ndarray
    push_steps: np.ndarray
    pull_children: np.ndarray
    pull_parents: np.ndarray
    pull_steps: np.ndarray
    informed_step: np.ndarray

    @property
    def num_informed(self) -> int:
        """Number of nodes that received the leader's message."""
        return int((self.informed_step >= 0).sum())

    @property
    def num_push_edges(self) -> int:
        """Number of recorded push contacts."""
        return int(self.push_parents.size)

    @property
    def num_pull_edges(self) -> int:
        """Number of recorded pull attachments."""
        return int(self.pull_children.size)

    def covers_all(self) -> bool:
        """Whether every node received the leader's message."""
        return bool(np.all(self.informed_step >= 0))

    def first_contact_push_indices(self) -> np.ndarray:
        """Indices of the push contacts that *first informed* their child.

        Restricting Phase II to these edges turns the recorded contact
        structure into a strict tree (one upward path per node); the
        redundancy ablation compares this against replaying all contacts.
        """
        if self.push_children.size == 0:
            return np.zeros(0, dtype=np.int64)
        informing = self.informed_step[self.push_children] == self.push_steps + 1
        candidates = np.flatnonzero(informing)
        if candidates.size == 0:
            return candidates
        # Several parents may have contacted the same child in the same step;
        # keep only the first recorded contact per child.
        _, first = np.unique(self.push_children[candidates], return_index=True)
        return np.sort(candidates[first])

    def depth_estimate(self) -> int:
        """Largest recorded informing step (a proxy for the tree depth)."""
        informed = self.informed_step[self.informed_step >= 0]
        return int(informed.max()) if informed.size else 0


def _concat(chunks: List[np.ndarray]) -> np.ndarray:
    """Concatenate accumulated edge chunks (empty-safe)."""
    if not chunks:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(chunks)


def _broadcast_group(
    knowledge: KnowledgeMatrix,
    senders: np.ndarray,
    receivers: np.ndarray,
    complete: Optional[np.ndarray],
    complete_row: Optional[np.ndarray],
) -> None:
    """Apply one Phase III step group, saturation-filtered when possible.

    Without ``complete`` (runs with failures) the group is one plain
    transmission batch.  With it (no-failure runs only: every row is a
    subset of ``complete_row``, so an OR from a complete sender is an
    assignment and an OR into a complete receiver is a no-op), edges into
    complete receivers are dropped, every receiver of a complete sender is
    assigned the full row and marked complete, and the remaining edges form
    the batch — mirroring the filtered exchange kernels.  The batch runs
    before the assignments, so its senders still read start-of-group rows.
    """
    if senders.size == 0:
        return
    if complete is None:
        knowledge.apply_transmissions(senders, receivers)
        return
    total = int(senders.size)
    live = ~complete[receivers]
    senders, receivers = senders[live], receivers[live]
    from_complete = complete[senders]
    promoted = np.unique(receivers[from_complete])
    rest_s = senders[~from_complete]
    rest_r = receivers[~from_complete]
    if promoted.size and rest_r.size:
        # OR contributions into promoted rows are subsets of the mask the
        # assignment below writes — dropping them is bit-exact.
        keep = ~np.isin(rest_r, promoted)
        rest_s, rest_r = rest_s[keep], rest_r[keep]
    if rest_s.size:
        knowledge.apply_transmissions(rest_s, rest_r)
    if promoted.size:
        knowledge.assign_rows(promoted, complete_row)
        complete[promoted] = True
    knowledge._note_filter(total, int(rest_s.size), int(promoted.size))


class MemoryGossiping(GossipProtocol):
    """Algorithm 2 of the paper: memory-model gossiping with a leader.

    Parameters
    ----------
    params:
        Phase-length constants; defaults to the Table 1 tuned constants.
    leader:
        Fixed leader node.  ``None`` picks a uniformly random node (the
        paper's default assumption) unless ``elect_leader`` is set.
    elect_leader:
        When true, run Algorithm 3 first and use the elected node; its
        communication cost is merged into the result ledger.
    election_params:
        Constants for the optional leader election.
    gather_only:
        Stop after Phase II.  Used by the robustness experiments, which only
        need the gathered set at the root.
    """

    name = "memory"

    def __init__(
        self,
        params: Optional[MemoryGossipingParameters] = None,
        *,
        leader: Optional[int] = None,
        elect_leader: bool = False,
        election_params: Optional[LeaderElectionParameters] = None,
        gather_only: bool = False,
    ) -> None:
        self.params = params or tuned_memory_gossiping()
        self.leader = leader
        self.elect_leader = elect_leader
        self.election_params = election_params or LeaderElectionParameters()
        self.gather_only = gather_only

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def run(
        self,
        graph: Adjacency,
        *,
        rng: RandomState = None,
        failures: FailurePlan = NO_FAILURES,
        record_trace: bool = False,
    ) -> GossipResult:
        generator = self._prepare(graph, rng)
        if not failures.is_empty() and failures.inject_at not in ("start", "before_gather"):
            raise ValueError(
                "MemoryGossiping supports failures injected at 'start' or 'before_gather'"
            )
        schedule = self.params.resolve(graph.n)
        n = graph.n

        ledger = TransmissionLedger(n)
        trace = SpreadingTrace(enabled=record_trace)
        knowledge = adaptive_knowledge(n)

        # Failure masks.  Failures at 'start' apply to every phase; failures
        # at 'before_gather' (the paper's robustness setting) only constrain
        # Phases II and III.
        alive_full = failures.alive_mask(n)
        alive_phase1 = alive_full if failures.applies_at("start") else None
        alive_later = None if failures.is_empty() else alive_full
        alive_nodes = np.flatnonzero(alive_full)

        # Leader selection.
        election_result: Optional[LeaderElectionResult] = None
        if self.leader is not None:
            leader = int(self.leader)
            if not 0 <= leader < n:
                raise ValueError(f"leader {leader} out of range [0, {n})")
        elif self.elect_leader:
            election = LeaderElection(self.election_params)
            election_result = election.run(graph, rng=generator, failures=NO_FAILURES)
            leader = election_result.leader
            ledger = ledger.merge(election_result.ledger)
        else:
            leader = int(generator.integers(n))
        if not alive_full[leader]:
            # The paper treats the leader as healthy (it fails only with
            # probability n^{-Omega(1)}); mirror that by protecting it.
            raise ValueError("the leader must not be part of the failure plan")

        memory = NodeMemory(n, schedule.fanout)

        # -------------------------- Phase I ---------------------------- #
        ledger.begin_phase("phase1-tree-construction")
        tree_rngs = spawn_rngs(generator, schedule.num_trees)
        trees: List[CommunicationTree] = []
        for tree_rng in tree_rngs:
            tree = self._build_tree(
                graph,
                knowledge,
                ledger,
                tree_rng,
                schedule,
                leader,
                memory,
                alive=alive_phase1,
            )
            trees.append(tree)
        trace.record(ledger.rounds - 1 if ledger.rounds else 0, "phase1-tree-construction", knowledge)
        ledger.end_phase()

        # -------------------------- Phase II --------------------------- #
        ledger.begin_phase("phase2-gather")
        for tree in trees:
            self._gather(
                tree,
                knowledge,
                ledger,
                alive=alive_later,
                contacts=schedule.gather_contacts,
            )
        trace.record(ledger.rounds - 1 if ledger.rounds else 0, "phase2-gather", knowledge)
        ledger.end_phase()

        lost = self._lost_messages(knowledge, leader, alive_nodes)

        # -------------------------- Phase III -------------------------- #
        completed = False
        if not self.gather_only:
            ledger.begin_phase("phase3-broadcast")
            # Saturation filter for the broadcast cascade (no-failure runs
            # only: the subset invariant rows ⊆ mask is needed for the
            # promotion shortcut).  The upfront scan replaces the full
            # ``gossip_complete`` rescan this phase used to end with.
            complete_row: Optional[np.ndarray] = None
            complete: Optional[np.ndarray] = None
            if alive_later is None:
                complete_row = knowledge.full_row_mask()
                complete = (
                    knowledge.count_missing(
                        complete_row, np.arange(n, dtype=np.int64)
                    )
                    == 0
                )
            for tree in trees:
                self._replay_broadcast(
                    tree,
                    knowledge,
                    ledger,
                    alive=alive_later,
                    contacts=schedule.gather_contacts,
                    complete=complete,
                    complete_row=complete_row,
                )
            trace.record(ledger.rounds - 1 if ledger.rounds else 0, "phase3-broadcast", knowledge)
            ledger.end_phase()
            if complete is not None:
                # ``complete`` only ever marks truly saturated rows, so a
                # residual check over the unmarked rows is the full predicate.
                remaining = np.flatnonzero(~complete)
                completed = remaining.size == 0 or not knowledge.count_missing(
                    complete_row, remaining
                ).any()
            else:
                completed = gossip_complete(knowledge, alive_nodes)

        extras: Dict[str, object] = {
            "leader": leader,
            "num_trees": len(trees),
            "trees": trees,
            "lost_messages": int(lost.size),
            "lost_message_ids": lost,
            "tree_coverage": [tree.num_informed for tree in trees],
            "schedule": schedule.as_dict(),
        }
        if election_result is not None:
            extras["election_unique"] = election_result.unique
            extras["election_candidates"] = int(election_result.candidates.size)

        return GossipResult(
            protocol=self.name,
            n_nodes=n,
            completed=completed,
            rounds=ledger.rounds,
            ledger=ledger,
            knowledge=knowledge,
            trace=trace if record_trace else None,
            extras=extras,
        )

    # ------------------------------------------------------------------ #
    # Phase I — tree construction
    # ------------------------------------------------------------------ #
    def _build_tree(
        self,
        graph: Adjacency,
        knowledge: KnowledgeMatrix,
        ledger: TransmissionLedger,
        rng: np.random.Generator,
        schedule: MemoryGossipingSchedule,
        leader: int,
        memory: NodeMemory,
        *,
        alive: Optional[np.ndarray],
    ) -> CommunicationTree:
        """Phase I with the whole frontier processed per long-step.

        Push long-steps sample all frontier nodes' ``fanout`` distinct
        contacts in one batched ``open-avoid`` call; pull long-steps sample
        one contact for every still-uninformed node per step.  Only nodes
        that actually opened a channel are charged opens/packets, and a
        crashed callee's contact is recorded exactly once (the packet is
        sent but dropped, so the caller's record and cost are identical to
        the healthy case — only the informing is suppressed).

        The pull budget terminates as soon as every (alive) node holds the
        leader's message: trailing no-op rounds are not executed and not
        counted (the per-node version kept burning ``fanout`` empty rounds
        per remaining long-step when ``run_pull_until_complete`` was set).
        """
        n = graph.n
        fanout = schedule.fanout
        informed_step = np.full(n, -1, dtype=np.int64)
        informed_step[leader] = 0

        push_parents: List[np.ndarray] = []
        push_children: List[np.ndarray] = []
        push_steps: List[np.ndarray] = []
        pull_children: List[np.ndarray] = []
        pull_parents: List[np.ndarray] = []
        pull_steps: List[np.ndarray] = []

        step = 0
        frontier = np.asarray([leader], dtype=np.int64)
        substep_offsets = np.arange(fanout, dtype=np.int64)
        no_step = np.iinfo(np.int64).max

        # ----------------------- push long-steps ----------------------- #
        # Only alive nodes ever enter the frontier (crashed callees are
        # recorded but never informed), and the leader is checked upfront,
        # so no alive-filter is needed on the frontier itself.
        for _ in range(schedule.push_longsteps):
            targets = open_avoid_fanout(graph, frontier, memory, rng, fanout)
            contacted = (targets >= 0).ravel()
            parents = np.repeat(frontier, fanout)[contacted]
            children = targets.ravel()[contacted]
            contact_steps = (step + np.tile(substep_offsets, frontier.size))[contacted]
            if parents.size:
                push_parents.append(parents)
                push_children.append(children)
                push_steps.append(contact_steps)
                ledger.record_opens(parents)
                ledger.record_pushes(parents)
            # A child contacted several times this long-step is informed by
            # its earliest contact; crashed callees drop the packet.
            if alive is not None:
                delivered = alive[children]
                cand_children = children[delivered]
                cand_steps = contact_steps[delivered]
            else:
                cand_children, cand_steps = children, contact_steps
            first_contact = np.full(n, no_step, dtype=np.int64)
            np.minimum.at(first_contact, cand_children, cand_steps)
            fresh = np.flatnonzero((informed_step < 0) & (first_contact < no_step))
            informed_step[fresh] = first_contact[fresh] + 1
            knowledge.add_many(fresh, leader)
            step += fanout
            for _ in range(fanout):
                ledger.end_round()
            frontier = fresh
            if frontier.size == 0:
                break

        # ----------------------- pull long-steps ----------------------- #
        pull_rounds_budget = schedule.pull_longsteps
        if schedule.run_pull_until_complete:
            pull_rounds_budget += schedule.max_extra_longsteps
        executed = 0
        covered = False
        while executed < pull_rounds_budget and not covered:
            for _ in range(fanout):
                callers = np.flatnonzero(informed_step < 0)
                if alive is not None and callers.size:
                    callers = callers[alive[callers]]
                if callers.size == 0:
                    covered = True
                    break
                # Synchronous semantics: only nodes informed *before* this
                # step can answer a pull in it.
                informed_before_step = informed_step >= 0
                targets = open_avoid_one(graph, callers, memory, rng)
                opened = targets >= 0
                openers = callers[opened]
                contacts = targets[opened]
                if openers.size:
                    ledger.record_opens(openers)
                answered = informed_before_step[contacts]
                if alive is not None:
                    answered &= alive[contacts]
                sources = contacts[answered]
                joined = openers[answered]
                if joined.size:
                    ledger.record_pulls(sources)
                    informed_step[joined] = step + 1
                    knowledge.add_many(joined, leader)
                    pull_children.append(joined)
                    pull_parents.append(sources)
                    pull_steps.append(np.full(joined.size, step, dtype=np.int64))
                ledger.end_round()
                step += 1
            executed += 1

        return CommunicationTree(
            root=leader,
            push_parents=_concat(push_parents),
            push_children=_concat(push_children),
            push_steps=_concat(push_steps),
            pull_children=_concat(pull_children),
            pull_parents=_concat(pull_parents),
            pull_steps=_concat(pull_steps),
            informed_step=informed_step,
        )

    # ------------------------------------------------------------------ #
    # Phase II — gather along the reversed tree
    # ------------------------------------------------------------------ #
    @staticmethod
    def _selected_push_edges(
        tree: CommunicationTree, contacts: str
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Push contacts used by the gather/broadcast replay.

        ``"all"`` uses every recorded contact (the literal Algorithm 2);
        ``"first"`` restricts to the contact that first informed each node.
        """
        if contacts == "first":
            idx = tree.first_contact_push_indices()
            return tree.push_parents[idx], tree.push_children[idx], tree.push_steps[idx]
        return tree.push_parents, tree.push_children, tree.push_steps

    def _gather(
        self,
        tree: CommunicationTree,
        knowledge: KnowledgeMatrix,
        ledger: TransmissionLedger,
        *,
        alive: Optional[np.ndarray],
        contacts: str = "all",
    ) -> None:
        """Replay the recorded contacts in reverse order, one round per step.

        Edges recorded in the same Phase I step form one group whose
        transmissions all read the same start-of-round state — the
        synchronous-model snapshot discipline used by every other kernel.
        Each group is one
        :meth:`~repro.engine.knowledge.KnowledgeMatrix.apply_transmissions`
        batch, which runs word-sparsely while the rows are thin.
        """
        push_parents, push_children, push_steps = self._selected_push_edges(tree, contacts)
        # First the pull-phase attachments, children first (reverse step
        # order): each node pushes everything it has to the node it pulled
        # the leader's message from.  Edges recorded in the same Phase I step
        # are replayed within the same round.
        for edge_indices in _steps_descending(tree.pull_steps):
            children = tree.pull_children[edge_indices]
            parents = tree.pull_parents[edge_indices]
            if alive is not None:
                sending = alive[children]  # crashed child: no communication
                children = children[sending]
                parents = parents[sending]
            if children.size:
                ledger.record_opens(children)
                ledger.record_pushes(children)
                if alive is not None:
                    delivered = alive[parents]  # crashed recipient drops it
                    children, parents = children[delivered], parents[delivered]
                knowledge.apply_transmissions(children, parents)
            ledger.end_round()
        # Then the push-phase contacts in reverse chronological order: the
        # parent re-opens the stored channel and the child answers with a pull
        # carrying all original messages it has accumulated so far.
        for edge_indices in _steps_descending(push_steps):
            parents = push_parents[edge_indices]
            children = push_children[edge_indices]
            if alive is not None:
                opening = alive[parents]
                parents = parents[opening]
                children = children[opening]
            if parents.size:
                ledger.record_opens(parents)
            if alive is not None:
                answering = alive[children]
                parents, children = parents[answering], children[answering]
            if children.size:
                ledger.record_pulls(children)
                knowledge.apply_transmissions(children, parents)
            ledger.end_round()

    # ------------------------------------------------------------------ #
    # Phase III — broadcast back down the tree
    # ------------------------------------------------------------------ #
    def _replay_broadcast(
        self,
        tree: CommunicationTree,
        knowledge: KnowledgeMatrix,
        ledger: TransmissionLedger,
        *,
        alive: Optional[np.ndarray],
        contacts: str = "all",
        complete: Optional[np.ndarray] = None,
        complete_row: Optional[np.ndarray] = None,
    ) -> None:
        # Forward chronological replay: every recorded contact forwards the
        # sender's current combined message.  Because a node's own informing
        # contact happened strictly before its outgoing contacts, the leader's
        # complete set cascades down the tree in a single pass.  As in
        # :meth:`_gather`, each per-step group is one batch reading
        # start-of-round state.  ``complete``/``complete_row`` turn the
        # cascade's dominant complete-sender transmissions into one row
        # assignment per receiver (no-failure runs only; see
        # :func:`_broadcast_group`).
        push_parents, push_children, push_steps = self._selected_push_edges(tree, contacts)
        all_steps = np.concatenate([push_steps, tree.pull_steps])
        push_count = push_steps.size
        for edge_indices in _steps_ascending(all_steps):
            from_push = edge_indices < push_count
            p_idx = edge_indices[from_push]
            l_idx = edge_indices[~from_push] - push_count
            p_senders = push_parents[p_idx]
            p_receivers = push_children[p_idx]
            # The formerly uninformed node re-opens the stored channel and
            # the informed neighbour answers with a pull.
            l_senders = tree.pull_parents[l_idx]
            l_receivers = tree.pull_children[l_idx]
            if alive is not None:
                p_opening = alive[p_senders]
                p_senders = p_senders[p_opening]
                p_receivers = p_receivers[p_opening]
                l_live = alive[l_senders] & alive[l_receivers]
                l_senders = l_senders[l_live]
                l_receivers = l_receivers[l_live]
            if p_senders.size or l_receivers.size:
                ledger.record_opens(np.concatenate([p_senders, l_receivers]))
            if p_senders.size:
                ledger.record_pushes(p_senders)
            if l_senders.size:
                ledger.record_pulls(l_senders)
            if alive is not None:
                p_delivered = alive[p_receivers]
                p_senders = p_senders[p_delivered]
                p_receivers = p_receivers[p_delivered]
            _broadcast_group(
                knowledge,
                np.concatenate([p_senders, l_senders]),
                np.concatenate([p_receivers, l_receivers]),
                complete,
                complete_row,
            )
            ledger.end_round()

    # ------------------------------------------------------------------ #
    # Robustness bookkeeping
    # ------------------------------------------------------------------ #
    @staticmethod
    def _lost_messages(
        knowledge: KnowledgeMatrix, leader: int, alive_nodes: np.ndarray
    ) -> np.ndarray:
        """Healthy nodes whose original message is missing at the leader."""
        missing = knowledge.missing_messages_at(leader)
        if missing.size == 0:
            return missing
        return np.intersect1d(missing, alive_nodes, assume_unique=False)
