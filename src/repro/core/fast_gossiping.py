"""Algorithm 1 — ``fast-gossiping`` in the traditional random phone call model.

The protocol trades running time for message complexity: it completes
gossiping on random graphs of expected degree ``Omega(log^{2+eps} n)`` in
``O(log^2 n / log log n)`` rounds using only ``O(n log n / log log n)``
transmissions (Theorem 1 of the paper).  It runs in three phases:

Phase I — *distribution*: every node pushes its combined message to a random
neighbour for a small number of steps, so that each message reaches
``polylog(n)`` nodes.

Phase II — *random walks*: in each of ``O(log n / log log n)`` rounds a small
random subset of nodes launch random walks that aggregate messages while they
mix through the graph; the nodes at which walks reside afterwards perform a
short push broadcast, multiplying the informed sets by ``Theta(sqrt(log n))``
per round while only the walk holders pay for communication.

Phase III — *broadcast*: a plain push–pull procedure finishes the remaining
(small) gap.  Following the empirical section of the paper, this phase runs
until the entire graph is informed.

All three phases run on the batched knowledge kernels (push rounds, walk
deliveries and the Phase III exchange-with-saturation-filter), which
dispatch through the active kernel backend (:mod:`repro.engine.backends`):
the driver is backend-agnostic and its trajectories are bit-identical across
the ``numpy`` and ``c`` backends at every thread count
(``REPRO_DISABLE_CKERNEL`` / ``REPRO_KERNEL_THREADS``; see
``docs/parallelism.md``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine.channels import open_channels
from ..engine.failures import NO_FAILURES, FailurePlan
from ..engine.knowledge import KnowledgeMatrix, adaptive_knowledge
from ..engine.metrics import TransmissionLedger
from ..engine.rng import RandomState
from ..engine.trace import SpreadingTrace
from ..graphs.adjacency import Adjacency
from .completion import CompletionTracker
from .parameters import FastGossipingParameters, FastGossipingSchedule, tuned_fast_gossiping
from .protocol import GossipProtocol
from .random_walks import start_walks
from .results import GossipResult

__all__ = ["FastGossiping"]


class FastGossiping(GossipProtocol):
    """Algorithm 1 of the paper (adapted ``fast-gossiping`` of Berenbrink et al.).

    Parameters
    ----------
    params:
        Phase-length constants.  Defaults to the simulation-tuned constants of
        Table 1 (:func:`~repro.core.parameters.tuned_fast_gossiping`).
    """

    name = "fast-gossiping"

    def __init__(self, params: Optional[FastGossipingParameters] = None) -> None:
        self.params = params or tuned_fast_gossiping()

    # ------------------------------------------------------------------ #
    # Protocol execution
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
        if not failures.is_empty() and failures.inject_at != "start":
            raise ValueError(
                "FastGossiping only supports failures injected at 'start'"
            )
        alive = failures.alive_mask(graph.n)
        alive_nodes = np.flatnonzero(alive)
        alive_mask: Optional[np.ndarray] = None if failures.is_empty() else alive

        schedule = self.params.resolve(graph.n)
        knowledge = adaptive_knowledge(graph.n)
        ledger = TransmissionLedger(graph.n)
        trace = SpreadingTrace(enabled=record_trace)

        self._phase_distribution(graph, knowledge, ledger, trace, generator, schedule, alive_mask, alive_nodes)
        walk_stats = self._phase_random_walks(
            graph, knowledge, ledger, trace, generator, schedule, alive_mask, alive_nodes
        )
        completed = self._phase_broadcast(
            graph, knowledge, ledger, trace, generator, schedule, alive_mask, alive_nodes
        )

        return GossipResult(
            protocol=self.name,
            n_nodes=graph.n,
            completed=completed,
            rounds=ledger.rounds,
            ledger=ledger,
            knowledge=knowledge,
            trace=trace if record_trace else None,
            extras={
                "schedule": schedule.as_dict(),
                "total_walks": walk_stats["total_walks"],
                "total_walk_moves": walk_stats["total_walk_moves"],
                "alive_nodes": int(alive_nodes.size),
            },
        )

    # ------------------------------------------------------------------ #
    # Phase I — distribution
    # ------------------------------------------------------------------ #
    def _phase_distribution(
        self,
        graph: Adjacency,
        knowledge: KnowledgeMatrix,
        ledger: TransmissionLedger,
        trace: SpreadingTrace,
        rng: np.random.Generator,
        schedule: FastGossipingSchedule,
        alive_mask: Optional[np.ndarray],
        alive_nodes: np.ndarray,
    ) -> None:
        ledger.begin_phase("phase1-distribution")
        for _ in range(schedule.distribution_steps):
            channels = open_channels(graph, rng, participants=alive_nodes, alive=alive_mask)
            ledger.record_opens(alive_nodes)
            knowledge.apply_transmissions(channels.callers, channels.targets)
            ledger.record_pushes(channels.callers)
            ledger.end_round()
            trace.record(ledger.rounds - 1, "phase1-distribution", knowledge)
        ledger.end_phase()

    # ------------------------------------------------------------------ #
    # Phase II — random walks
    # ------------------------------------------------------------------ #
    def _phase_random_walks(
        self,
        graph: Adjacency,
        knowledge: KnowledgeMatrix,
        ledger: TransmissionLedger,
        trace: SpreadingTrace,
        rng: np.random.Generator,
        schedule: FastGossipingSchedule,
        alive_mask: Optional[np.ndarray],
        alive_nodes: np.ndarray,
    ) -> dict:
        ledger.begin_phase("phase2-random-walks")
        total_walks = 0
        total_walk_moves = 0
        for _ in range(schedule.rounds):
            pool = start_walks(
                graph,
                knowledge,
                schedule.walk_probability,
                schedule.walk_move_cap,
                rng,
                ledger,
                alive=alive_mask,
            )
            total_walks += pool.num_walks
            ledger.end_round()
            trace.record(ledger.rounds - 1, "phase2-random-walks", knowledge)

            # Walk forwarding steps: deliver incoming walks, then every node
            # holding walks forwards its oldest one.
            for _ in range(schedule.walk_steps):
                pool.deliver(knowledge)
                pool.forward_step(graph, rng, ledger, alive=alive_mask)
                ledger.end_round()
                trace.record(ledger.rounds - 1, "phase2-random-walks", knowledge)
            # Walks still in transit after the last forwarding step arrive now
            # and make their hosts active for the broadcast sub-phase.
            pool.deliver(knowledge)
            total_walk_moves += pool.total_moves

            # Broadcast sub-phase: nodes holding walks become active and push
            # for ~0.5 * log log n steps; receivers become active as well.
            active = np.zeros(graph.n, dtype=bool)
            hosts = pool.nodes_with_walks()
            if hosts.size:
                active[hosts] = True
            for _ in range(schedule.broadcast_steps):
                senders = np.flatnonzero(active)
                if alive_mask is not None and senders.size:
                    senders = senders[alive_mask[senders]]
                if senders.size == 0:
                    ledger.end_round()
                    continue
                destinations = graph.sample_neighbors(senders, rng)
                ok = destinations >= 0
                if alive_mask is not None:
                    ok &= np.where(destinations >= 0, alive_mask[np.clip(destinations, 0, None)], False)
                ledger.record_opens(senders)
                knowledge.apply_transmissions(senders[ok], destinations[ok])
                ledger.record_pushes(senders)
                active[destinations[ok]] = True
                ledger.end_round()
                trace.record(ledger.rounds - 1, "phase2-random-walks", knowledge)
            # All nodes become inactive at the end of the round.
        ledger.end_phase()
        return {"total_walks": total_walks, "total_walk_moves": total_walk_moves}

    # ------------------------------------------------------------------ #
    # Phase III — push–pull broadcast
    # ------------------------------------------------------------------ #
    def _phase_broadcast(
        self,
        graph: Adjacency,
        knowledge: KnowledgeMatrix,
        ledger: TransmissionLedger,
        trace: SpreadingTrace,
        rng: np.random.Generator,
        schedule: FastGossipingSchedule,
        alive_mask: Optional[np.ndarray],
        alive_nodes: np.ndarray,
    ) -> bool:
        ledger.begin_phase("phase3-broadcast")
        tracker = CompletionTracker(knowledge, alive_nodes)
        completed = tracker.is_complete()
        steps = 0
        while not completed and steps < schedule.max_extra_rounds:
            channels = open_channels(graph, rng, participants=alive_nodes, alive=alive_mask)
            ledger.record_opens(alive_nodes)
            # One synchronous exchange: push and pull both read start-of-step
            # state inside the kernel, and saturated rows are filtered out of
            # the batch (bit-exact).  The tracker keeps its deficits current,
            # so completion is checked after every step.
            tracker.exchange(channels.callers, channels.targets)
            ledger.record_pushes(channels.callers)
            ledger.record_pulls(channels.targets)
            ledger.end_round()
            trace.record(ledger.rounds - 1, "phase3-broadcast", knowledge)
            steps += 1
            completed = tracker.is_complete()
        ledger.end_phase()
        return completed
