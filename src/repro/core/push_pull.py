"""Algorithm 4 — the plain push–pull gossiping baseline.

Every node opens a channel to a uniformly random neighbour in every step and
performs a ``pushpull`` operation: the caller pushes its combined message over
the channel and the callee answers with its own combined message.  The
procedure repeats until every node knows every original message.  This is the
baseline against which the paper's Figure 1 compares the tuned algorithms: its
per-node cost grows with the number of rounds, i.e. ``Theta(log n)``.

Each synchronous round is one
:meth:`~repro.engine.knowledge.KnowledgeMatrix.apply_exchange` batch plus an
incremental :class:`~repro.core.completion.CompletionTracker` update.  Both
dispatch through the active kernel backend (:mod:`repro.engine.backends`), so
the driver is backend-agnostic and its trajectories are bit-identical across
the ``numpy`` and ``c`` backends at every thread count
(``REPRO_DISABLE_CKERNEL`` / ``REPRO_KERNEL_THREADS``; see
``docs/parallelism.md``).

The protocol also runs under the **event clock**
(:mod:`repro.engine.event_clock`): nodes act on independent Poisson wakeups,
greedily batched into non-colliding groups that replay through the same
``apply_exchange`` kernels — one ``pushpull`` per wakeup instead of one per
node per round.  Event-clock runs optionally take a
:class:`~repro.engine.event_clock.ChurnPlan` of seeded join/leave edits
applied at forced group boundaries (nodes keep their knowledge while away;
completion targets the finally-alive membership).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine.channels import open_channels
from ..engine.event_clock import ChurnPlan, EventScheduler
from ..engine.failures import NO_FAILURES, FailurePlan
from ..engine.knowledge import adaptive_knowledge
from ..engine.metrics import TransmissionLedger
from ..engine.rng import RandomState
from ..engine.trace import SpreadingTrace
from ..graphs.adjacency import Adjacency
from .completion import CompletionTracker
from .parameters import PushPullParameters
from .protocol import GossipProtocol
from .results import GossipResult

__all__ = ["PushPullGossip"]


class PushPullGossip(GossipProtocol):
    """Plain push–pull gossiping (Algorithm 4 in the paper's appendix).

    Parameters
    ----------
    params:
        Safety limits; the default allows ``8 log n`` rounds which is far more
        than the protocol ever needs on the connected graphs we consider.
    """

    name = "push-pull"
    supported_clocks = ("sync", "event")

    def __init__(self, params: Optional[PushPullParameters] = None) -> None:
        self.params = params or PushPullParameters()

    def run(
        self,
        graph: Adjacency,
        *,
        rng: RandomState = None,
        failures: FailurePlan = NO_FAILURES,
        record_trace: bool = False,
        clock: Optional[str] = None,
        churn: Optional[ChurnPlan] = None,
    ) -> GossipResult:
        clock = self._resolve_clock(clock if clock is not None else self.params.clock)
        generator = self._prepare(graph, rng)
        if not failures.is_empty() and failures.inject_at != "start":
            raise ValueError(
                "PushPullGossip only supports failures injected at 'start'"
            )
        if churn is not None and clock != "event":
            raise ValueError("churn plans require the event clock")
        if clock == "event":
            return self._run_event(
                graph,
                generator,
                failures=failures,
                record_trace=record_trace,
                churn=churn,
            )
        alive = failures.alive_mask(graph.n)
        alive_nodes = np.flatnonzero(alive)

        knowledge = adaptive_knowledge(graph.n)
        ledger = TransmissionLedger(graph.n)
        trace = SpreadingTrace(enabled=record_trace)
        ledger.begin_phase("push-pull")

        max_rounds = self.params.max_rounds(graph.n)
        tracker = CompletionTracker(knowledge, alive_nodes)
        completed = False
        # Upper bound on any row's popcount, maintained per round: a receiver
        # ends a round with at most its own row, one pull answer and one push
        # per in-edge (``2 + indegree`` source rows).  While the bound stays
        # below the mask popcount no row can be saturated, so the tracker's
        # early-round full recounts (and the kernel's fused deficit counting)
        # are provably dead work and are skipped — bit-identical, because the
        # saturation filter sees an all-false complete mask either way.
        mask_bits = int(np.bitwise_count(tracker.mask).sum())
        known_bound = 1 if tracker.incomplete and not tracker.complete_rows.any() else mask_bits
        for round_index in range(max_rounds):
            channels = open_channels(graph, generator, participants=alive_nodes, alive=alive)
            # Every alive node opens a channel even if the callee turns out to
            # be failed; count the open per participant.
            ledger.record_opens(alive_nodes)

            if known_bound < mask_bits:
                indeg = np.bincount(channels.targets, minlength=graph.n).max()
                known_bound = min(known_bound * (2 + int(indeg)), mask_bits)
            track = known_bound >= mask_bits

            # One synchronous exchange: push (caller -> callee) and pull
            # (callee -> caller) both read start-of-step state inside the
            # kernel, which also drops transmissions into saturated rows and
            # short-circuits those from saturated senders (bit-exact), so the
            # per-round cost shrinks with the number of incomplete nodes.
            if track:
                tracker.exchange(channels.callers, channels.targets)
            else:
                knowledge.apply_exchange(channels.callers, channels.targets)
            ledger.record_pushes(channels.callers)
            ledger.record_pulls(channels.targets)

            ledger.end_round()
            trace.record(round_index, "push-pull", knowledge)

            if track and tracker.is_complete():
                completed = True
                break

        ledger.end_phase()
        return GossipResult(
            protocol=self.name,
            n_nodes=graph.n,
            completed=completed,
            rounds=ledger.rounds,
            ledger=ledger,
            knowledge=knowledge,
            trace=trace if record_trace else None,
            extras={"clock": "sync", "alive_nodes": int(alive_nodes.size)},
        )

    # ------------------------------------------------------------------ #
    # Event clock
    # ------------------------------------------------------------------ #
    def _run_event(
        self,
        graph: Adjacency,
        generator: np.random.Generator,
        *,
        failures: FailurePlan,
        record_trace: bool,
        churn: Optional[ChurnPlan],
    ) -> GossipResult:
        """Continuous-time run: Poisson wakeups in non-colliding batches.

        Each emitted :class:`~repro.engine.event_clock.EventGroup` replays
        through one ``apply_exchange`` call — bit-identical to applying its
        wakeups one at a time, because all endpoints within a group are
        pairwise distinct.  One ledger round is one non-empty group, so
        ``rounds`` counts event groups here.

        Without churn the saturation filter runs exactly as in the
        synchronous driver.  With churn it is disabled: a node that leaves
        for good may already have spread its message, so live rows are no
        longer guaranteed subsets of the completion row and the filter's
        promotion shortcut would not be bit-exact.  Completion then targets
        the finally-alive membership (knowledge survives absences).
        """
        alive = failures.alive_mask(graph.n)
        final_alive = churn.final_alive(alive) if churn is not None else alive
        knowledge = adaptive_knowledge(graph.n)
        ledger = TransmissionLedger(graph.n)
        trace = SpreadingTrace(enabled=record_trace)
        ledger.begin_phase("push-pull")

        tracker = CompletionTracker(knowledge, np.flatnonzero(final_alive))
        use_filter = churn is None
        scheduler = EventScheduler(
            graph,
            generator,
            max_events=self.params.max_events(graph.n),
            alive=alive,
            breaks=churn.breaks if churn is not None else None,
        )
        churn_ptr = 0
        completed = False
        group_index = 0
        for group in scheduler.groups():
            if group.openers.size:
                ledger.record_opens(group.openers)
            if group.size:
                # Fused deficit counting is safe even with churn (the count
                # ``popcount(mask & ~row)`` is exact regardless of the subset
                # invariant; ``refresh`` clamps not-finally-alive rows), so
                # the tracker always passes it — unlike the saturation filter.
                tracker.exchange(group.callers, group.targets, filtered=use_filter)
                ledger.record_pushes(group.callers)
                ledger.record_pulls(group.targets)
                ledger.end_round()
                trace.record(group_index, "push-pull", knowledge)
                group_index += 1
                if tracker.is_complete():
                    completed = True
                    break
            if churn is not None:
                while (
                    churn_ptr < len(churn)
                    and churn.indices[churn_ptr] <= scheduler.events
                ):
                    scheduler.set_alive(
                        int(churn.nodes[churn_ptr]), bool(churn.joins[churn_ptr])
                    )
                    churn_ptr += 1

        ledger.end_phase()
        extras = {
            "clock": "event",
            "events": scheduler.events,
            "sim_time": scheduler.time,
            "alive_nodes": int(final_alive.sum()),
        }
        if churn is not None:
            extras["churn_ops"] = len(churn)
        return GossipResult(
            protocol=self.name,
            n_nodes=graph.n,
            completed=completed,
            rounds=ledger.rounds,
            ledger=ledger,
            knowledge=knowledge,
            trace=trace if record_trace else None,
            extras=extras,
        )
