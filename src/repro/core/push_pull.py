"""Algorithm 4 — the plain push–pull gossiping baseline.

Every node opens a channel to a uniformly random neighbour in every step and
performs a ``pushpull`` operation: the caller pushes its combined message over
the channel and the callee answers with its own combined message.  The
procedure repeats until every node knows every original message.  This is the
baseline against which the paper's Figure 1 compares the tuned algorithms: its
per-node cost grows with the number of rounds, i.e. ``Theta(log n)``.

Each synchronous round is one
:meth:`~repro.engine.knowledge.KnowledgeMatrix.apply_exchange` batch plus an
incremental :class:`~repro.core.completion.CompletionTracker` update, made by
the shared loop :func:`~repro.core.completion.exchange_rounds`.  Both
dispatch through the active kernel backend (:mod:`repro.engine.backends`), so
the driver is backend-agnostic and its trajectories are bit-identical across
the ``numpy`` and ``c`` backends at every thread count
(``REPRO_DISABLE_CKERNEL`` / ``REPRO_KERNEL_THREADS``; see
``docs/parallelism.md``).

The protocol also runs under the **event clock**
(:mod:`repro.engine.event_clock`): nodes act on independent Poisson wakeups,
greedily batched into non-colliding groups that replay through the same
``apply_exchange`` kernels — one ``pushpull`` per wakeup instead of one per
node per round.  Both clocks run through the same loop; only the round
source differs (:class:`~repro.engine.channels.SyncRounds` or
:class:`~repro.engine.event_clock.EventScheduler`).  Event-clock runs
optionally take a :class:`~repro.engine.event_clock.ChurnPlan` of seeded
join/leave edits, which the scheduler applies at forced group boundaries
(nodes keep their knowledge while away; completion targets the
finally-alive membership).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine.channels import SyncRounds
from ..engine.event_clock import ChurnPlan, EventScheduler
from ..engine.failures import NO_FAILURES, FailurePlan
from ..engine.knowledge import adaptive_knowledge
from ..engine.metrics import TransmissionLedger
from ..engine.rng import RandomState
from ..engine.trace import SpreadingTrace
from ..graphs.adjacency import Adjacency
from .completion import CompletionTracker, exchange_rounds
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
        """Run push–pull until every (finally) alive node knows everything.

        Under the event clock one ledger round is one event group with an
        exchange, so ``rounds`` counts those groups.  With churn the
        saturation filter is disabled: a node that leaves for good may
        already have spread its message, so live rows are no longer
        guaranteed subsets of the completion row and the filter's promotion
        shortcut would not be bit-exact.  Fused deficit counting stays on,
        since ``popcount(mask & ~row)`` is exact regardless and ``refresh``
        clamps the rows of nodes that are not finally alive.
        """
        clock = self._resolve_clock(clock if clock is not None else self.params.clock)
        generator = self._prepare(graph, rng)
        if not failures.is_empty() and failures.inject_at != "start":
            raise ValueError(
                "PushPullGossip only supports failures injected at 'start'"
            )
        if churn is not None and clock != "event":
            raise ValueError("churn plans require the event clock")
        alive = failures.alive_mask(graph.n)
        final_alive = churn.final_alive(alive) if churn is not None else alive
        if clock == "sync":
            source = SyncRounds(
                graph, generator, max_rounds=self.params.max_rounds(graph.n), alive=alive
            )
        else:
            source = EventScheduler(
                graph,
                generator,
                max_events=self.params.max_events(graph.n),
                alive=alive,
                churn=churn,
            )

        knowledge = adaptive_knowledge(graph.n)
        ledger = TransmissionLedger(graph.n)
        trace = SpreadingTrace(enabled=record_trace)
        tracker = CompletionTracker(knowledge, np.flatnonzero(final_alive))
        ledger.begin_phase("push-pull")
        completed = exchange_rounds(
            source.rounds(), tracker, ledger, trace, "push-pull", filtered=churn is None
        )
        ledger.end_phase()

        extras = {"clock": clock}
        if clock == "event":
            extras["events"] = source.events
            extras["sim_time"] = source.time
        extras["alive_nodes"] = int(final_alive.sum())
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
