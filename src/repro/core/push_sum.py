"""Push-sum averaging (Kempe–Dobra–Gehrke) under both execution clocks.

The aggregation workload the asynchronous engine exists for: every node ``i``
holds a pair ``(s_i, w_i)`` initialised to ``(x_i, 1)`` and estimates the
network average as ``s_i / w_i``.  Whenever a node acts it keeps half of its
pair and sends the other half to a uniformly random neighbour; the receiver
adds the halves component-wise.  Two exact invariants make the protocol a
sharp correctness probe:

* **Mass conservation** — ``sum(s)`` and ``sum(w)`` never change (up to
  float rounding, since every update only moves halves around).
* **Monotone spread** — every update replaces ratios by convex combinations
  of existing ratios, so ``max(s/w) - min(s/w)`` never increases (again up
  to rounding); per-step *variance* is **not** monotone, which is why the
  convergence tests pin the spread and only require overall variance decay.

Under the synchronous clock all nodes act each round (the classic protocol);
under the event clock (:mod:`repro.engine.event_clock`) one node acts per
wakeup.  One loop consumes either clock's round source
(:mod:`repro.engine.channels`); only the float update differs.  Event groups
batch only non-colliding events, and within a group every target receives
exactly one contribution, so the vectorised group update performs the *same
floating-point additions in the same order* as sequential application —
event-clock push-sum is bit-identical to a one-event-at-a-time reference,
which ``tests/core/test_push_sum.py`` pins.

The run returns a regular :class:`~repro.core.results.GossipResult` (with
``knowledge=None``): ``completed`` means the spread converged below the
tolerance, ``rounds`` counts synchronous rounds or non-empty event groups,
and ``extras["series"]`` carries the per-round/per-group convergence metrics
(time, mass error, spread, variance) the push-sum scenario aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..engine.channels import SyncRounds
from ..engine.event_clock import EventScheduler
from ..engine.failures import NO_FAILURES, FailurePlan
from ..engine.metrics import TransmissionLedger
from ..engine.rng import RandomState
from ..graphs.adjacency import Adjacency
from .parameters import log2
from .protocol import GossipProtocol
from .results import GossipResult

__all__ = ["PushSumParameters", "PushSumGossip", "INITIAL_VALUES"]

#: Supported initial-value presets: ``linear`` spreads ``i / (n - 1)`` over
#: the nodes (deterministic, true mean 1/2); ``uniform`` draws i.i.d.
#: ``U[0, 1)`` values from the run's generator *before* any event randomness.
INITIAL_VALUES = ("linear", "uniform")


@dataclass(frozen=True)
class PushSumParameters:
    """Tunables of the push-sum averaging protocol.

    Attributes
    ----------
    tolerance:
        Convergence threshold on the estimate spread ``max(s/w) - min(s/w)``
        (absolute; both value presets live in ``[0, 1]``).
    max_rounds_factor:
        Safety limit: at most ``ceil(max_rounds_factor * log n)`` synchronous
        rounds, or that many times ``n`` wakeups under the event clock.  The
        default is generous because reaching a ``1e-8`` spread needs
        ``O(log n + log(1/tol))`` rounds on a well-connected graph, and many
        more on a heavy-tailed one: on connected power-law samples
        (exponent 2.5, n = 128 to 2048) either clock needed 30 to 83 ·
        log2 n rounds.
    clock:
        Default execution clock (``"sync"`` or ``"event"``).
    values:
        Initial-value preset, one of :data:`INITIAL_VALUES`.
    """

    tolerance: float = 1e-8
    max_rounds_factor: float = 100.0
    clock: str = "sync"
    values: str = "linear"

    def max_rounds(self, n: int) -> int:
        """Maximum number of synchronous rounds for network size ``n``."""
        return max(8, math.ceil(self.max_rounds_factor * log2(n)))

    def max_events(self, n: int) -> int:
        """Event-clock wakeup budget: ``max_rounds(n)`` rounds' worth."""
        return self.max_rounds(n) * max(1, n)


class PushSumGossip(GossipProtocol):
    """Gossip-based distributed averaging via push-sum."""

    name = "push-sum"
    supported_clocks = ("sync", "event")

    def __init__(self, params: Optional[PushSumParameters] = None) -> None:
        self.params = params or PushSumParameters()
        if self.params.values not in INITIAL_VALUES:
            raise ValueError(
                f"unknown values preset {self.params.values!r} "
                f"(expected one of {INITIAL_VALUES})"
            )

    def run(
        self,
        graph: Adjacency,
        *,
        rng: RandomState = None,
        failures: FailurePlan = NO_FAILURES,
        record_trace: bool = False,
        clock: Optional[str] = None,
    ) -> GossipResult:
        """Run push-sum until the estimate spread converges.

        ``record_trace`` is accepted for interface compatibility but ignored
        (there is no knowledge matrix to trace); failure plans are rejected
        because a crashed node would carry away mass.
        """
        clock = self._resolve_clock(clock if clock is not None else self.params.clock)
        generator = self._prepare(graph, rng)
        if not failures.is_empty():
            raise ValueError("PushSumGossip does not support failure plans")
        n = graph.n
        # Initial values are drawn before any event randomness so the event
        # stream at a given seed is identical for both presets' clocks.
        if self.params.values == "uniform":
            x = generator.random(n)
        else:
            x = np.arange(n, dtype=np.float64) / float(n - 1)
        s = x.copy()
        w = np.ones(n, dtype=np.float64)
        mass = float(x.sum())
        true_mean = mass / n
        series: Dict[str, List[float]] = {
            "time": [],
            "mass_error": [],
            "spread": [],
            "variance": [],
        }

        def observe(time: float) -> float:
            ratio = s / w
            spread = float(ratio.max() - ratio.min())
            series["time"].append(float(time))
            series["mass_error"].append(
                abs(float(s.sum()) - mass) / max(1.0, abs(mass))
            )
            series["spread"].append(spread)
            series["variance"].append(float(ratio.var()))
            return spread

        variance_initial = float(x.var())
        ledger = TransmissionLedger(n)
        ledger.begin_phase("push-sum")
        tolerance = float(self.params.tolerance)
        completed = False
        if clock == "sync":
            source = SyncRounds(graph, generator, max_rounds=self.params.max_rounds(n))
        else:
            source = EventScheduler(
                graph, generator, max_events=self.params.max_events(n)
            )
        for channels in source.rounds():
            ledger.record_opens(channels.openers)
            if not channels.is_round:
                continue
            callers, targets = channels.callers, channels.targets
            # The order of the float additions fixes the bits, so each clock
            # keeps its own update.
            if clock == "sync":
                # Every node calls (``_prepare`` rejects isolated nodes), so
                # ``targets[i]`` is node ``i``'s callee.
                s_half = 0.5 * s
                w_half = 0.5 * w
                s = s_half + np.bincount(targets, weights=s_half, minlength=n)
                w = w_half + np.bincount(targets, weights=w_half, minlength=n)
            else:
                s_half = 0.5 * s[callers]
                w_half = 0.5 * w[callers]
                s[callers] = s_half
                w[callers] = w_half
                # Within a non-colliding group every target is distinct, so
                # this aligned add performs exactly the additions sequential
                # per-event application would — bit-identical floats.
                s[targets] += s_half
                w[targets] += w_half
            ledger.record_pushes(callers)
            ledger.end_round()
            if observe(channels.end_time) <= tolerance:
                completed = True
                break

        ledger.end_phase()
        ratio = s / w
        extras = {
            "clock": clock,
            "events": source.events,
            "sim_time": source.time,
            "true_mean": true_mean,
            "mass_error": series["mass_error"][-1] if series["mass_error"] else 0.0,
            "spread": series["spread"][-1] if series["spread"] else 0.0,
            "variance_initial": variance_initial,
            "variance_final": series["variance"][-1] if series["variance"] else 0.0,
            "estimate_error": float(np.abs(ratio - true_mean).max()),
            "series": series,
        }
        return GossipResult(
            protocol=self.name,
            n_nodes=n,
            completed=completed,
            rounds=ledger.rounds,
            ledger=ledger,
            knowledge=None,
            trace=None,
            extras=extras,
        )
