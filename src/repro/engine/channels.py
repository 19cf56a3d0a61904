"""Per-step channel bookkeeping for the random phone call model.

In each synchronous step every participating node opens at most one *outgoing*
channel to a neighbour chosen uniformly at random; the same channel is an
*incoming* channel for the callee and can be used bidirectionally (push by the
caller, pull by the callee) during that step.  A node can therefore have at
most one outgoing channel but arbitrarily many incoming ones.

:func:`open_channels` performs the random choices for a whole step at once and
returns a :class:`ChannelSet`: the aligned ``callers`` / ``targets`` arrays of
the opened channels, from which protocols vectorise their push and pull
transmissions.

Protocols that repeat the step read it from a *round source*, one per clock.
:class:`SyncRounds` opens one channel per alive node in every synchronous
round; :class:`~repro.engine.event_clock.EventScheduler` batches Poisson
wakeups into non-colliding groups.  Both yield :class:`ChannelRound` objects
and count the wakeups (``events``) and the simulated ``time`` they consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..graphs.adjacency import Adjacency

__all__ = ["ChannelRound", "ChannelSet", "SyncRounds", "open_channels"]


@dataclass(frozen=True)
class ChannelSet:
    """The set of channels opened in one synchronous step.

    Attributes
    ----------
    callers:
        Nodes that opened a channel this step (sorted, unique).
    targets:
        ``targets[i]`` is the callee of ``callers[i]``.
    """

    callers: np.ndarray
    targets: np.ndarray


@dataclass(frozen=True)
class ChannelRound(ChannelSet):
    """One round of a round source: its channels, every node charged an open
    (including calls into crashed callees), and the simulated ``end_time``."""

    openers: np.ndarray
    end_time: float

    @property
    def size(self) -> int:
        """Number of channels that reached a live callee."""
        return int(self.callers.size)

    @property
    def is_round(self) -> bool:
        """Whether the ledger counts it: a sync round does, even without a channel."""
        return True


def open_channels(
    graph: Adjacency,
    rng: np.random.Generator,
    *,
    participants: Optional[np.ndarray] = None,
    alive: Optional[np.ndarray] = None,
) -> ChannelSet:
    """Open one random outgoing channel for every participating node.

    Parameters
    ----------
    graph:
        The communication network.
    rng:
        Randomness source for the neighbour choices.
    participants:
        Nodes that open a channel this step.  Defaults to all nodes.
    alive:
        Optional boolean mask of alive nodes.  Failed nodes neither open
        channels nor can be reached: a channel whose callee is failed is still
        *opened* (and counted by the caller's ledger) but carries no usable
        endpoint, so it is excluded from the returned channel set — this
        mirrors non-malicious crash failures where the failed node simply does
        not communicate.

    Returns
    -------
    ChannelSet
        The channels successfully established this step.
    """
    if participants is None:
        participants = np.arange(graph.n, dtype=np.int64)
    else:
        participants = np.asarray(participants, dtype=np.int64)
    if alive is not None:
        participants = participants[alive[participants]]
    targets = graph.sample_neighbors(participants, rng)
    if alive is None and not graph.has_isolated:
        # Every call reaches a live callee: nothing to filter or copy.
        return ChannelSet(callers=participants, targets=targets)
    ok = targets >= 0
    if alive is not None and targets.size:
        ok &= np.where(targets >= 0, alive[np.clip(targets, 0, None)], False)
    callers = participants[ok]
    callees = targets[ok]
    return ChannelSet(callers=callers, targets=callees)


class SyncRounds:
    """The synchronous round source: up to ``max_rounds`` rounds, in each of
    which every node of the optional ``alive`` mask calls through
    :func:`open_channels`."""

    def __init__(
        self,
        graph: Adjacency,
        rng: np.random.Generator,
        *,
        max_rounds: int,
        alive: Optional[np.ndarray] = None,
    ) -> None:
        self._graph = graph
        self._rng = rng
        self._max_rounds = int(max_rounds)
        self._alive = alive
        #: Channel opens so far (one per alive node per round).
        self.events = 0
        #: Rounds so far, as simulated time.
        self.time = 0.0

    def rounds(self) -> Iterator[ChannelRound]:
        """Yield one :class:`ChannelRound` per synchronous round."""
        alive = self._alive
        if alive is None:
            openers = np.arange(self._graph.n, dtype=np.int64)
        else:
            openers = np.flatnonzero(alive)
        for _ in range(self._max_rounds):
            channels = open_channels(self._graph, self._rng, participants=openers, alive=alive)
            self.events += int(openers.size)
            self.time += 1.0
            yield ChannelRound(channels.callers, channels.targets, openers, self.time)
