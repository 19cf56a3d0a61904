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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.adjacency import Adjacency

__all__ = ["ChannelSet", "open_channels"]


@dataclass(frozen=True)
class ChannelSet:
    """The set of channels opened in one synchronous step.

    Attributes
    ----------
    n_nodes:
        Number of nodes in the network.
    callers:
        Nodes that opened a channel this step (sorted, unique).
    targets:
        ``targets[i]`` is the callee of ``callers[i]``.
    """

    n_nodes: int
    callers: np.ndarray
    targets: np.ndarray


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
    ok = targets >= 0
    if alive is not None and targets.size:
        ok &= np.where(targets >= 0, alive[np.clip(targets, 0, None)], False)
    callers = participants[ok]
    callees = targets[ok]
    return ChannelSet(n_nodes=graph.n, callers=callers, targets=callees)
