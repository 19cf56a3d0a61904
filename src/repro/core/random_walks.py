"""Random-walk machinery used by Phase II of Algorithm 1 (fast-gossiping).

At the beginning of each Phase II round every node starts a random walk with a
small probability.  A walk is a packet carrying a set of original messages; on
arrival at a node it is merged with the node's combined message (both walk and
node learn each other's messages), appended to the node's FIFO queue, and the
node forwards one queued walk per step to a uniformly random neighbour.  Each
forward is a *move*; walks are refused from queues once they exceed a move cap
(``c_moves * log n``), which the paper uses to keep walks well mixed.

The :class:`WalkPool` below stores all walks of one round in flat NumPy arrays
(payload bitsets, move counters, per-walk host assignment and FIFO sequence
numbers) and exposes the three operations the protocol needs: delivery of
in-transit walks, one forwarding step, and the set of nodes that currently
hold walks.  All three are fully vectorised: a delivery merges every
arriving payload with its destination row in one storage call
(:meth:`~repro.engine.knowledge.KnowledgeMatrix.merge_rows`, two
scatter-OR passes), and the oldest-walk-per-host selection of a forwarding
step is a ``lexsort`` over ``(host, sequence)`` followed by a boundary pick
— no per-walk Python loop survives on the hot path.

Synchronous semantics: all walks delivered in the same step read the
destination node's *start-of-delivery* knowledge and the node accumulates the
union of every arriving payload (snapshot-read / live-write, the same
discipline as :meth:`~repro.engine.knowledge.KnowledgeMatrix.apply_transmissions`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from ..engine.knowledge import KnowledgeMatrix
from ..engine.metrics import TransmissionLedger
from ..graphs.adjacency import Adjacency

__all__ = ["WalkPool", "start_walks"]

_EMPTY = np.zeros(0, dtype=np.int64)


class WalkPool:
    """All random walks of a single Phase II round.

    Parameters
    ----------
    payloads:
        ``(num_walks, words)`` packed bitset payloads, one row per walk.
    move_cap:
        Maximum number of moves after which a walk is no longer enqueued.
    """

    def __init__(self, payloads: np.ndarray, move_cap: int) -> None:
        self.payloads = np.ascontiguousarray(payloads, dtype=np.uint64)
        if self.payloads.ndim != 2:
            raise ValueError("payloads must be a 2-D array of packed words")
        self.move_cap = int(move_cap)
        self.num_walks = int(self.payloads.shape[0])
        self.moves = np.zeros(self.num_walks, dtype=np.int64)
        #: Hosting node per walk (-1 while in transit or retired).
        self._host = np.full(self.num_walks, -1, dtype=np.int64)
        #: FIFO position per walk: smaller = enqueued earlier.
        self._seq = np.zeros(self.num_walks, dtype=np.int64)
        self._next_seq = 0
        #: Maintained counter of queued walks (keeps ``queued_walks`` O(1)).
        self._queued = 0
        #: Number of forwarding steps performed (bounds every move counter).
        self._forward_steps = 0
        #: Walks currently travelling, as aligned (walk id, destination) arrays.
        self._transit_ids = _EMPTY
        self._transit_dests = _EMPTY
        #: Walks dropped because they exceeded the move cap.
        self.retired: List[int] = []
        #: Total number of walk moves performed (for diagnostics).
        self.total_moves = 0

    # ------------------------------------------------------------------ #
    # State queries
    # ------------------------------------------------------------------ #
    def nodes_with_walks(self) -> np.ndarray:
        """Nodes whose queue currently holds at least one walk (sorted)."""
        hosts = self._host[self._host >= 0]
        return np.unique(hosts)

    def queued_walks(self) -> int:
        """Total number of queued walks (O(1): a maintained counter)."""
        return self._queued

    def walks_in_transit(self) -> int:
        """Number of walks currently travelling to their next host."""
        return int(self._transit_ids.size)

    def is_idle(self) -> bool:
        """True when no walk is queued or in transit."""
        return self._queued == 0 and self._transit_ids.size == 0

    @property
    def queues(self) -> Dict[int, Deque[int]]:
        """Per-node FIFO queues, materialised from the flat arrays (a copy).

        Only intended for inspection and tests; the hot path works on the
        flat ``host``/``sequence`` arrays directly.
        """
        queued = np.flatnonzero(self._host >= 0)
        order = np.lexsort((self._seq[queued], self._host[queued]))
        result: Dict[int, Deque[int]] = {}
        for walk_id in queued[order].tolist():
            result.setdefault(int(self._host[walk_id]), deque()).append(walk_id)
        return result

    # ------------------------------------------------------------------ #
    # Protocol operations
    # ------------------------------------------------------------------ #
    def send(self, walk_id: int, destination: int) -> None:
        """Put a single walk in transit towards ``destination``."""
        self.send_many(
            np.asarray([walk_id], dtype=np.int64),
            np.asarray([destination], dtype=np.int64),
        )

    def send_many(self, walk_ids: np.ndarray, destinations: np.ndarray) -> None:
        """Put a batch of walks in transit (aligned id/destination arrays)."""
        walk_ids = np.asarray(walk_ids, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        if walk_ids.size == 0:
            return
        self._transit_ids = np.concatenate([self._transit_ids, walk_ids])
        self._transit_dests = np.concatenate([self._transit_dests, destinations])

    def deliver(self, knowledge: KnowledgeMatrix) -> None:
        """Deliver all in-transit walks to their destinations.

        For every delivered walk ``w`` arriving at node ``v`` (and still under
        the move cap): the walk payload and ``v``'s combined message are
        merged (``q_v.add(m' ∪ m_v)``; ``m_v ← m_v ∪ m'``) and the walk is
        appended to ``v``'s queue.  Walks over the cap are retired without
        touching the node's state, exactly as in the pseudocode, which skips
        them entirely.

        All arrivals of one call are synchronous: each walk merges with the
        node's start-of-delivery knowledge, and the node accumulates the union
        of every arriving payload — one
        :meth:`~repro.engine.knowledge.KnowledgeMatrix.merge_rows` call.
        """
        walk_ids = self._transit_ids
        dests = self._transit_dests
        self._transit_ids = _EMPTY
        self._transit_dests = _EMPTY
        if walk_ids.size == 0:
            return
        if self._forward_steps > self.move_cap:
            # A walk's move count is bounded by the number of forwarding
            # steps performed so far, so the cap check is skipped entirely
            # while it cannot possibly trigger.
            over = self.moves[walk_ids] > self.move_cap
            if over.any():
                self.retired.extend(walk_ids[over].tolist())
                walk_ids = walk_ids[~over]
                dests = dests[~over]
        if walk_ids.size == 0:
            return
        # The walk ids of one delivery are distinct, as merge_rows requires.
        knowledge.merge_rows(self.payloads, walk_ids, dests)
        # Enqueue in arrival order (FIFO per destination).
        self._host[walk_ids] = dests
        self._seq[walk_ids] = self._next_seq + np.arange(walk_ids.size)
        self._next_seq += int(walk_ids.size)
        self._queued += int(walk_ids.size)

    def forward_step(
        self,
        graph: Adjacency,
        rng: np.random.Generator,
        ledger: TransmissionLedger,
        *,
        alive: Optional[np.ndarray] = None,
    ) -> int:
        """Every node holding walks forwards the oldest one to a random neighbour.

        Returns the number of walks forwarded.  Each forward costs the hosting
        node one channel open and one push packet.
        """
        self._forward_steps += 1
        queued = np.flatnonzero(self._host >= 0)
        if queued.size == 0:
            return 0
        # Oldest queued walk per host: one sort of all queued walks by
        # (host, FIFO sequence); the first entry of every host segment is
        # both the host list (sorted, unique) and its head walk.
        order = np.lexsort((self._seq[queued], self._host[queued]))
        q_sorted = queued[order]
        h_sorted = self._host[q_sorted]
        firsts = np.empty(h_sorted.size, dtype=bool)
        firsts[0] = True
        np.not_equal(h_sorted[1:], h_sorted[:-1], out=firsts[1:])
        head_walks = q_sorted[firsts]
        hosts = h_sorted[firsts]
        if alive is not None:
            healthy = alive[hosts]
            hosts = hosts[healthy]
            head_walks = head_walks[healthy]
            if hosts.size == 0:
                return 0
        destinations = graph.sample_neighbors(hosts, rng)
        valid = destinations >= 0
        if not valid.all():
            hosts = hosts[valid]
            destinations = destinations[valid]
            head_walks = head_walks[valid]
            if hosts.size == 0:
                return 0
        popped = head_walks
        self._host[popped] = -1
        self._queued -= int(popped.size)
        if alive is not None:
            dead = ~alive[destinations]
        else:
            dead = np.zeros(hosts.size, dtype=bool)
        if dead.any():
            # The channel is opened but the failed callee never stores the
            # walk: the walk is lost (crash semantics).
            self.retired.extend(popped[dead].tolist())
        live_walks = popped[~dead]
        self.moves[live_walks] += 1
        self.total_moves += int(live_walks.size)
        self.send_many(live_walks, destinations[~dead])
        ledger.record_opens(hosts)
        ledger.record_pushes(hosts)
        return int(hosts.size)


def start_walks(
    graph: Adjacency,
    knowledge: KnowledgeMatrix,
    probability: float,
    move_cap: int,
    rng: np.random.Generator,
    ledger: TransmissionLedger,
    *,
    alive: Optional[np.ndarray] = None,
) -> WalkPool:
    """Start the round's random walks.

    Every (alive) node flips a coin and with ``probability`` starts a walk by
    pushing its combined message to a uniformly random neighbour.  The newly
    created walks are placed in transit in the returned :class:`WalkPool`;
    callers should invoke :meth:`WalkPool.deliver` at the beginning of the
    first forwarding step.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")
    nodes = np.arange(graph.n, dtype=np.int64)
    if alive is not None:
        nodes = nodes[alive[nodes]]
    coins = rng.random(nodes.size) < probability
    starters = nodes[coins]
    destinations = graph.sample_neighbors(starters, rng)
    ok = destinations >= 0
    if alive is not None and starters.size:
        ok &= np.where(destinations >= 0, alive[np.clip(destinations, 0, None)], False)
    # The channel open and push happen regardless of whether the callee is
    # healthy; only delivery depends on it.
    if starters.size:
        ledger.record_opens(starters)
        ledger.record_pushes(starters)
    starters_ok = starters[ok]
    destinations_ok = destinations[ok]
    payloads = knowledge.rows(starters_ok)
    pool = WalkPool(payloads, move_cap)
    pool.send_many(np.arange(destinations_ok.size, dtype=np.int64), destinations_ok)
    return pool
