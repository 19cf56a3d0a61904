"""Event-clock scheduling: asynchronous gossip as batched non-colliding groups.

The synchronous engine advances in lock-step rounds; the continuous-time
(asynchronous) model instead gives every node an independent rate-1 Poisson
clock and lets a node act alone whenever its clock rings.  The superposition
of ``n`` rate-1 clocks is one global rate-``n`` Poisson process whose ring
owners are i.i.d. uniform over the nodes, so the whole event stream can be
sampled from a single generator in fixed draw order — which is what keeps
event-clock runs bit-identical across kernel backends and thread counts at
equal seeds.

**Stream discipline** (the determinism contract, pinned by
``tests/engine/test_event_clock.py``): events are drawn in chunks of
:data:`DEFAULT_CHUNK_EVENTS` wakeups, and each chunk consumes the generator
in exactly this order:

1. ``rng.exponential(1 / n, chunk)`` — inter-arrival gaps of the global
   process,
2. ``rng.integers(0, n, chunk)`` — the ring owners,
3. ``graph.sample_neighbors(owners, rng)`` — each owner's callee.

Nothing downstream (liveness thinning, grouping, kernel backend) touches
the generator, so the sampled stream depends only on the seed, the graph
and the chunk size.  The chunk size is part of the stream
definition — numpy's ziggurat/rejection samplers consume a data-dependent
number of raw draws, so re-chunking genuinely reorders the stream — which is
why every production driver uses the one fixed default; the ``chunk_events``
parameter exists so tests can pin the border-carry property below.

**Batching.**  Applying one event at a time would forfeit the vectorised
scatter-OR / swap-form kernels, so consecutive events are greedily batched
into *non-colliding groups*: a group is a maximal prefix of the remaining
stream in which all endpoints (callers and callees) are pairwise distinct.
Within such a group every event reads and writes rows no other event in the
group touches, so replaying the group through one synchronous
``apply_exchange`` batch is bit-identical to applying the events one by one
— the invariant the differential harness in ``tests/harness/`` checks
against a sequential pure-Python oracle.  Group boundaries depend only on
the event stream itself: the duplicate-tracking state carries across chunk
borders, so regrouping the flattened stream with :func:`group_events`
reproduces the scheduler's partition exactly and the per-run group count is
deterministic.

**Churn.**  :class:`ChurnPlan` holds seeded join/leave edits keyed by global
wakeup index, and the scheduler applies it: at every churn index it forces a
group boundary, then applies the edits keyed there, so membership never
changes inside a batch.  Wakeups of currently-dead nodes are discarded
(thinning — statistically this is exactly the dead nodes' clocks standing
still), and calls into dead callees open a channel but exchange nothing,
mirroring :func:`repro.engine.channels.open_channels`.

The scheduler is the event clock's round source: its groups are
:class:`~repro.engine.channels.ChannelRound` objects, like the rounds of
:class:`~repro.engine.channels.SyncRounds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.adjacency import Adjacency
from .channels import ChannelRound
from .rng import RandomState, make_rng

__all__ = [
    "DEFAULT_CHUNK_EVENTS",
    "EventGroup",
    "EventScheduler",
    "ChurnPlan",
    "sample_churn_plan",
    "group_events",
]

#: Wakeups sampled per generator chunk.  Part of the stream definition (see
#: the module docstring) — production drivers always use this default; tests
#: vary it only to pin that grouping state carries across chunk borders.
DEFAULT_CHUNK_EVENTS = 1024


@dataclass(frozen=True)
class EventGroup(ChannelRound):
    """One non-colliding batch of exchange events, ready for ``apply_exchange``.

    Attributes
    ----------
    callers / targets:
        Aligned event endpoints, sorted by caller.  All ``2k`` endpoints are
        pairwise distinct, so ``callers`` is sorted-unique (the
        ``apply_exchange`` precondition) and batched application equals
        sequential application bit for bit.
    openers:
        Callers of every *alive* wakeup since the previous group was
        emitted — including wakeups whose callee was dead (channel opened,
        nothing exchanged) — for open-accounting parity with the synchronous
        ledger discipline.  May repeat.
    end_time:
        Simulated time of the last event included in the group.
    end_index:
        Global wakeups consumed when the group was emitted.
    forced:
        True when the boundary was forced (churn index or event budget)
        rather than caused by an endpoint collision.
    """

    end_index: int
    forced: bool = False

    @property
    def is_round(self) -> bool:
        """A group without an exchange charges its openers but is no round."""
        return self.size > 0


@dataclass(frozen=True)
class ChurnPlan:
    """Seeded join/leave edits applied at fixed global wakeup indices.

    Attributes
    ----------
    indices:
        Global wakeup counts at which each edit applies, ascending.
    nodes:
        The node each edit toggles.
    joins:
        ``True`` for a join (node revives, keeping its knowledge), ``False``
        for a leave.
    """

    indices: np.ndarray
    nodes: np.ndarray
    joins: np.ndarray

    def __post_init__(self) -> None:
        if not (self.indices.shape == self.nodes.shape == self.joins.shape):
            raise ValueError("churn arrays must have identical shapes")
        if self.indices.size and np.any(np.diff(self.indices) < 0):
            raise ValueError("churn indices must be ascending")

    def __len__(self) -> int:
        return int(self.indices.size)

    def final_alive(self, initial: np.ndarray) -> np.ndarray:
        """The alive mask after every edit has been applied."""
        alive = np.asarray(initial, dtype=bool).copy()
        # Ops are sorted by index, and a node's rejoin is sampled strictly
        # after its leave, so applying in order yields the final state.
        for node, join in zip(self.nodes.tolist(), self.joins.tolist()):
            alive[node] = bool(join)
        return alive


def sample_churn_plan(
    n_nodes: int,
    *,
    leavers: int,
    rng: RandomState,
    horizon: int,
    rejoin_fraction: float = 0.5,
) -> ChurnPlan:
    """Sample a deterministic churn plan from a seeded generator.

    ``leavers`` distinct nodes each leave at a wakeup index uniform in
    ``[1, horizon)``; a ``rejoin_fraction`` share of them rejoins between
    one wakeup and ``horizon // 2`` wakeups later.  Draw order is fixed
    (nodes, leave indices, rejoin coin-flips, rejoin offsets) so the plan
    depends only on the seed.
    """
    if not 0 <= leavers < n_nodes:
        raise ValueError(
            f"leavers must be in [0, n_nodes), got {leavers} of {n_nodes}"
        )
    generator = make_rng(rng)
    if leavers == 0:
        empty = np.zeros(0, dtype=np.int64)
        return ChurnPlan(empty, empty, np.zeros(0, dtype=bool))
    horizon = max(2, int(horizon))
    nodes = generator.choice(n_nodes, size=leavers, replace=False).astype(np.int64)
    leave_at = generator.integers(1, horizon, size=leavers)
    rejoins = generator.random(leavers) < float(rejoin_fraction)
    offsets = 1 + generator.integers(0, max(1, horizon // 2), size=leavers)
    idx: List[int] = list(leave_at)
    who: List[int] = list(nodes)
    join: List[bool] = [False] * leavers
    for i in np.flatnonzero(rejoins):
        idx.append(int(leave_at[i] + offsets[i]))
        who.append(int(nodes[i]))
        join.append(True)
    order = np.argsort(np.asarray(idx), kind="stable")
    return ChurnPlan(
        np.asarray(idx, dtype=np.int64)[order],
        np.asarray(who, dtype=np.int64)[order],
        np.asarray(join, dtype=bool)[order],
    )


def group_events(
    callers: Sequence[int], targets: Sequence[int], n_nodes: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split an explicit event list into greedy maximal non-colliding groups.

    Returns ``(callers, targets)`` pairs in stream order, each sorted by
    caller with pairwise-distinct endpoints.  This is the exact grouping
    rule :class:`EventScheduler` applies to its sampled stream, exposed
    standalone so the differential harness can validate the invariant
    (batched group application == sequential event application) on arbitrary
    generated event lists.
    """
    callers = np.asarray(callers, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if callers.shape != targets.shape:
        raise ValueError("callers and targets must have identical shapes")
    if np.any(callers == targets):
        raise ValueError("an event cannot connect a node to itself")
    groups: List[Tuple[np.ndarray, np.ndarray]] = []
    seen = bytearray(n_nodes)
    cur_c: List[int] = []
    cur_t: List[int] = []

    def flush() -> None:
        if cur_c:
            c = np.asarray(cur_c, dtype=np.int64)
            t = np.asarray(cur_t, dtype=np.int64)
            order = np.argsort(c)
            groups.append((c[order], t[order]))
            for node in cur_c:
                seen[node] = 0
            for node in cur_t:
                seen[node] = 0
            cur_c.clear()
            cur_t.clear()

    for c, t in zip(callers.tolist(), targets.tolist()):
        if seen[c] or seen[t]:
            flush()
        cur_c.append(c)
        cur_t.append(t)
        seen[c] = 1
        seen[t] = 1
    flush()
    return groups


class EventScheduler:
    """Samples the global event stream and emits non-colliding groups.

    Parameters
    ----------
    graph:
        The communication network (callees are uniform neighbours).
    rng:
        The generator consumed per the module-level stream discipline.
    max_events:
        Total wakeup budget (the event-clock analogue of ``max_rounds``).
    alive:
        Initial boolean liveness mask (default: all alive).
    churn:
        Optional join/leave edits.  At each of its indices the scheduler
        emits a (possibly empty) forced group, then applies the edits keyed
        there before the stream continues.
    chunk_events:
        Generator chunk size.  Part of the stream definition (see the
        module docstring); leave at the default outside of tests.
    """

    def __init__(
        self,
        graph: Adjacency,
        rng: np.random.Generator,
        *,
        max_events: int,
        alive: Optional[np.ndarray] = None,
        churn: Optional[ChurnPlan] = None,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> None:
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        if chunk_events <= 0:
            raise ValueError(f"chunk_events must be positive, got {chunk_events}")
        self._graph = graph
        self._rng = rng
        self._max_events = int(max_events)
        self._chunk = int(chunk_events)
        if alive is None:
            self._alive: List[bool] = [True] * graph.n
        else:
            self._alive = [bool(a) for a in np.asarray(alive, dtype=bool)]
        # Churn edits as (index, node, join), last first so the next one pops.
        self._edits: List[Tuple[int, int, bool]] = []
        if churn is not None:
            self._edits = list(
                zip(churn.indices.tolist(), churn.nodes.tolist(), churn.joins.tolist())
            )[::-1]
        #: Wakeups consumed so far (including thinned dead-node wakeups).
        self.events = 0
        #: Simulated time of the last consumed wakeup.
        self.time = 0.0

    def rounds(self) -> Iterator[EventGroup]:
        """Yield non-colliding event groups until the wakeup budget is spent.

        The final (possibly partial) group is flushed when the budget runs
        out; a forced group, possibly empty, is emitted at every churn index
        before its edits apply.
        """
        n = self._graph.n
        scale = 1.0 / n
        seen = bytearray(n)
        cur_c: List[int] = []
        cur_t: List[int] = []
        openers: List[int] = []
        last_time = self.time

        def flush(forced: bool) -> EventGroup:
            c = np.asarray(cur_c, dtype=np.int64)
            t = np.asarray(cur_t, dtype=np.int64)
            if c.size:
                order = np.argsort(c)
                c = c[order]
                t = t[order]
            group = EventGroup(
                callers=c,
                targets=t,
                openers=np.asarray(openers, dtype=np.int64),
                end_time=last_time,
                end_index=self.events,
                forced=forced,
            )
            for node in cur_c:
                seen[node] = 0
            for node in cur_t:
                seen[node] = 0
            cur_c.clear()
            cur_t.clear()
            openers.clear()
            return group

        alive = self._alive
        edits = self._edits
        while self.events < self._max_events:
            k = min(self._chunk, self._max_events - self.events)
            gaps = self._rng.exponential(scale, k)
            owners = self._rng.integers(0, n, size=k)
            targets = self._graph.sample_neighbors(owners, self._rng)
            times = (self.time + np.cumsum(gaps)).tolist()
            owners_l = owners.tolist()
            targets_l = targets.tolist()
            for j in range(k):
                if edits and edits[-1][0] <= self.events:
                    yield flush(forced=True)
                    while edits and edits[-1][0] <= self.events:
                        _, node, join = edits.pop()
                        alive[node] = join
                self.events += 1
                self.time = times[j]
                owner = owners_l[j]
                if not alive[owner]:
                    continue
                callee = targets_l[j]
                openers.append(owner)
                if callee < 0 or not alive[callee]:
                    continue
                if seen[owner] or seen[callee]:
                    yield flush(forced=False)
                cur_c.append(owner)
                cur_t.append(callee)
                seen[owner] = 1
                seen[callee] = 1
                last_time = self.time
        if cur_c or openers:
            yield flush(forced=True)
