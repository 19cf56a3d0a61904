"""Pure-Python knowledge oracle for the differential property harness.

A deliberately naive re-implementation of the
:class:`repro.engine.knowledge.KnowledgeStorage` semantics using one Python
``set`` of message identifiers per node — no numpy, no bit packing, no
kernels, no layouts.  Every bulk operation follows the snapshot-round
discipline literally (gather all source sets as copies, then write), so the
oracle is obviously correct by inspection and any divergence from an engine
layout/backend combination indicts the engine, not the reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["OracleKnowledge"]


def _pack(rows: Sequence[set], n_messages: int) -> np.ndarray:
    """Message-id sets as a dense packed uint64 matrix, engine word layout."""
    words = max(1, -(-n_messages // 64))
    out = np.zeros((len(rows), words), dtype=np.uint64)
    for i, row in enumerate(rows):
        for message in row:
            out[i, message // 64] |= np.uint64(1) << np.uint64(message % 64)
    return out


class OracleKnowledge:
    """Set-per-node reference model of the knowledge-storage contract."""

    def __init__(
        self, n_nodes: int, n_messages: Optional[int] = None, *, initialize_own: bool = True
    ) -> None:
        self.n_nodes = int(n_nodes)
        self.n_messages = int(n_messages if n_messages is not None else n_nodes)
        self.rows_: List[set] = [set() for _ in range(self.n_nodes)]
        if initialize_own:
            for i in range(min(self.n_nodes, self.n_messages)):
                self.rows_[i].add(i)

    # ------------------------------------------------------------------ #
    # Bulk operations (snapshot semantics, mirroring KnowledgeStorage)
    # ------------------------------------------------------------------ #
    def apply_transmissions(self, senders: Sequence[int], receivers: Sequence[int]) -> None:
        """Directed sends, all evaluated against start-of-step state."""
        snap = [set(self.rows_[s]) for s in senders]
        for sent, r in zip(snap, receivers):
            self.rows_[r] |= sent

    def apply_exchange(self, callers: Sequence[int], targets: Sequence[int]) -> None:
        """Push–pull both ways, all reads from start-of-step state.

        The engine's saturation filter (``complete`` / ``complete_row``) is
        a bit-exact shortcut whenever every participating row is a subset of
        the completion row, so the oracle never models it: a plain
        snapshot union must match the filtered engine result too.
        """
        snap: Dict[int, set] = {}
        for node in list(callers) + list(targets):
            if node not in snap:
                snap[node] = set(self.rows_[node])
        for c, t in zip(callers, targets):
            self.rows_[t] |= snap[c]
            self.rows_[c] |= snap[t]

    def apply_event(self, caller: int, target: int) -> None:
        """One asynchronous push–pull wakeup, applied immediately (no batch)."""
        sent = set(self.rows_[caller])
        pulled = set(self.rows_[target])
        self.rows_[target] |= sent
        self.rows_[caller] |= pulled

    def scatter_rows(
        self,
        source: Sequence[Sequence[int]],
        src_idx: Sequence[int],
        receivers: Sequence[int],
    ) -> None:
        """OR externally staged rows (as message-id lists) into receivers."""
        for s, r in zip(src_idx, receivers):
            self.rows_[r] |= set(source[s])

    def merge_rows(
        self,
        external: Sequence[Sequence[int]],
        ext_rows: Sequence[int],
        nodes: Sequence[int],
    ) -> np.ndarray:
        """Union external rows and nodes both ways; return the packed pool.

        Each pair reads both sides' start-of-call sets: the external row
        becomes their union, and the node accumulates every such union.
        """
        pool = [set(row) for row in external]
        start = {node: set(self.rows_[node]) for node in nodes}
        for e, node in zip(ext_rows, nodes):
            pool[e] = set(external[e]) | start[node]
            self.rows_[node] |= pool[e]
        return _pack(pool, self.n_messages)

    def assign_rows(self, nodes: Sequence[int], messages: Sequence[int]) -> None:
        for node in nodes:
            self.rows_[node] = set(messages)

    # ------------------------------------------------------------------ #
    # Point mutators and queries
    # ------------------------------------------------------------------ #
    def add(self, node: int, message: int) -> None:
        self.rows_[node].add(message)

    def add_many(self, nodes: Sequence[int], message: int) -> None:
        for node in nodes:
            self.rows_[node].add(message)

    def count_missing(self, mask: Sequence[int], rows: Sequence[int]) -> List[int]:
        """Per-row deficits against a target message set."""
        target = set(mask)
        return [len(target - self.rows_[r]) for r in rows]

    def counts(self) -> List[int]:
        return [len(row) for row in self.rows_]

    def complete_rows(self) -> List[bool]:
        """Which rows know every message (the saturation mask)."""
        return [len(row) == self.n_messages for row in self.rows_]

    # ------------------------------------------------------------------ #
    # Materialization (for bit-exact comparison with the engine)
    # ------------------------------------------------------------------ #
    def packed(self) -> np.ndarray:
        """The state as a dense packed uint64 matrix, engine word layout."""
        return _pack(self.rows_, self.n_messages)
