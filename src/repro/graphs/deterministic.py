"""Deterministic reference topologies: complete graphs and hypercubes.

The complete graph is the benchmark topology of the original gossiping results
(Karp et al. and Berenbrink et al.): the paper's central question is whether
their complete-graph results carry over to sparse random graphs, so the
complete graph is needed as the comparison substrate for the density sweep.
The hypercube is included as a classic bounded-degree reference topology from
the broadcasting literature (Feige et al.) and is used in examples and tests.
"""

from __future__ import annotations

import numpy as np

from .adjacency import Adjacency

__all__ = ["complete_graph", "hypercube"]


def complete_graph(n: int) -> Adjacency:
    """The complete graph ``K_n`` (every pair of distinct nodes adjacent)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    # Row v lists 0..n-1 without v: slot j holds j, or j + 1 once j >= v.
    # The ids are written as int32, the dtype Adjacency keeps.
    slots = np.arange(n - 1, dtype=np.int32)
    indices = slots + (slots >= np.arange(n, dtype=np.int32)[:, None])
    return Adjacency(np.arange(n + 1, dtype=np.int64) * (n - 1), indices.ravel())


def hypercube(dimension: int) -> Adjacency:
    """The ``dimension``-dimensional hypercube on ``2**dimension`` nodes.

    Node labels are interpreted as bit strings; two nodes are adjacent when
    their labels differ in exactly one bit.
    """
    if dimension < 0:
        raise ValueError(f"dimension must be non-negative, got {dimension}")
    n = 1 << dimension
    if dimension == 0:
        return Adjacency(np.asarray([0, 0], dtype=np.int64), np.zeros(0, dtype=np.int64))
    nodes = np.arange(n, dtype=np.int64)
    edges = []
    for bit in range(dimension):
        partner = nodes ^ (1 << bit)
        mask = nodes < partner
        edges.append(np.column_stack([nodes[mask], partner[mask]]))
    return Adjacency.from_edges(n, np.concatenate(edges))
