"""Erdős–Rényi ``G(n, p)`` random graphs.

The paper's empirical section uses ``G(n, p)`` with ``p = log^2 n / n`` (i.e.
expected degree ``log^2 n``), and the analysis covers expected degrees
``Omega(log^{2+eps} n)``.  The generator below uses the standard geometric
skipping technique (Batagelj & Brandes) so that sampling the edges costs
``O(n + m)`` expected time instead of ``O(n^2)``, with the inner loop fully
vectorised in NumPy.  The sample is the sorted list of the present pairs'
indices into the row-major upper triangle.  Under the compiled backend one
serial C pass turns that list into the CSR adjacency in ``O(n + m)`` with no
sort (:func:`repro.engine._ckernel.pairs_csr`), writing the ``int32``
neighbour ids the graph keeps, so the CSR is never copied; the NumPy path
decodes it into an edge list for :meth:`Adjacency.from_edges`.  Both give
the same bytes.  ``p = 1`` is the complete graph, built directly.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..engine import _ckernel, backends
from ..engine.rng import RandomState, make_rng
from .adjacency import Adjacency, sample_connected
from .deterministic import complete_graph

__all__ = ["erdos_renyi", "expected_degree_to_p", "paper_edge_probability"]


def expected_degree_to_p(n: int, expected_degree: float) -> float:
    """Edge probability giving the requested expected degree in ``G(n, p)``."""
    if n < 2:
        return 0.0
    return min(1.0, float(expected_degree) / float(n - 1))


def paper_edge_probability(n: int, exponent: float = 2.0) -> float:
    """The paper's density preset ``p = log^exponent(n) / n`` (base-2 log)."""
    if n < 2:
        return 1.0
    return min(1.0, math.log2(n) ** exponent / n)


def _sample_gnp_pairs(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sample the edge set of ``G(n, p)`` via geometric gap skipping.

    Pairs of the upper triangle are enumerated in row-major order (pair
    ``(r, c)``, ``r < c``, is index ``r*n - r*(r+1)/2 + c - r - 1``) and the
    gaps between successive present pairs follow a geometric distribution
    with success probability ``p``; we draw gaps in vectorised batches.
    Returns the present pairs' indices, strictly increasing.
    """
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0 or p <= 0.0:
        return np.zeros(0, dtype=np.int64)

    positions = []
    current = -1
    # Draw geometric gaps in batches sized to the expected remaining count.
    while current < total_pairs - 1:
        remaining_expectation = max(
            1024, int((total_pairs - current) * p * 1.1) + 16
        )
        batch = rng.geometric(p, size=remaining_expectation)
        # Gaps are >= 1, so the running sums strictly increase: the part
        # inside the triangle is a prefix, found by one binary search.
        np.cumsum(batch, out=batch)
        batch += current
        inside = int(np.searchsorted(batch, total_pairs))
        positions.append(batch[:inside])
        if inside < batch.size:
            current = total_pairs  # overshot the end: done
        else:
            current = int(batch[-1])
    return positions[0] if len(positions) == 1 else np.concatenate(positions)


def _pairs_to_edges(n: int, linear: np.ndarray) -> np.ndarray:
    """Decode sorted upper-triangle pair indices into ``(row, col)`` edges."""
    # Row r (0-based) owns the n - 1 - r positions from r*n - r*(r+1)/2 on,
    # and ``linear`` is sorted: one search of the n row starts counts each row.
    r = np.arange(n, dtype=np.int64)
    row_starts = r * n - r * (r + 1) // 2
    counts = np.diff(np.searchsorted(linear, row_starts), append=linear.size)
    rows = np.repeat(r, counts)
    cols = linear - np.repeat(row_starts - r - 1, counts)
    return np.column_stack([rows, cols])


def _graph_from_pairs(n: int, pairs: np.ndarray) -> Adjacency:
    """The CSR adjacency of the sampled pairs, on the active kernel backend."""
    if backends.active().use_compiled():
        return Adjacency(*_ckernel.pairs_csr(n, pairs))
    return Adjacency.from_edges(n, _pairs_to_edges(n, pairs))


def erdos_renyi(
    n: int,
    p: Optional[float] = None,
    *,
    expected_degree: Optional[float] = None,
    rng: RandomState = None,
    require_connected: bool = False,
    max_retries: int = 20,
) -> Adjacency:
    """Sample an Erdős–Rényi random graph ``G(n, p)``.

    Parameters
    ----------
    n:
        Number of nodes.
    p:
        Edge probability.  Exactly one of ``p`` and ``expected_degree`` must
        be given.
    expected_degree:
        Alternative parametrisation; converted via
        :func:`expected_degree_to_p`.
    rng:
        Randomness source.
    require_connected:
        When true, resample (up to ``max_retries`` times) until the sampled
        graph is connected.  In the paper's density regime (expected degree
        ``log^2 n``) the graph is connected with overwhelming probability, so
        retries are essentially free; the option exists because the gossiping
        completion criterion is meaningless on a disconnected graph.
    max_retries:
        Maximum number of resampling attempts when ``require_connected``.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if (p is None) == (expected_degree is None):
        raise ValueError("specify exactly one of p and expected_degree")
    if p is None:
        p = expected_degree_to_p(n, float(expected_degree))
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p >= 1.0:
        return complete_graph(n)
    generator = make_rng(rng)
    return sample_connected(
        lambda: _graph_from_pairs(n, _sample_gnp_pairs(n, p, generator)),
        require_connected=require_connected,
        max_retries=max_retries,
        description=f"G({n}, {p:.4g})",
    )
