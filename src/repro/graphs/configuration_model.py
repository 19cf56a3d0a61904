"""Configuration-model random graphs (random pairing of degree stubs).

Section 2 of the paper defines the configuration model following Wormald: each
node owns ``d`` stubs and a uniformly random perfect matching of all stubs
(a *pairing*) defines the edge set.  The pairing can create self-loops and
multi-edges; the paper notes that for the degree range considered their number
is constant with high probability and treats them separately in the analysis.

For simulation we follow the common *erased* configuration model: self-loops
and parallel edges are dropped after pairing.  In the ``d >= log^2 n`` regime
this changes at most a vanishing fraction of edges and keeps the graph simple,
which the communication model requires (a node cannot call itself).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..engine.rng import RandomState, make_rng
from .adjacency import Adjacency, sample_connected

__all__ = ["configuration_model", "random_regular"]


def _pair_stubs(degrees: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Return an ``(m, 2)`` array of endpoints from a uniform stub pairing."""
    stubs = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    if stubs.size % 2:
        raise ValueError("sum of degrees must be even")
    rng.shuffle(stubs)
    return stubs.reshape(-1, 2)


def configuration_model(
    degrees: Union[Sequence[int], np.ndarray],
    *,
    rng: RandomState = None,
    erase_defects: bool = True,
) -> Adjacency:
    """Sample a configuration-model graph with the given degree sequence.

    Parameters
    ----------
    degrees:
        Requested degree of each node.  The sum must be even.
    rng:
        Randomness source.
    erase_defects:
        Drop self-loops and parallel edges after pairing (the erased
        configuration model, default).  When false the defects are still
        dropped — :class:`~repro.graphs.adjacency.Adjacency` only represents
        simple graphs — but a ``ValueError`` is raised if any defect occurred,
        which is useful for tests that want the exact pairing semantics.
    """
    degree_array = np.asarray(degrees, dtype=np.int64)
    if degree_array.ndim != 1 or degree_array.size == 0:
        raise ValueError("degrees must be a non-empty one-dimensional sequence")
    if np.any(degree_array < 0):
        raise ValueError("degrees must be non-negative")
    if int(degree_array.sum()) % 2:
        raise ValueError("sum of degrees must be even")
    generator = make_rng(rng)
    pairs = _pair_stubs(degree_array, generator)
    graph = Adjacency.from_edges(degree_array.size, pairs)
    if not erase_defects:
        realized = int(graph.num_edges)
        requested = int(degree_array.sum() // 2)
        if realized != requested:
            raise ValueError(
                f"pairing produced {requested - realized} defect edge(s) "
                "(self-loops or multi-edges)"
            )
    return graph


def random_regular(
    n: int,
    d: int,
    *,
    rng: RandomState = None,
    require_connected: bool = False,
    max_retries: int = 20,
) -> Adjacency:
    """Sample a (near-)``d``-regular graph via the erased configuration model.

    For the degree regime used throughout the paper (``d >= log^2 n``) the
    erased model deviates from exact ``d``-regularity only by the handful of
    erased defect edges, and the paper's own analysis works with exactly this
    model (multiple edges and loops "treated separately at the end").

    Parameters
    ----------
    n:
        Number of nodes.
    d:
        Requested degree (``n * d`` must be even and ``d < n``).
    rng:
        Randomness source.
    require_connected:
        Resample until the graph is connected (up to ``max_retries`` times).
    max_retries:
        Maximum number of attempts when ``require_connected``.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if d < 0 or d >= n:
        raise ValueError(f"d must satisfy 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2:
        raise ValueError("n * d must be even")
    generator = make_rng(rng)
    degrees = np.full(n, d, dtype=np.int64)
    return sample_connected(
        lambda: configuration_model(degrees, rng=generator),
        require_connected=require_connected,
        max_retries=max_retries,
        description=f"random regular graph (n={n}, d={d})",
    )
