"""Power-law random graphs (Chung–Lu / Aiello-style degree sequences).

The related-work section of the paper cites Aiello, Chung and Lu's random
graph model for power-law graphs as one of the graph families motivating the
study of density effects.  We provide a Chung–Lu style generator: each pair of
nodes ``(u, v)`` is connected independently with probability proportional to
``w_u * w_v`` where the weights follow a truncated power law.  This gives a
sparse heavy-tailed substrate on which the protocols (and the degree
assumptions they rely on) can be stress-tested and is used by the density
extension experiments and examples.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine.rng import RandomState, make_rng
from .adjacency import Adjacency, sample_connected
from .configuration_model import configuration_model

__all__ = ["power_law_degree_sequence", "power_law_graph"]


def power_law_degree_sequence(
    n: int,
    exponent: float = 2.5,
    *,
    min_degree: int = 2,
    max_degree: Optional[int] = None,
    rng: RandomState = None,
) -> np.ndarray:
    """Sample an even-sum power-law degree sequence.

    Degrees are drawn from ``P(k) ~ k^{-exponent}`` on
    ``[min_degree, max_degree]`` (default cap ``sqrt(n)``, the standard
    structural cutoff that keeps the configuration model close to simple).

    Parameters
    ----------
    n:
        Number of nodes.
    exponent:
        Power-law exponent (must exceed 1).
    min_degree:
        Smallest admissible degree.
    max_degree:
        Largest admissible degree; defaults to ``int(sqrt(n))``.
    rng:
        Randomness source.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if exponent <= 1.0:
        raise ValueError(f"exponent must exceed 1, got {exponent}")
    if min_degree < 1:
        raise ValueError(f"min_degree must be at least 1, got {min_degree}")
    if max_degree is None:
        max_degree = max(min_degree, int(np.sqrt(n)))
    if max_degree < min_degree:
        raise ValueError("max_degree must be at least min_degree")
    generator = make_rng(rng)
    support = np.arange(min_degree, max_degree + 1, dtype=np.float64)
    weights = support ** (-exponent)
    weights /= weights.sum()
    degrees = generator.choice(
        np.arange(min_degree, max_degree + 1, dtype=np.int64), size=n, p=weights
    )
    if int(degrees.sum()) % 2:
        # Make the stub count even by bumping one node, preferring a node
        # whose degree stays within the cap.
        candidates = np.flatnonzero(degrees < max_degree)
        target = int(candidates[0]) if candidates.size else 0
        degrees[target] += 1
    return degrees


def power_law_graph(
    n: int,
    exponent: float = 2.5,
    *,
    min_degree: int = 2,
    max_degree: Optional[int] = None,
    rng: RandomState = None,
    require_connected: bool = False,
) -> Adjacency:
    """Sample a power-law graph via the erased configuration model.

    Erasing defect edges can isolate a node; with ``require_connected`` each
    of up to 20 attempts draws a new degree sequence and pairing.
    """
    generator = make_rng(rng)
    return sample_connected(
        lambda: configuration_model(
            power_law_degree_sequence(
                n, exponent, min_degree=min_degree, max_degree=max_degree, rng=generator
            ),
            rng=generator,
        ),
        require_connected=require_connected,
        max_retries=20,
        description=f"power-law graph (n={n}, exponent={exponent})",
    )
