"""Unified graph factory and the paper's density presets.

Experiments describe their topology with a :class:`GraphSpec` — a small,
serialisable description (kind + parameters) — and obtain concrete
:class:`~repro.graphs.adjacency.Adjacency` instances from :func:`make_graph`.
The module also hosts the density presets used throughout the paper:
``p = log^2 n / n`` for the empirical section and expected degree
``log^{2+eps} n`` for the analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Optional

from ..engine.rng import RandomState, make_rng
from .adjacency import Adjacency
from .configuration_model import configuration_model, random_regular
from .deterministic import complete_graph, hypercube
from .erdos_renyi import erdos_renyi, expected_degree_to_p, paper_edge_probability
from .power_law import power_law_graph

__all__ = [
    "GraphKind",
    "GraphSpec",
    "make_graph",
    "paper_expected_degree",
    "paper_graph_spec",
]

#: Supported graph kinds (string constants keep specs JSON-serialisable).
GraphKind = str

_KINDS = {
    "erdos_renyi",
    "random_regular",
    "configuration_model",
    "complete",
    "hypercube",
    "power_law",
}


def paper_expected_degree(n: int, exponent: float = 2.0) -> float:
    """Expected degree ``log_2(n)**exponent`` used by the paper's simulations."""
    if n < 2:
        return 0.0
    return math.log2(n) ** exponent


@dataclass(frozen=True)
class GraphSpec:
    """Serializable description of a graph family instance.

    Attributes
    ----------
    kind:
        One of ``erdos_renyi``, ``random_regular``, ``configuration_model``,
        ``complete``, ``hypercube``, ``power_law``.
    n:
        Number of nodes (for ``hypercube`` this is the number of nodes and
        must be a power of two).
    params:
        Kind-specific parameters (e.g. ``p`` or ``expected_degree`` for
        Erdős–Rényi, ``d`` for random-regular, ``exponent`` for power-law).
    """

    kind: GraphKind
    n: int
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}; expected one of {sorted(_KINDS)}")
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")

    def describe(self) -> str:
        """Human-readable one-line description."""
        params = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}(n={self.n}{', ' + params if params else ''})"

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view for JSON persistence."""
        return {"kind": self.kind, "n": self.n, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GraphSpec":
        """Inverse of :meth:`as_dict`."""
        return cls(kind=data["kind"], n=int(data["n"]), params=dict(data.get("params", {})))


def paper_graph_spec(n: int, exponent: float = 2.0) -> GraphSpec:
    """The topology of the paper's empirical section: ``G(n, log^2 n / n)``."""
    return GraphSpec(
        kind="erdos_renyi",
        n=n,
        params={"p": paper_edge_probability(n, exponent), "require_connected": True},
    )


def make_graph(spec: GraphSpec, rng: RandomState = None) -> Adjacency:
    """Instantiate the graph described by ``spec``.

    Parameters
    ----------
    spec:
        The graph description.  A parameter its kind does not take (say, a
        misspelt ``require_connected``) raises :class:`ValueError` rather
        than being ignored.
    rng:
        Randomness source (ignored by the deterministic kinds).
    """
    generator = make_rng(rng)
    params = dict(spec.params)
    # Each kind takes its own keys; whatever is left over is a mistake.
    if spec.kind == "erdos_renyi":
        build = partial(
            erdos_renyi,
            spec.n,
            params.pop("p", None),
            expected_degree=params.pop("expected_degree", None),
            require_connected=bool(params.pop("require_connected", False)),
            max_retries=int(params.pop("max_retries", 20)),
            rng=generator,
        )
    elif spec.kind == "random_regular":
        build = partial(
            random_regular,
            spec.n,
            int(params.pop("d")),
            require_connected=bool(params.pop("require_connected", False)),
            max_retries=int(params.pop("max_retries", 20)),
            rng=generator,
        )
    elif spec.kind == "configuration_model":
        build = partial(configuration_model, params.pop("degrees"), rng=generator)
    elif spec.kind == "complete":
        build = partial(complete_graph, spec.n)
    elif spec.kind == "hypercube":
        dimension = int(round(math.log2(spec.n)))
        if 2**dimension != spec.n:
            raise ValueError(f"hypercube size must be a power of two, got {spec.n}")
        build = partial(hypercube, dimension)
    elif spec.kind == "power_law":
        build = partial(
            power_law_graph,
            spec.n,
            float(params.pop("exponent", 2.5)),
            min_degree=int(params.pop("min_degree", 2)),
            max_degree=params.pop("max_degree", None),
            require_connected=bool(params.pop("require_connected", False)),
            rng=generator,
        )
    else:  # pragma: no cover - GraphSpec validates the kind
        raise ValueError(f"unknown graph kind {spec.kind!r}")
    if params:
        raise ValueError(
            f"unknown parameter(s) for graph kind {spec.kind!r}: {sorted(params)}"
        )
    return build()
