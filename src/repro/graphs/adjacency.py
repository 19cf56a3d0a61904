"""Compressed sparse row adjacency structure used by all simulations.

The protocols in this library only need three graph operations, all of which
must be fast and allocation-light because they sit in the per-round hot loop:

* uniformly sampling a random neighbour for *every* node at once
  (:meth:`Adjacency.sample_neighbors`, one batched draw per round),
* sampling distinct neighbours while avoiding short per-node address lists —
  the memory model's ``open-avoid`` — for a whole batch of callers at once
  (:meth:`Adjacency.sample_neighbors_avoiding_many`: one vectorised binary
  search inside every caller's own sorted neighbour slice plus vectorised
  skip-sampling), and
* iterating neighbours of a node (for structural analysis and the
  vectorised BFS used by connectivity checks).

Everything is batched NumPy — no per-node Python loop survives on the
per-round hot path.  The batched samplers follow the library's fixed RNG
stream discipline (uniforms drawn per batch in caller order, fallbacks
afterwards), and ``tests/core/test_batched_equivalence.py`` plus
``tests/core/test_node_memory.py`` pin them bit-identically to per-node
reference loops sharing that discipline.

:class:`Adjacency` stores the graph in CSR form (``indptr``/``indices``) with
sorted neighbour lists, which supports all of the above with NumPy
vectorisation and binary search, and holds nothing else: the neighbour ids
are ``int32``, so a graph costs 4 bytes per directed edge plus 16 per node
(``indptr`` and ``degrees``), and the node count is capped at
:data:`MAX_NODES`.  Graphs are undirected
and simple (no self-loops, no parallel edges); generators that naturally
produce multi-edges (the configuration model) deduplicate before
constructing an :class:`Adjacency`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Adjacency", "MAX_NODES", "sample_connected"]

#: Largest node count a graph may have: every neighbour id fits ``int32``.
MAX_NODES = int(np.iinfo(np.int32).max)


def _check_node_count(n: int) -> None:
    """Raise :class:`ValueError` when ``n`` nodes cannot have ``int32`` ids."""
    if n > MAX_NODES:
        raise ValueError(f"graphs hold at most {MAX_NODES} nodes, got {n}")


class Adjacency:
    """Immutable undirected simple graph in CSR form.

    Parameters
    ----------
    indptr:
        CSR row pointer of length ``n + 1`` (stored as ``int64``).
    indices:
        Concatenated, per-row sorted neighbour lists (stored as
        C-contiguous ``int32``; such an array is kept without a copy).

    Use the :meth:`from_edges`, :meth:`from_neighbor_lists` or
    :meth:`from_networkx` constructors rather than building the arrays by
    hand.  Raises :class:`ValueError` on an inconsistent CSR, a neighbour
    id outside ``[0, n)``, or more than :data:`MAX_NODES` nodes.
    """

    __slots__ = ("n", "indptr", "indices", "degrees", "has_isolated")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices)
        if self.indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if self.indptr[0] != 0 or self.indptr[-1] != indices.size:
            raise ValueError("inconsistent CSR structure")
        self.n = int(self.indptr.size - 1)
        _check_node_count(self.n)
        self.degrees = np.diff(self.indptr)
        min_degree = int(self.degrees.min()) if self.n else 0
        if min_degree < 0:
            raise ValueError("indptr must be non-decreasing")
        #: Whether any node has degree zero (precomputed: neighbour sampling
        #: takes a branch-free fast path when every node has neighbours).
        self.has_isolated = bool(self.n) and min_degree == 0
        # Checked before narrowing, so a wide id cannot wrap into range.
        if indices.size and (indices.min() < 0 or indices.max() >= self.n):
            raise ValueError("neighbour index out of range")
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray) -> "Adjacency":
        """Build from an ``(m, 2)`` array of undirected edges.

        Self-loops and duplicate edges are removed.
        """
        _check_node_count(n)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        n64 = np.int64(n)
        # One key ``lo * n + hi`` per edge: sorted, the keys run in (lo, hi)
        # order with duplicates adjacent.  Self-loops are dropped first.
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        keys = np.sort((lo * n64 + hi)[lo != hi])
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        # Mirror every edge; one sort of the 2m directed keys is the CSR
        # order (owner, then neighbour), so each row is a key range.
        lo, hi = np.divmod(keys, n64)
        directed = np.concatenate([keys, hi * n64 + lo])
        directed.sort()
        indptr = np.searchsorted(directed, np.arange(n + 1, dtype=np.int64) * n64)
        indices = np.empty(directed.size, dtype=np.int32)
        return cls(indptr, np.remainder(directed, n64, out=indices))

    @classmethod
    def from_neighbor_lists(cls, neighbor_lists: Sequence[Sequence[int]]) -> "Adjacency":
        """Build from a list of per-node neighbour lists (must be symmetric)."""
        n = len(neighbor_lists)
        edges: List[Tuple[int, int]] = []
        for u, nbrs in enumerate(neighbor_lists):
            for v in nbrs:
                edges.append((u, int(v)))
        if not edges:
            return cls(np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
        arr = np.asarray(edges, dtype=np.int64)
        return cls.from_edges(n, arr)

    @classmethod
    def from_networkx(cls, graph) -> "Adjacency":
        """Build from a :class:`networkx.Graph` with integer-labelled nodes."""
        import networkx as nx  # local import: optional dependency path

        mapping = {node: i for i, node in enumerate(sorted(graph.nodes()))}
        edges = np.asarray(
            [(mapping[u], mapping[v]) for u, v in graph.edges()], dtype=np.int64
        )
        return cls.from_edges(graph.number_of_nodes(), edges)

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (mainly for analysis/tests)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.edge_list())
        return g

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size // 2)

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        return int(self.degrees[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted ``int32`` neighbour array of ``node`` (a view, do not mutate)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.size and nbrs[pos] == v)

    def edge_list(self) -> np.ndarray:
        """``(m, 2)`` array of undirected edges with ``u < v``."""
        src = np.repeat(np.arange(self.n), self.degrees)
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    def min_degree(self) -> int:
        """Minimum degree over all nodes."""
        return int(self.degrees.min()) if self.n else 0

    def max_degree(self) -> int:
        """Maximum degree over all nodes."""
        return int(self.degrees.max()) if self.n else 0

    def mean_degree(self) -> float:
        """Average degree over all nodes."""
        return float(self.degrees.mean()) if self.n else 0.0

    # ------------------------------------------------------------------ #
    # Random neighbour sampling (hot path)
    # ------------------------------------------------------------------ #
    def sample_neighbors(
        self, nodes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample one uniformly random neighbour for each entry of ``nodes``.

        Nodes of degree zero receive ``-1``.  Repeated node entries get
        independent samples, matching the random phone call model where every
        node opens its channel independently each step.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return np.zeros(0, dtype=np.int64)
        deg = self.degrees[nodes]
        if not self.has_isolated:
            # Every node has a neighbour: skip the -1 masking entirely.  The
            # random draw count matches the masked path, so both consume the
            # generator identically.
            offsets = (rng.random(nodes.size) * deg).astype(np.int64)
            return self.indices[self.indptr[nodes] + offsets].astype(np.int64)
        result = np.full(nodes.size, -1, dtype=np.int64)
        ok = deg > 0
        if np.any(ok):
            offsets = (rng.random(int(ok.sum())) * deg[ok]).astype(np.int64)
            result[ok] = self.indices[self.indptr[nodes[ok]] + offsets]
        return result

    def sample_neighbor(self, node: int, rng: np.random.Generator) -> int:
        """Sample one uniformly random neighbour of a single node (-1 if isolated)."""
        return int(self.sample_neighbors(np.asarray([node]), rng)[0])

    def neighbor_positions(self, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per-pair local position of ``values[i]`` in ``nodes[i]``'s list.

        Returns -1 where ``values[i]`` is not a neighbour of ``nodes[i]``;
        an id outside ``[0, n)`` never is one.  Every pair is resolved by a
        lower-bound binary search inside its own node's sorted slice
        ``indices[indptr[u]:indptr[u + 1]]``, all pairs advancing together:
        ``ceil(log2(max degree + 1))`` vectorised passes and no index beyond
        the CSR itself.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        local = np.full(nodes.size, -1, dtype=np.int64)
        if nodes.size == 0 or self.indices.size == 0:
            return local
        start = self.indptr[nodes]
        end = self.indptr[nodes + 1]
        lo, hi = start, end
        last = self.indices.size - 1
        # Each pass halves every pair's interval [lo, hi); a pair whose
        # interval is already empty reads a clamped slot and stays put.
        for _ in range(int((end - start).max()).bit_length()):
            mid = (lo + hi) >> 1
            below = (lo < hi) & (self.indices[np.minimum(mid, last)] < values)
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
        hit = (lo < end) & (self.indices[np.minimum(lo, last)] == values)
        local[hit] = lo[hit] - start[hit]
        return local

    def sample_neighbors_avoiding_many(
        self,
        nodes: np.ndarray,
        rng: np.random.Generator,
        avoid: Optional[np.ndarray] = None,
        count: int = 1,
    ) -> np.ndarray:
        """Batched ``open-avoid``: distinct random neighbours for many callers.

        For every ``nodes[i]`` this samples up to ``count`` *distinct*
        neighbours uniformly from ``N(nodes[i]) \\ avoid[i]`` with no
        per-node Python: avoided addresses are located by
        :meth:`neighbor_positions` for all callers at once and the samples
        are drawn by rank (skip-sampling over the excluded positions).

        Parameters
        ----------
        nodes:
            Caller identifiers, shape ``(m,)``.  Entries may repeat (each row
            is an independent draw).
        rng:
            Randomness source.
        avoid:
            Optional ``(m, A)`` matrix of addresses to avoid per caller;
            entries ``< 0`` are empty slots.  Duplicate addresses within a row
            are tolerated (a node's memory may store the same neighbour twice
            after a fallback re-open).
        count:
            Number of distinct samples requested per caller.

        Returns
        -------
        numpy.ndarray
            ``(m, count)`` targets; column ``j`` is caller ``i``'s ``j``-th
            sample or ``-1`` when fewer than ``j + 1`` eligible neighbours
            exist.  Failures always occupy the trailing columns.

        Notes
        -----
        **RNG stream discipline** — one call consumes exactly
        ``rng.random((m, count))`` (row-major), independent of degrees and
        avoid lists.  A per-node reference loop replicates the batch
        bit-for-bit by drawing the same matrix up front and mapping
        ``U[i, j]`` through ordinary skip-sampling; the equivalence tests pin
        exactly this.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        m = nodes.size
        if count <= 0:
            return np.zeros((m, 0), dtype=np.int64)
        uniforms = rng.random((m, count))
        result = np.full((m, count), -1, dtype=np.int64)
        if m == 0 or self.indices.size == 0:
            return result
        deg = self.degrees[nodes]
        starts = self.indptr[nodes]
        sentinel = np.int64(self.n)  # every local position is < degree <= n - 1

        # Locate the avoided addresses inside each caller's neighbour slice.
        avoid_width = 0
        if avoid is not None:
            avoid = np.asarray(avoid, dtype=np.int64)
            if avoid.ndim != 2 or avoid.shape[0] != m:
                raise ValueError("avoid must have shape (len(nodes), A)")
            avoid_width = avoid.shape[1]
        excl_width = avoid_width + max(0, count - 1)
        excluded = np.full((m, max(excl_width, 1)), sentinel, dtype=np.int64)
        if avoid_width:
            present = avoid >= 0
            flat = np.flatnonzero(present.ravel())
            if flat.size:
                local = self.neighbor_positions(
                    np.repeat(nodes, avoid_width)[flat], avoid.ravel()[flat]
                )
                block = np.full(m * avoid_width, sentinel, dtype=np.int64)
                block[flat[local >= 0]] = local[local >= 0]
                excluded[:, :avoid_width] = block.reshape(m, avoid_width)
            excluded.sort(axis=1)
            # Duplicate addresses in a row must not be double-counted.
            dup = excluded[:, 1:] == excluded[:, :-1]
            dup &= excluded[:, 1:] < sentinel
            if dup.any():
                excluded[:, 1:][dup] = sentinel
                excluded.sort(axis=1)
        eligible = deg - (excluded < sentinel).sum(axis=1)

        for j in range(count):
            pool = eligible - j
            valid = pool > 0
            if not valid.any():
                break
            rank = (uniforms[:, j] * np.maximum(pool, 1)).astype(np.int64)
            rank = np.minimum(rank, np.maximum(pool - 1, 0))
            # Map the rank among eligible positions to an actual local
            # position by stepping over each excluded position (ascending).
            for k in range(excl_width):
                rank += rank >= excluded[:, k]
            pos = np.where(valid, starts + rank, 0)
            result[valid, j] = self.indices[pos][valid]
            if j < count - 1:
                excluded[:, avoid_width + j] = np.where(valid, rank, sentinel)
                excluded.sort(axis=1)
        return result

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def bfs_distances(self, source: int, cutoff: Optional[int] = None) -> np.ndarray:
        """Breadth-first distances from ``source`` (-1 for unreachable).

        ``cutoff`` optionally limits the search radius.
        """
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[source] = 0
        # Per-node scratch for deduplicating a frontier without sorting it.
        slot = np.empty(self.n, dtype=np.int64)
        frontier = np.asarray([source], dtype=np.int64)
        level = 0
        while frontier.size:
            if cutoff is not None and level >= cutoff:
                break
            # Expand the whole frontier at once: gather each frontier node's
            # CSR slice via a repeat-offset index instead of a per-node loop.
            counts = self.degrees[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            shift = self.indptr[frontier] - (np.cumsum(counts) - counts)
            nbrs = self.indices[np.arange(total) + np.repeat(shift, counts)]
            fresh = nbrs[dist[nbrs] < 0]
            # Each node keeps only the candidate that wrote its slot last:
            # O(len(fresh)) per level, with no sort and no scan of all n.
            order = np.arange(fresh.size)
            slot[fresh] = order
            frontier = fresh[slot[fresh] == order]
            dist[frontier] = level + 1
            level += 1
        return dist

    def connected_component(self, source: int) -> np.ndarray:
        """Node identifiers of the component containing ``source``."""
        dist = self.bfs_distances(source)
        return np.flatnonzero(dist >= 0)

    def is_connected(self) -> bool:
        """Whether the graph is connected (empty graphs count as connected).

        Under the compiled backend this is a queue BFS in C that stops once
        every node is queued; otherwise the NumPy BFS of
        :meth:`bfs_distances`.
        """
        if self.n <= 1:
            return True
        from ..engine import _ckernel, backends  # lazy: the engine imports this module

        if backends.active().use_compiled():
            return _ckernel.bfs_connected(self.indptr, self.indices)
        return self.connected_component(0).size == self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Adjacency(n={self.n}, m={self.num_edges}, mean_degree={self.mean_degree():.2f})"


def sample_connected(
    sample: Callable[[], Adjacency],
    *,
    require_connected: bool,
    max_retries: int,
    description: str,
) -> Adjacency:
    """Return ``sample()``, redrawn up to ``max_retries`` times until it is
    connected when ``require_connected``; raise :class:`RuntimeError` if none is."""
    attempts = max(1, max_retries if require_connected else 1)
    for _ in range(attempts):
        graph = sample()
        if not require_connected or graph.is_connected():
            return graph
    raise RuntimeError(
        f"failed to sample a connected {description} in {attempts} attempts; "
        f"last sample had min degree {graph.min_degree()}"
    )
