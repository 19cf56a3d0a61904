"""Tests for repro.graphs.adjacency (CSR adjacency structure)."""

from __future__ import annotations

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import complete_graph
from repro.graphs.adjacency import MAX_NODES, Adjacency
from repro.engine import _ckernel, backends
from repro.engine.rng import make_rng


def path_graph(n: int) -> Adjacency:
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    return Adjacency.from_edges(n, edges)


class TestConstruction:
    def test_from_edges_basic(self):
        graph = Adjacency.from_edges(4, np.asarray([[0, 1], [1, 2], [2, 3]]))
        assert graph.n == 4
        assert graph.num_edges == 3
        assert graph.degrees.tolist() == [1, 2, 2, 1]

    def test_self_loops_removed(self):
        graph = Adjacency.from_edges(3, np.asarray([[0, 0], [0, 1]]))
        assert graph.num_edges == 1
        assert not graph.has_edge(0, 0)

    def test_duplicate_edges_removed(self):
        graph = Adjacency.from_edges(3, np.asarray([[0, 1], [1, 0], [0, 1]]))
        assert graph.num_edges == 1
        assert graph.degree(0) == 1

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Adjacency.from_edges(3, np.asarray([[0, 3]]))

    def test_empty_graph(self):
        graph = Adjacency.from_edges(4, np.zeros((0, 2), dtype=np.int64))
        assert graph.num_edges == 0
        assert graph.min_degree() == 0
        assert graph.is_connected() is False  # 4 isolated nodes

    def test_single_node(self):
        graph = Adjacency.from_edges(1, np.zeros((0, 2), dtype=np.int64))
        assert graph.is_connected()

    def test_from_neighbor_lists(self):
        graph = Adjacency.from_neighbor_lists([[1, 2], [0], [0]])
        assert graph.num_edges == 2
        assert graph.has_edge(0, 2)

    def test_networkx_roundtrip(self):
        nx = pytest.importorskip("networkx")
        original = nx.erdos_renyi_graph(30, 0.2, seed=1)
        graph = Adjacency.from_networkx(original)
        assert graph.n == 30
        assert graph.num_edges == original.number_of_edges()
        back = graph.to_networkx()
        assert back.number_of_edges() == original.number_of_edges()

    def test_inconsistent_csr_rejected(self):
        with pytest.raises(ValueError):
            Adjacency(np.asarray([0, 2]), np.asarray([1]))

    def test_decreasing_indptr_rejected(self):
        # Consistent ends, but row 1 would have degree -1.
        with pytest.raises(ValueError, match="non-decreasing"):
            Adjacency(np.array([0, 3, 2]), np.array([1, 0]))


class TestStorage:
    """A graph holds its CSR and nothing else, at 4 bytes per directed edge."""

    def test_slots_hold_only_the_csr_arrays(self):
        graph = path_graph(6)
        graph.neighbor_positions(np.arange(6), np.arange(6))  # no cache appears
        arrays = {
            name for name in Adjacency.__slots__
            if isinstance(getattr(graph, name), np.ndarray)
        }
        assert arrays == {"indptr", "indices", "degrees"}
        assert graph.indices.dtype == np.int32
        assert graph.indices.flags.c_contiguous
        assert graph.indptr.dtype == np.int64

    def test_every_constructor_stores_int32_ids(self):
        graphs = [
            path_graph(5),
            complete_graph(7),
            Adjacency.from_neighbor_lists([[1], [0], []]),
            Adjacency(np.array([0, 1, 2]), [1, 0]),
        ]
        for graph in graphs:
            assert graph.indices.dtype == np.int32
            assert graph.neighbors(0).dtype == np.int32

    def test_int32_input_is_kept_without_a_copy(self):
        indices = np.array([1, 0], dtype=np.int32)
        assert Adjacency(np.array([0, 1, 2]), indices).indices is indices

    def test_wide_ids_are_checked_before_narrowing(self):
        # 2**32 + 1 would narrow to the valid id 1.
        with pytest.raises(ValueError, match="out of range"):
            Adjacency(np.array([0, 1, 2]), np.array([2**32 + 1, 0], dtype=np.int64))

    def test_sampled_ids_are_int64(self):
        graph = Adjacency.from_edges(4, np.asarray([[0, 1], [1, 2]]))  # 3 isolated
        rng = make_rng(0)
        assert graph.sample_neighbors(np.arange(3), rng).dtype == np.int64
        assert graph.sample_neighbors(np.arange(4), rng).dtype == np.int64
        assert graph.sample_neighbors_avoiding(1, rng, avoid=[0]).dtype == np.int64
        many = graph.sample_neighbors_avoiding_many(np.arange(4), rng, count=2)
        assert many.dtype == np.int64
        assert graph.edge_list().dtype == np.int64

    def test_node_count_is_capped_without_allocating_it(self):
        # A zero-stride view: 2**31 + 1 row pointers in 8 bytes.  The cap is
        # checked before anything of length n is built.
        indptr = np.broadcast_to(np.zeros(1, dtype=np.int64), (MAX_NODES + 2,))
        with pytest.raises(ValueError, match="at most 2147483647 nodes"):
            Adjacency(indptr, np.zeros(0, dtype=np.int32))
        with pytest.raises(ValueError, match="at most 2147483647 nodes"):
            Adjacency.from_edges(MAX_NODES + 1, np.zeros((0, 2), dtype=np.int64))
        assert MAX_NODES == 2**31 - 1


class TestQueries:
    def test_neighbors_sorted(self):
        graph = Adjacency.from_edges(5, np.asarray([[0, 4], [0, 2], [0, 1]]))
        assert graph.neighbors(0).tolist() == [1, 2, 4]

    def test_has_edge_symmetry(self):
        graph = path_graph(5)
        for u in range(5):
            for v in range(5):
                assert graph.has_edge(u, v) == graph.has_edge(v, u)
                assert graph.has_edge(u, v) == (abs(u - v) == 1)

    def test_edge_list_canonical(self):
        graph = path_graph(4)
        edges = graph.edge_list()
        assert edges.shape == (3, 2)
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_degree_stats(self):
        graph = path_graph(5)
        assert graph.min_degree() == 1
        assert graph.max_degree() == 2
        assert graph.mean_degree() == pytest.approx(8 / 5)


class TestSampling:
    def test_sample_neighbors_valid(self):
        graph = path_graph(10)
        rng = make_rng(0)
        nodes = np.arange(10)
        samples = graph.sample_neighbors(nodes, rng)
        assert samples.shape == nodes.shape
        for node, sample in zip(nodes.tolist(), samples.tolist()):
            assert graph.has_edge(node, sample)

    def test_sample_isolated_gives_minus_one(self):
        graph = Adjacency.from_edges(3, np.asarray([[0, 1]]))
        samples = graph.sample_neighbors(np.asarray([2]), make_rng(0))
        assert samples.tolist() == [-1]

    def test_sample_empty_input(self):
        graph = path_graph(3)
        assert graph.sample_neighbors(np.asarray([], dtype=np.int64), make_rng(0)).size == 0

    def test_sample_neighbor_scalar(self):
        graph = path_graph(3)
        assert graph.sample_neighbor(0, make_rng(0)) == 1

    def test_sample_is_roughly_uniform(self):
        graph = Adjacency.from_edges(5, np.asarray([[0, 1], [0, 2], [0, 3], [0, 4]]))
        rng = make_rng(1)
        samples = graph.sample_neighbors(np.zeros(4000, dtype=np.int64), rng)
        counts = np.bincount(samples, minlength=5)[1:]
        assert counts.min() > 800  # each neighbour ~1000 expected

    def test_sample_avoiding(self):
        graph = Adjacency.from_edges(5, np.asarray([[0, 1], [0, 2], [0, 3], [0, 4]]))
        rng = make_rng(2)
        for _ in range(20):
            picked = graph.sample_neighbors_avoiding(0, rng, avoid=[1, 2], count=1)
            assert picked.size == 1
            assert picked[0] in (3, 4)

    def test_sample_avoiding_distinct(self):
        graph = Adjacency.from_edges(6, np.asarray([[0, i] for i in range(1, 6)]))
        picked = graph.sample_neighbors_avoiding(0, make_rng(3), count=4)
        assert picked.size == 4
        assert len(set(picked.tolist())) == 4

    def test_sample_avoiding_all_avoided(self):
        graph = Adjacency.from_edges(3, np.asarray([[0, 1], [0, 2]]))
        picked = graph.sample_neighbors_avoiding(0, make_rng(4), avoid=[1, 2], count=1)
        assert picked.size == 0

    def test_sample_avoiding_count_exceeds_neighbors(self):
        graph = Adjacency.from_edges(3, np.asarray([[0, 1], [0, 2]]))
        picked = graph.sample_neighbors_avoiding(0, make_rng(5), count=10)
        assert set(picked.tolist()) == {1, 2}

    def test_sample_avoiding_with_replacement(self):
        graph = Adjacency.from_edges(2, np.asarray([[0, 1]]))
        picked = graph.sample_neighbors_avoiding(0, make_rng(6), count=5, distinct=False)
        assert picked.size == 5
        assert set(picked.tolist()) == {1}


class TestSampleAvoidingMany:
    """The batched open-avoid kernel (per-slice binary search, skip-sampling)."""

    def _scalar_reference(self, graph, nodes, uniforms, avoid, count):
        out = np.full((len(nodes), count), -1, dtype=np.int64)
        for i, v in enumerate(nodes):
            nbrs = graph.neighbors(v).tolist()
            excluded = []
            if avoid is not None:
                for a in avoid[i]:
                    if a < 0:
                        continue
                    if a in nbrs and nbrs.index(a) not in excluded:
                        excluded.append(nbrs.index(a))
            excluded.sort()
            for j in range(count):
                pool = len(nbrs) - len(excluded)
                if pool <= 0:
                    break
                rank = min(int(uniforms[i, j] * pool), pool - 1)
                for position in excluded:
                    if rank >= position:
                        rank += 1
                out[i, j] = nbrs[rank]
                excluded.append(rank)
                excluded.sort()
        return out

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_skip_sampling(self, seed):
        """Batch output is bit-identical to the per-node reference given the
        documented stream discipline (one ``rng.random((m, count))`` draw)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 48))
        graph = Adjacency.from_edges(
            n, rng.integers(0, n, (4 * n, 2)).astype(np.int64)
        )
        m = int(rng.integers(1, 3 * n))
        nodes = rng.integers(0, n, m).astype(np.int64)
        count = int(rng.integers(1, 5))
        avoid = rng.integers(-1, n, (m, 4)).astype(np.int64)
        sample_seed = int(rng.integers(1 << 31))
        got = graph.sample_neighbors_avoiding_many(
            nodes, make_rng(sample_seed), avoid=avoid, count=count
        )
        uniforms = make_rng(sample_seed).random((m, count))
        expected = self._scalar_reference(graph, nodes.tolist(), uniforms, avoid, count)
        assert np.array_equal(got, expected)

    def test_avoid_and_distinctness_respected(self):
        graph = Adjacency.from_edges(6, np.asarray([[0, i] for i in range(1, 6)]))
        nodes = np.zeros(64, dtype=np.int64)
        avoid = np.full((64, 2), -1, dtype=np.int64)
        avoid[:, 0] = 1
        picked = graph.sample_neighbors_avoiding_many(
            nodes, make_rng(9), avoid=avoid, count=3
        )
        assert picked.shape == (64, 3)
        for row in picked:
            assert 1 not in row.tolist()
            assert len(set(row.tolist())) == 3
            assert set(row.tolist()) <= {2, 3, 4, 5}

    def test_shortfall_padded_with_minus_one_trailing(self):
        graph = Adjacency.from_edges(4, np.asarray([[0, 1], [0, 2], [0, 3]]))
        avoid = np.asarray([[1, -1]], dtype=np.int64)
        picked = graph.sample_neighbors_avoiding_many(
            np.zeros(1, dtype=np.int64), make_rng(10), avoid=avoid, count=4
        )
        assert picked.shape == (1, 4)
        assert set(picked[0, :2].tolist()) == {2, 3}
        assert picked[0, 2:].tolist() == [-1, -1]

    def test_isolated_node_gets_no_sample(self):
        graph = Adjacency.from_edges(3, np.asarray([[0, 1]]))
        picked = graph.sample_neighbors_avoiding_many(
            np.asarray([2, 0], dtype=np.int64), make_rng(11), count=1
        )
        assert picked[0, 0] == -1
        assert picked[1, 0] == 1

    def test_duplicate_avoid_entries_not_double_counted(self):
        graph = Adjacency.from_edges(4, np.asarray([[0, 1], [0, 2], [0, 3]]))
        avoid = np.asarray([[1, 1, 1, -1]], dtype=np.int64)
        for seed in range(10):
            picked = graph.sample_neighbors_avoiding_many(
                np.zeros(1, dtype=np.int64), make_rng(seed), avoid=avoid, count=2
            )
            assert set(picked[0].tolist()) == {2, 3}

    def test_empty_inputs(self):
        graph = path_graph(3)
        assert graph.sample_neighbors_avoiding_many(
            np.zeros(0, dtype=np.int64), make_rng(0), count=2
        ).shape == (0, 2)
        assert graph.sample_neighbors_avoiding_many(
            np.zeros(4, dtype=np.int64), make_rng(0), count=0
        ).shape == (4, 0)

    def test_stream_consumption_is_shape_only(self):
        """The draw count depends only on (m, count), never on degrees, so
        interleaved protocols stay reproducible."""
        graph = Adjacency.from_edges(5, np.asarray([[0, 1], [0, 2], [3, 4]]))
        rng_a = make_rng(21)
        rng_b = make_rng(21)
        graph.sample_neighbors_avoiding_many(
            np.asarray([0, 3], dtype=np.int64), rng_a, count=2
        )
        rng_b.random((2, 2))
        assert rng_a.random() == rng_b.random()

    def test_neighbor_positions(self):
        graph = Adjacency.from_edges(5, np.asarray([[0, 1], [0, 3], [2, 3]]))
        nodes = np.asarray([0, 0, 0, 2, 4], dtype=np.int64)
        values = np.asarray([1, 2, 3, 3, 0], dtype=np.int64)
        assert graph.neighbor_positions(nodes, values).tolist() == [0, -1, 1, 0, -1]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_neighbor_positions_match_a_per_pair_loop(self, data):
        """Repeated and degree-0 callers, ids outside the graph, complete graphs."""
        n, edges = data.draw(random_edge_list())
        if data.draw(st.booleans()):
            graph = complete_graph(n)
        else:
            graph = Adjacency.from_edges(n, edges)
        k = data.draw(st.integers(min_value=0, max_value=40))
        node = st.integers(min_value=0, max_value=n - 1)
        value = node | st.sampled_from([-1, n, 2**40])
        nodes = data.draw(st.lists(node, min_size=k, max_size=k))
        values = data.draw(st.lists(value, min_size=k, max_size=k))
        expected = []
        for u, v in zip(nodes, values):
            nbrs = graph.neighbors(u).tolist()
            expected.append(nbrs.index(v) if v in nbrs else -1)
        got = graph.neighbor_positions(
            np.asarray(nodes, dtype=np.int64), np.asarray(values, dtype=np.int64)
        )
        assert got.dtype == np.int64
        assert got.tolist() == expected

    def test_out_of_range_avoid_addresses_are_ignored(self):
        """Regression: an avoid address >= n used to alias into the next
        node's key range and exclude a phantom neighbour."""
        graph = Adjacency.from_edges(
            3, np.asarray([[0, 1], [0, 2], [1, 2]])
        )  # triangle
        nodes = np.asarray([0, 0], dtype=np.int64)
        values = np.asarray([3, -7], dtype=np.int64)
        assert graph.neighbor_positions(nodes, values).tolist() == [-1, -1]
        picked = graph.sample_neighbors_avoiding_many(
            np.zeros(1, dtype=np.int64),
            make_rng(12),
            avoid=np.asarray([[3, -1]], dtype=np.int64),
            count=2,
        )
        assert set(picked[0].tolist()) == {1, 2}


class TestTraversal:
    def test_bfs_distances_path(self):
        graph = path_graph(6)
        dist = graph.bfs_distances(0)
        assert dist.tolist() == [0, 1, 2, 3, 4, 5]

    def test_bfs_cutoff(self):
        graph = path_graph(6)
        dist = graph.bfs_distances(0, cutoff=2)
        assert dist.tolist() == [0, 1, 2, -1, -1, -1]

    def test_unreachable_nodes(self):
        graph = Adjacency.from_edges(4, np.asarray([[0, 1], [2, 3]]))
        dist = graph.bfs_distances(0)
        assert dist[2] == -1 and dist[3] == -1
        assert set(graph.connected_component(0).tolist()) == {0, 1}
        assert not graph.is_connected()

    def test_connected_path(self):
        assert path_graph(10).is_connected()


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #
def reference_csr(n, edges):
    """The earlier ``from_edges`` (``np.unique`` + ``np.lexsort``), as an oracle."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    _, first = np.unique(lo * np.int64(n) + hi, return_index=True)
    src = np.concatenate([lo[first], hi[first]])
    dst = np.concatenate([hi[first], lo[first]])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


def reference_bfs(n, edges, source, cutoff=None):
    """Queue BFS over an adjacency-set view of the raw edge list."""
    neighbours = collections.defaultdict(set)
    for u, v in edges.tolist():
        if u != v:
            neighbours[u].add(v)
            neighbours[v].add(u)
    dist = [-1] * n
    dist[source] = 0
    queue = collections.deque([source])
    while queue:
        u = queue.popleft()
        if cutoff is not None and dist[u] >= cutoff:
            continue
        for v in neighbours[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@st.composite
def random_edge_list(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=0, max_value=60))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    return n, np.asarray(edges, dtype=np.int64).reshape(-1, 2)


class TestAdjacencyProperties:
    @settings(max_examples=200, deadline=None)
    @given(random_edge_list())
    def test_matches_reference_construction(self, data):
        """Byte-identical CSR to the unique + lexsort construction, with the
        neighbour ids compared as int64 (the graph keeps them as int32)."""
        n, edges = data
        graph = Adjacency.from_edges(n, edges)
        indptr, indices = reference_csr(n, edges)
        assert graph.indices.dtype == np.int32
        assert graph.indptr.tobytes() == indptr.tobytes()
        assert graph.indices.astype(np.int64).tobytes() == indices.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(random_edge_list(), st.data())
    def test_bfs_matches_queue_bfs(self, data, choices):
        n, edges = data
        graph = Adjacency.from_edges(n, edges)
        source = choices.draw(st.integers(min_value=0, max_value=n - 1))
        cutoff = choices.draw(st.none() | st.integers(min_value=0, max_value=4))
        expected = reference_bfs(n, edges, source, cutoff)
        assert graph.bfs_distances(source, cutoff=cutoff).tolist() == expected
        if cutoff is None:
            assert graph.is_connected() == (min(expected) >= 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_bfs_matches_queue_bfs_on_sparse_random_graphs(self, seed):
        """Hundreds of nodes just below the connectivity threshold: small
        components beside a giant one, with wide frontiers."""
        rng = np.random.default_rng(seed)
        n = 600
        edges = rng.integers(0, n, (int(0.4 * n * np.log(n)), 2))
        graph = Adjacency.from_edges(n, edges)
        for source in rng.integers(0, n, 4).tolist():
            for cutoff in (None, 1, 3):
                expected = reference_bfs(n, edges, source, cutoff)
                assert graph.bfs_distances(source, cutoff=cutoff).tolist() == expected

    @settings(max_examples=50, deadline=None)
    @given(random_edge_list())
    def test_handshake_lemma(self, data):
        """Sum of degrees equals twice the number of edges."""
        n, edges = data
        graph = Adjacency.from_edges(n, edges)
        assert graph.degrees.sum() == 2 * graph.num_edges

    @settings(max_examples=50, deadline=None)
    @given(random_edge_list())
    def test_symmetry_and_simplicity(self, data):
        n, edges = data
        graph = Adjacency.from_edges(n, edges)
        for u in range(n):
            nbrs = graph.neighbors(u)
            # No self loops, sorted, unique.
            assert u not in nbrs.tolist()
            assert np.all(np.diff(nbrs) > 0)
            for v in nbrs.tolist():
                assert graph.has_edge(v, u)

    @settings(max_examples=30, deadline=None)
    @given(random_edge_list())
    def test_edge_list_roundtrip(self, data):
        n, edges = data
        graph = Adjacency.from_edges(n, edges)
        rebuilt = Adjacency.from_edges(n, graph.edge_list())
        assert np.array_equal(rebuilt.indptr, graph.indptr)
        assert np.array_equal(rebuilt.indices, graph.indices)


@pytest.mark.skipif(not _ckernel.available(), reason="compiled kernel unavailable")
class TestCompiledConnectivity:
    """The C queue BFS and the NumPy BFS answer ``is_connected`` alike."""

    @staticmethod
    def both_paths(graph):
        with backends.use(backends.NumpyBackend()):
            expected = graph.is_connected()
        with backends.use(backends.CBackend(max_threads=1)):
            return graph.is_connected(), expected

    @settings(max_examples=200, deadline=None)
    @given(random_edge_list())
    def test_matches_numpy_bfs(self, data):
        n, edges = data
        compiled, expected = self.both_paths(Adjacency.from_edges(n, edges))
        assert compiled == expected

    @pytest.mark.parametrize(
        "n, edges, connected",
        [
            (1, [], True),
            (2, [], False),
            (2, [(0, 1)], True),
            (5, [(0, 1), (1, 2), (2, 3)], False),  # isolated last node
            (5, [(0, 1), (1, 2), (2, 3), (3, 4)], True),
            (6, [(0, 1), (1, 2), (3, 4), (4, 5)], False),  # two components
            (6, [(0, 5), (5, 4), (4, 3), (3, 2), (2, 1)], True),
        ],
    )
    def test_cases(self, n, edges, connected):
        graph = Adjacency.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        assert self.both_paths(graph) == (connected, connected)
