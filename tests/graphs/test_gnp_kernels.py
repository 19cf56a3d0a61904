"""The compiled ``G(n, p)`` path against the NumPy one.

Under the compiled backend ``erdos_renyi`` hands the sampler's sorted
upper-triangle pair indices to ``_ckernel.pairs_csr`` instead of decoding
them for ``Adjacency.from_edges``.  These tests pin:

* the compiled CSR byte-equal to the NumPy path's for any sorted pair set,
  with ``int32`` ids on both, and the C BFS reading those ids in place;
* invalid pair lists (unsorted, duplicate, negative, out of range) rejected
  with ``ValueError`` before anything is written out of bounds;
* the in-place sampler drawing exactly the earlier sampler's pair indices
  and RNG stream, including the rare second batch;
* ``make_graph`` under ``c`` really calling both compiled entry points, so a
  silent fallback to NumPy fails here rather than only costing time.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import _ckernel, backends
from repro.graphs import make_graph, paper_graph_spec
from repro.graphs.adjacency import Adjacency
from repro.graphs.erdos_renyi import _pairs_to_edges, _sample_gnp_pairs

needs_compiled = pytest.mark.skipif(
    not _ckernel.available(), reason="compiled kernel unavailable on this machine"
)


def numpy_csr(n, pairs):
    """The NumPy path: decode the pairs, then ``Adjacency.from_edges``."""
    graph = Adjacency.from_edges(n, _pairs_to_edges(n, pairs))
    return graph.indptr, graph.indices


def assert_paths_agree(n, pairs):
    indptr, indices = _ckernel.pairs_csr(n, pairs)
    expected_indptr, expected_indices = numpy_csr(n, pairs)
    assert indices.dtype == expected_indices.dtype == np.int32
    assert indptr.tobytes() == expected_indptr.tobytes()
    assert indices.tobytes() == expected_indices.tobytes()


@st.composite
def pair_sets(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    total = n * (n - 1) // 2
    chosen = draw(
        st.sets(st.integers(min_value=0, max_value=max(total - 1, 0)), max_size=total)
    )
    return n, np.asarray(sorted(chosen) if total else [], dtype=np.int64)


@needs_compiled
class TestPairsCsr:
    @settings(max_examples=300, deadline=None)
    @given(pair_sets())
    def test_matches_numpy_path(self, data):
        n, pairs = data
        assert_paths_agree(n, pairs)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    def test_edge_cases(self, n):
        total = n * (n - 1) // 2
        assert_paths_agree(n, np.zeros(0, dtype=np.int64))  # no edge
        assert_paths_agree(n, np.arange(total, dtype=np.int64))  # complete
        if n >= 2:
            # Only the last pair (n - 2, n - 1): every earlier row is empty.
            assert_paths_agree(n, np.asarray([total - 1], dtype=np.int64))
            # Only the first pair (0, 1): every later row is empty.
            assert_paths_agree(n, np.asarray([0], dtype=np.int64))

    def test_rows_without_pairs(self):
        """Rows 1 and 3 own no pair; node 1 has no neighbour at all."""
        # n = 6: row r starts at index r*n - r*(r+1)/2 = 0, 5, 9, 12, 14.
        n = 6
        pairs = np.asarray([1, 9, 11, 14], dtype=np.int64)  # 02 23 25 45
        assert_paths_agree(n, pairs)
        graph = Adjacency(*_ckernel.pairs_csr(n, pairs))
        assert graph.degrees.tolist() == [1, 0, 3, 1, 1, 2]
        assert graph.edge_list().tolist() == [[0, 2], [2, 3], [2, 5], [4, 5]]

    @pytest.mark.parametrize(
        "pairs",
        [
            [3, 2],  # unsorted
            [1, 1],  # duplicate
            [0, 4, 4, 5],  # duplicate inside a run
            [-1, 2],  # negative
            [2, 10],  # == n(n-1)/2 for n = 5
            [2, 1 << 40],  # far out of range
        ],
    )
    def test_invalid_pairs_raise(self, pairs):
        with pytest.raises(ValueError):
            _ckernel.pairs_csr(5, np.asarray(pairs, dtype=np.int64))

    def test_pairs_on_too_small_graphs_raise(self):
        for n in (0, 1):
            with pytest.raises(ValueError):
                _ckernel.pairs_csr(n, np.asarray([0], dtype=np.int64))
        with pytest.raises(ValueError):
            _ckernel.pairs_csr(-1, np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            _ckernel.pairs_csr(5, np.zeros((2, 2), dtype=np.int64))

    def test_node_count_beyond_int32_raises_before_allocating(self):
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            _ckernel.pairs_csr(2**31, np.zeros(0, dtype=np.int64))


@needs_compiled
class TestBfsConnected:
    def test_reads_the_graph_ids_in_place(self, monkeypatch):
        graph = make_graph(paper_graph_spec(512), rng=3)
        seen = []
        kernel = _ckernel._LIB.repro_bfs_connected

        def spy(indptr, indices, *rest):
            seen.append(ctypes.addressof(indices.contents))
            return kernel(indptr, indices, *rest)

        monkeypatch.setattr(_ckernel._LIB, "repro_bfs_connected", spy)
        assert _ckernel.bfs_connected(graph.indptr, graph.indices)
        assert seen == [graph.indices.ctypes.data]

    @pytest.mark.parametrize(
        "indices",
        [np.array([1, 0], dtype=np.int64), np.array([1, 9, 0, 9], dtype=np.int32)[::2]],
        ids=["int64", "strided"],
    )
    def test_refuses_ids_it_would_have_to_copy(self, indices):
        with pytest.raises(ValueError, match="C-contiguous int32"):
            _ckernel.bfs_connected(np.array([0, 1, 2]), indices)


def reference_sampler(n, p, rng):
    """The sampler before the in-place prefix slice: ``(pairs, batches)``."""
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0 or p <= 0.0:
        return np.zeros(0, dtype=np.int64), 0
    positions = []
    current = -1
    while current < total_pairs - 1:
        remaining_expectation = max(1024, int((total_pairs - current) * p * 1.1) + 16)
        gaps = rng.geometric(p, size=remaining_expectation)
        steps = np.cumsum(gaps)
        batch = current + steps
        batch = batch[batch < total_pairs]
        positions.append(batch)
        if batch.size < steps.size:
            current = total_pairs
        else:
            current = int(batch[-1])
    return np.concatenate(positions), len(positions)


#: n = 1400, p = 950 / (1400 * 1399 / 2): at these seeds the first batch
#: ends inside the triangle, so the sampler draws a second one.
SECOND_BATCH_P = 950 / (1400 * 1399 / 2)


class TestSampler:
    @pytest.mark.parametrize(
        "n, p, seed",
        [
            (1, 0.5, 0),
            (2, 0.5, 1),
            (2, 0.0, 1),
            (50, 0.3, 2),
            (64, 0.999, 3),
            (300, 0.01, 4),
            (1024, 100 / 1024, 5),
            (2048, paper_graph_spec(2048).params["p"], 1),
            (1400, SECOND_BATCH_P, 1514),
            (1400, SECOND_BATCH_P, 6460),
            (1400, SECOND_BATCH_P, 11366),
        ],
    )
    def test_same_pairs_and_stream_as_before(self, n, p, seed):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = _sample_gnp_pairs(n, p, rng)
        expected, batches = reference_sampler(n, p, reference_rng)
        assert pairs.dtype == np.int64
        assert pairs.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        if n == 1400:
            assert batches == 2  # the second-batch path is covered

    def test_pairs_strictly_increasing(self):
        pairs = _sample_gnp_pairs(500, 0.2, np.random.default_rng(9))
        assert np.all(np.diff(pairs) > 0)
        assert pairs[0] >= 0 and pairs[-1] < 500 * 499 // 2


@needs_compiled
def test_make_graph_calls_each_compiled_entry_point_once(monkeypatch):
    """A fallback to the NumPy path would leave these counts at zero."""
    calls = {"repro_pairs_csr": 0, "repro_bfs_connected": 0}
    for name in calls:
        kernel = getattr(_ckernel._LIB, name)

        def counted(*args, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(_ckernel._LIB, name, counted)
    with backends.use("c"):
        graph = make_graph(paper_graph_spec(2048), rng=1)
    assert graph.n == 2048
    assert calls == {"repro_pairs_csr": 1, "repro_bfs_connected": 1}
