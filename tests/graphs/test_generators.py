"""Tests for the random graph generators and the GraphSpec factory."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    GraphSpec,
    complete_graph,
    configuration_model,
    erdos_renyi,
    hypercube,
    make_graph,
    paper_edge_probability,
    paper_expected_degree,
    paper_graph_spec,
    power_law_degree_sequence,
    power_law_graph,
    random_regular,
)
from repro.engine import _ckernel, backends
from repro.graphs.erdos_renyi import expected_degree_to_p
from repro.graphs.generators import _KINDS


class TestErdosRenyi:
    def test_basic_properties(self):
        graph = erdos_renyi(200, 0.1, rng=1)
        assert graph.n == 200
        assert graph.num_edges > 0

    def test_edge_count_near_expectation(self):
        n, p = 400, 0.05
        graph = erdos_renyi(n, p, rng=2)
        expected = p * n * (n - 1) / 2
        assert abs(graph.num_edges - expected) < 0.2 * expected

    def test_p_zero_and_one(self):
        assert erdos_renyi(10, 0.0, rng=1).num_edges == 0
        dense = erdos_renyi(10, 1.0, rng=1)
        assert dense.num_edges == 45
        complete = complete_graph(10)
        assert np.array_equal(dense.indptr, complete.indptr)
        assert np.array_equal(dense.indices, complete.indices)

    def test_expected_degree_parametrisation(self):
        graph = erdos_renyi(300, expected_degree=20, rng=3)
        assert abs(graph.mean_degree() - 20) < 5

    def test_exactly_one_parametrisation_required(self):
        with pytest.raises(ValueError):
            erdos_renyi(10, 0.5, expected_degree=3)
        with pytest.raises(ValueError):
            erdos_renyi(10)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            erdos_renyi(10, 1.5)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            erdos_renyi(0, 0.5)

    def test_require_connected(self):
        n = 256
        graph = erdos_renyi(n, paper_edge_probability(n), rng=4, require_connected=True)
        assert graph.is_connected()

    def test_require_connected_impossible(self):
        with pytest.raises(RuntimeError):
            erdos_renyi(50, 0.0, rng=5, require_connected=True, max_retries=2)

    def test_deterministic_given_seed(self):
        a = erdos_renyi(100, 0.1, rng=7)
        b = erdos_renyi(100, 0.1, rng=7)
        assert np.array_equal(a.indices, b.indices)

    def test_degree_concentration_paper_density(self):
        """In the paper's regime degrees concentrate around log^2 n."""
        n = 1024
        graph = erdos_renyi(n, paper_edge_probability(n), rng=8)
        expected = math.log2(n) ** 2
        assert abs(graph.mean_degree() - expected) < 0.15 * expected
        assert graph.min_degree() > 0.4 * expected

    def test_helpers(self):
        assert expected_degree_to_p(101, 10) == pytest.approx(0.1)
        assert expected_degree_to_p(1, 10) == 0.0
        assert paper_edge_probability(2) <= 1.0
        assert paper_expected_degree(1024) == pytest.approx(100.0)


class TestConfigurationModel:
    def test_regular_degrees_close(self):
        graph = random_regular(200, 20, rng=1)
        # Erased configuration model: degrees may lose a few stubs.
        assert graph.max_degree() <= 20
        assert graph.mean_degree() > 18

    def test_degree_sum_must_be_even(self):
        with pytest.raises(ValueError):
            configuration_model([3, 3, 1])
        with pytest.raises(ValueError):
            random_regular(5, 3)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            configuration_model([2, -1, 1])

    def test_invalid_regular_params(self):
        with pytest.raises(ValueError):
            random_regular(0, 2)
        with pytest.raises(ValueError):
            random_regular(4, 4)

    def test_custom_degree_sequence(self):
        degrees = [1, 1, 2, 2, 4, 4, 3, 3]
        graph = configuration_model(degrees, rng=2)
        assert graph.n == 8
        assert graph.degrees.sum() <= sum(degrees)

    def test_require_connected(self):
        graph = random_regular(128, 16, rng=3, require_connected=True)
        assert graph.is_connected()

    def test_deterministic(self):
        a = random_regular(64, 8, rng=5)
        b = random_regular(64, 8, rng=5)
        assert np.array_equal(a.indices, b.indices)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=4, max_value=60), st.integers(min_value=2, max_value=6))
    def test_property_simple_and_bounded(self, n, d):
        if (n * d) % 2:
            d += 1
        if d >= n:
            d = n - 1 if (n * (n - 1)) % 2 == 0 else n - 2
        graph = random_regular(n, max(d, 0), rng=0)
        assert graph.max_degree() <= max(d, 0)
        for u in range(graph.n):
            assert u not in graph.neighbors(u).tolist()


class TestDeterministicGraphs:
    def test_complete_graph(self):
        graph = complete_graph(10)
        assert graph.num_edges == 45
        assert graph.min_degree() == graph.max_degree() == 9
        assert graph.is_connected()

    def test_complete_single_node(self):
        assert complete_graph(1).num_edges == 0

    def test_complete_invalid(self):
        with pytest.raises(ValueError):
            complete_graph(0)

    def test_hypercube(self):
        graph = hypercube(4)
        assert graph.n == 16
        assert graph.min_degree() == graph.max_degree() == 4
        assert graph.is_connected()
        # Neighbours differ in exactly one bit.
        for u in range(graph.n):
            for v in graph.neighbors(u).tolist():
                assert bin(u ^ v).count("1") == 1

    def test_hypercube_dimension_zero(self):
        assert hypercube(0).n == 1

    def test_hypercube_invalid(self):
        with pytest.raises(ValueError):
            hypercube(-1)


class TestPowerLaw:
    def test_degree_sequence_even_sum(self):
        for seed in range(5):
            degrees = power_law_degree_sequence(101, 2.5, rng=seed)
            assert degrees.sum() % 2 == 0
            assert degrees.min() >= 2

    def test_degree_sequence_bounds(self):
        degrees = power_law_degree_sequence(400, 2.5, min_degree=3, max_degree=20, rng=1)
        assert degrees.min() >= 3
        assert degrees.max() <= 21  # one node may be bumped to fix parity

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            power_law_degree_sequence(10, 0.9)
        with pytest.raises(ValueError):
            power_law_degree_sequence(10, 2.5, min_degree=0)
        with pytest.raises(ValueError):
            power_law_degree_sequence(10, 2.5, min_degree=5, max_degree=4)
        with pytest.raises(ValueError):
            power_law_degree_sequence(0, 2.5)

    def test_graph_is_heavy_tailed(self):
        graph = power_law_graph(500, 2.2, rng=2)
        assert graph.n == 500
        assert graph.max_degree() > 2 * graph.mean_degree()

    def test_require_connected_resamples(self):
        # The first draw at this seed isolates a node; the second is connected.
        assert not power_law_graph(256, 2.5, rng=4).is_connected()
        graph = power_law_graph(256, 2.5, rng=4, require_connected=True)
        assert graph.is_connected()


def graph_digest(graph) -> str:
    """sha256 of ``indptr || indices`` as little-endian int64."""
    digest = hashlib.sha256(graph.indptr.astype("<i8").tobytes())
    digest.update(graph.indices.astype("<i8").tobytes())
    return digest.hexdigest()


#: ``graph_digest(make_graph(spec, rng=1))`` per spec: every kind, the
#: benchmark's paper and density sizes, and the complete-graph edge cases.
#: A drift in a sampler's RNG stream or in the CSR order changes a digest.
GRAPH_DIGESTS = [
    (GraphSpec("erdos_renyi", 64, {"p": 0.2}),
     "7f298d148701d9b64fa1eeb3ad46d3c16ecba8d0ab6dab78d74e2494af2e3364"),
    (paper_graph_spec(2048),
     "3164abfa7cee9a41e33f41e94766602e6314159f3c0cf6b87e5af36a550b09f9"),
    (paper_graph_spec(8192),
     "564bc3c0606ed5b2308aea012191daec2697110d40c0da7f0731fa73812813aa"),
    (GraphSpec("erdos_renyi", 2048, {"expected_degree": 121.0, "require_connected": True}),
     "c160a64bac0f9216178f782fdee9ede6594e9ab0679b7c9fd8e3f396c3b3b973"),
    (GraphSpec("erdos_renyi", 2048, {"expected_degree": 484.0, "require_connected": True}),
     "095217640b22598354b68f32271b784235aeb211edbe4088e2400e2fb4db08fc"),
    (GraphSpec("erdos_renyi", 64, {"expected_degree": 63.0}),  # p = 1
     "751e0cce0eb3823596651a9f0b37ff81333477af927a0f14256b99475eedd483"),
    (GraphSpec("random_regular", 64, {"d": 6}),
     "41bf6c4d5a593b13e2e506c948d69355bfe63ab66911f1d18516b2b7c04270dc"),
    (GraphSpec("random_regular", 1024, {"d": 16, "require_connected": True}),
     "8ceb06359df56b51f1100d39c41f2b749f91b9522eae8f2c8df653cc007870b9"),
    (GraphSpec("configuration_model", 6, {"degrees": [2, 2, 2, 2, 2, 2]}),
     "abc59841b3efbe5c6148af2a356404f4edd8fdefac7cc9c334229b0d6874a9d6"),
    (GraphSpec("complete", 1),
     "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"),
    (GraphSpec("complete", 2),
     "c8b9af456571329ad39419553d14c5af97f36474bd52d2920a364e990801d5f0"),
    (GraphSpec("complete", 16),
     "a0a61860d2a2a694ddbc52abfaa9d8122608e5ab733631e98216032567e2ec09"),
    (GraphSpec("complete", 17),
     "9fed5198eea44614e56a7f672afd9eb27599df356f6a11df56dd284ebdfacfc8"),
    (GraphSpec("complete", 2048),
     "be3d470061bb951d0b48e972252bac892da1fd82b99b7140eb319723ac24aff2"),
    (GraphSpec("hypercube", 16),
     "1a36b0769a25bd95ec3d42da10d4f2c97849fe065997035cc7b2fd8f8d2a6434"),
    (GraphSpec("hypercube", 4096),
     "c3d4298731dc4817b56c9c1833966b01db374b320ce84b7459f05683eeb21507"),
    (GraphSpec("power_law", 100, {"exponent": 2.5}),
     "2c3c1299cf2dd6640c92172996cfacb2d27c81b2f0aa85bd2452b35c2abe64d5"),
    (GraphSpec("power_law", 1000, {"exponent": 2.5}),
     "95878b01b4c228266d63f9df8d84ca0460e9b32d15f5e5422532d06eae3da4f8"),
]


#: One spec per kind with a parameter that kind does not take.
MISSPELT_SPECS = [
    (GraphSpec("erdos_renyi", 400, {"p": 0.004, "require_conected": True}),
     "require_conected"),
    (GraphSpec("random_regular", 64, {"d": 6, "max_retry": 3}), "max_retry"),
    (GraphSpec("configuration_model", 6, {"degrees": [2] * 6, "seed": 1}), "seed"),
    (GraphSpec("complete", 8, {"p": 0.1}), "p"),
    (GraphSpec("hypercube", 16, {"dimension": 4}), "dimension"),
    (GraphSpec("power_law", 100, {"exponnent": 2.5}), "exponnent"),
]


class TestGraphSpec:
    def test_spec_roundtrip(self):
        spec = GraphSpec(kind="erdos_renyi", n=64, params={"p": 0.2})
        assert GraphSpec.from_dict(spec.as_dict()) == spec
        assert "erdos_renyi" in spec.describe()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GraphSpec(kind="nonsense", n=10)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            GraphSpec(kind="complete", n=0)

    @pytest.mark.parametrize(
        "backend",
        [
            backends.NumpyBackend(),
            pytest.param(
                backends.CBackend(max_threads=1),
                marks=pytest.mark.skipif(
                    not _ckernel.available(), reason="compiled kernel unavailable"
                ),
            ),
        ],
        ids=["numpy", "c"],
    )
    def test_make_graph_all_kinds(self, backend):
        """The NumPy CSR builder and the compiled one give the pinned bytes."""
        assert {spec.kind for spec, _ in GRAPH_DIGESTS} == set(_KINDS)
        drifted = {}
        with backends.use(backend):
            for spec, pinned in GRAPH_DIGESTS:
                graph = make_graph(spec, rng=1)
                assert graph.n == spec.n
                digest = graph_digest(graph)
                if digest != pinned:
                    drifted[spec.describe()] = digest
        assert not drifted, drifted

    @pytest.mark.parametrize(
        "spec, typo", MISSPELT_SPECS, ids=[spec.kind for spec, _ in MISSPELT_SPECS]
    )
    def test_unknown_params_rejected(self, spec, typo):
        with pytest.raises(ValueError, match=f"{spec.kind}.*{typo}"):
            make_graph(spec, rng=1)

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(ValueError):
            make_graph(GraphSpec("hypercube", 12))

    def test_paper_graph_spec(self):
        spec = paper_graph_spec(1024)
        assert spec.kind == "erdos_renyi"
        assert spec.params["p"] == pytest.approx(paper_edge_probability(1024))
        graph = make_graph(spec, rng=1)
        assert graph.is_connected()

    def test_make_graph_deterministic(self):
        spec = GraphSpec("erdos_renyi", 128, {"p": 0.1})
        a = make_graph(spec, rng=9)
        b = make_graph(spec, rng=9)
        assert np.array_equal(a.indices, b.indices)
