"""Shared fixtures for the test suite.

Graph construction is the most expensive part of many tests, so commonly used
small graphs are built once per session.  All fixtures are seeded so the suite
is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import backends
from repro.graphs import complete_graph, erdos_renyi, paper_edge_probability, random_regular


@pytest.fixture(autouse=True)
def _scoped_active_backend():
    """Resolve the process-wide kernel backend before each test; restore it after.

    Tests stub ``_ckernel._LIB = None`` for their NumPy cases.  Resolving
    here, before any such stub, keeps the process's backend in place
    for them (with the library stubbed it takes its NumPy paths), and
    restoring it afterwards means a backend a test installs or resolves
    for itself, say ``NumpyBackend()`` resolved inside a stub, never
    outlives that test.
    """
    previous = backends.active()
    yield
    backends.set_active(previous)


@pytest.fixture(scope="session")
def rng():
    """A deterministic generator for tests that just need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_paper_graph():
    """A 256-node G(n, log^2 n / n) graph — the paper's topology, scaled down."""
    n = 256
    return erdos_renyi(n, paper_edge_probability(n), rng=101, require_connected=True)


@pytest.fixture(scope="session")
def medium_paper_graph():
    """A 512-node G(n, log^2 n / n) graph for the slower protocol tests."""
    n = 512
    return erdos_renyi(n, paper_edge_probability(n), rng=102, require_connected=True)


@pytest.fixture(scope="session")
def small_complete_graph():
    """A 128-node complete graph."""
    return complete_graph(128)


@pytest.fixture(scope="session")
def small_regular_graph():
    """A 256-node (near-)32-regular graph from the configuration model."""
    return random_regular(256, 32, rng=103, require_connected=True)
