"""Boundary tests for knowledge-layout auto-selection and block geometry.

The ``auto`` layout compares :func:`repro.engine.layouts.estimate_bytes`
against the ``REPRO_KNOWLEDGE_DENSE_BUDGET`` byte budget with ``<=``, so the
exact-budget problem must stay dense and one byte less must page.  Block
geometry edge cases — one-row blocks (``REPRO_KNOWLEDGE_BLOCK=1``) and node
counts landing exactly on a block boundary — must stay bit-identical to the
dense layout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import layouts
from repro.engine.knowledge import KnowledgeMatrix
from repro.engine.layouts import PagedKnowledge, estimate_bytes, make_knowledge

#: n = m = 128 gives words = 2, so the dense estimate is exactly
#: 16 * 128 * 2 = 4096 bytes (no frontier bookkeeping below 64 words).
N = 128
DENSE_BYTES = estimate_bytes("dense", N, N)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Boundary tests control the env vars explicitly."""
    monkeypatch.delenv("REPRO_KNOWLEDGE_LAYOUT", raising=False)
    monkeypatch.delenv("REPRO_KNOWLEDGE_DENSE_BUDGET", raising=False)
    monkeypatch.delenv("REPRO_KNOWLEDGE_BLOCK", raising=False)


class TestBudgetBoundary:
    def test_estimate_is_exact_for_the_probe_size(self):
        assert DENSE_BYTES == 16 * N * 2

    def test_exactly_at_budget_stays_dense(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_DENSE_BUDGET", str(DENSE_BYTES))
        assert make_knowledge(N, N).layout == "dense"

    def test_one_byte_under_budget_pages(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_DENSE_BUDGET", str(DENSE_BYTES - 1))
        storage = make_knowledge(N, N)
        assert storage.layout == "paged"
        assert isinstance(storage, PagedKnowledge)

    def test_explicit_layout_beats_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_DENSE_BUDGET", "0")
        assert make_knowledge(N, N, layout="dense").layout == "dense"

    def test_use_scope_beats_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_DENSE_BUDGET", str(DENSE_BYTES))
        with layouts.use("paged"):
            assert isinstance(make_knowledge(N, N), PagedKnowledge)


def _exercise(storage):
    """A deterministic mixed workload touching every bulk primitive."""
    rng = np.random.default_rng(77)
    n = storage.n_nodes
    for _ in range(4):
        k = n // 2
        callers = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
        shift = rng.integers(1, n)
        targets = (callers + shift) % n
        collide = callers == targets
        targets[collide] = (targets[collide] + 1) % n
        storage.apply_exchange(callers, targets)
        senders = rng.integers(0, n, size=k).astype(np.int64)
        receivers = (senders + 1 + rng.integers(0, n - 1, size=k)) % n
        storage.apply_transmissions(senders, receivers.astype(np.int64))
    return storage.fingerprint()


class TestBlockGeometry:
    def test_block_size_one_matches_dense(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_BLOCK", "1")
        paged = PagedKnowledge(N, N)
        assert paged.block_rows == 1
        assert paged.n_blocks == N
        assert _exercise(paged) == _exercise(KnowledgeMatrix(N, N))

    def test_n_exactly_on_block_boundary(self):
        """n = 64 with 32-row blocks: the last block is full, no ragged tail."""
        storage = PagedKnowledge(64, 64, block_rows=32)
        assert storage.n_blocks == 2
        assert _exercise(storage) == _exercise(KnowledgeMatrix(64, 64))

    def test_ragged_tail_block(self):
        """n = 65 with 32-row blocks leaves a one-row tail block."""
        storage = PagedKnowledge(65, 65, block_rows=32)
        assert storage.n_blocks == 3
        assert _exercise(storage) == _exercise(KnowledgeMatrix(65, 65))

    def test_env_block_size_reaches_constructor(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_BLOCK", "17")
        assert PagedKnowledge(N, N).block_rows == 17

    def test_block_larger_than_n_is_clamped(self):
        storage = PagedKnowledge(8, 8, block_rows=4096)
        assert storage.block_rows == 8
        assert storage.n_blocks == 1
