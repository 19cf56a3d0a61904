"""Boundary tests for knowledge-layout auto-selection.

The ``auto`` layout compares :func:`repro.engine.layouts.estimate_bytes`
against the ``REPRO_KNOWLEDGE_DENSE_BUDGET`` byte budget with ``<=``, so the
exact-budget problem must stay dense and one byte less must page.
"""

from __future__ import annotations

import pytest

from repro.engine import layouts
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

