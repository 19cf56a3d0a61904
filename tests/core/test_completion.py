"""Tests for repro.core.completion (gossiping completion predicates)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.completion import alive_message_mask, gossip_complete, missing_pairs
from repro.engine.knowledge import KnowledgeMatrix


def fully_informed(n: int) -> KnowledgeMatrix:
    km = KnowledgeMatrix(n)
    full_row = km.row_with(range(n))
    for node in range(n):
        km.scatter_rows(full_row[None], [0], [node])
    return km


class TestGossipComplete:
    def test_initial_state_incomplete(self):
        assert not gossip_complete(KnowledgeMatrix(8))

    def test_fully_informed_complete(self):
        assert gossip_complete(fully_informed(8))
        assert gossip_complete(fully_informed(70))  # multi-word rows

    def test_alive_subset_only(self):
        km = KnowledgeMatrix(6)
        alive = np.asarray([0, 1, 2])
        # Teach alive nodes all alive messages only.
        row = km.row_with([0, 1, 2])
        for node in alive:
            km.scatter_rows(row[None], [0], [int(node)])
        assert gossip_complete(km, alive)
        assert not gossip_complete(km)

    def test_all_alive_equivalent_to_none(self):
        km = fully_informed(5)
        assert gossip_complete(km, np.arange(5)) == gossip_complete(km)

    def test_missing_alive_message_detected(self):
        km = KnowledgeMatrix(6)
        alive = np.asarray([0, 1, 2])
        row = km.row_with([0, 1])  # message 2 missing
        for node in alive:
            km.scatter_rows(row[None], [0], [int(node)])
        assert not gossip_complete(km, alive)


class TestMissingPairs:
    def test_initial_count(self):
        km = KnowledgeMatrix(5)
        assert missing_pairs(km) == 5 * 5 - 5

    def test_zero_when_complete(self):
        assert missing_pairs(fully_informed(9)) == 0

    def test_alive_subset(self):
        km = KnowledgeMatrix(6)
        alive = np.asarray([0, 1])
        assert missing_pairs(km, alive) == 2  # each alive node misses the other's message


class TestAliveMessageMask:
    def test_mask_bits(self):
        km = KnowledgeMatrix(70)
        mask = alive_message_mask(km, np.asarray([0, 65]))
        assert mask[0] == np.uint64(1)
        assert mask[1] == np.uint64(1) << np.uint64(1)

    def test_empty_alive(self):
        km = KnowledgeMatrix(10)
        mask = alive_message_mask(km, np.asarray([], dtype=np.int64))
        assert not mask.any()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=150), st.data())
    def test_property_popcount_matches_alive_count(self, n, data):
        km = KnowledgeMatrix(n)
        alive = data.draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), unique=True, max_size=n)
        )
        mask = alive_message_mask(km, np.asarray(alive, dtype=np.int64))
        assert int(np.bitwise_count(mask).sum()) == len(alive)
