"""Tests for repro.engine.knowledge (bitset knowledge matrices)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.knowledge import WORD_BITS, KnowledgeMatrix, SingleMessageState


class TestConstruction:
    def test_initial_own_messages(self):
        km = KnowledgeMatrix(10)
        for node in range(10):
            assert km.knows(node, node)
            assert km.counts()[node] == 1

    def test_empty_constructor(self):
        km = KnowledgeMatrix.empty(5)
        assert km.total_known() == 0

    def test_word_count(self):
        assert KnowledgeMatrix(64).words == 1
        assert KnowledgeMatrix(65).words == 2
        assert KnowledgeMatrix(128).words == 2
        assert KnowledgeMatrix(129).words == 3

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            KnowledgeMatrix(0)
        with pytest.raises(ValueError):
            KnowledgeMatrix(4, 0)

    def test_fewer_messages_than_nodes(self):
        km = KnowledgeMatrix(10, 4)
        assert km.knows(0, 0) and km.knows(3, 3)
        assert km.counts()[5] == 0

    def test_copy_is_independent(self):
        km = KnowledgeMatrix(8)
        clone = km.copy()
        km.add(0, 5)
        assert not clone.knows(0, 5)
        assert km != clone

    def test_equality(self):
        assert KnowledgeMatrix(8) == KnowledgeMatrix(8)
        assert KnowledgeMatrix(8) != KnowledgeMatrix(9)


class TestElementAccess:
    def test_add_and_knows(self):
        km = KnowledgeMatrix(70)
        km.add(3, 69)
        assert km.knows(3, 69)
        assert not km.knows(4, 69)

    def test_add_is_idempotent(self):
        km = KnowledgeMatrix(16)
        km.add(2, 7)
        km.add(2, 7)
        assert km.counts()[2] == 2  # own message + message 7

    def test_message_out_of_range(self):
        km = KnowledgeMatrix(8)
        with pytest.raises(IndexError):
            km.add(0, 8)
        with pytest.raises(IndexError):
            km.knows(0, -1)

    def test_known_messages_sorted(self):
        km = KnowledgeMatrix(100)
        km.add(0, 99)
        km.add(0, 42)
        assert km.known_messages(0).tolist() == [0, 42, 99]

    def test_missing_messages(self):
        km = KnowledgeMatrix(5)
        missing = km.missing_messages_at(2)
        assert 2 not in missing
        assert set(missing) == {0, 1, 3, 4}

    def test_row_with(self):
        km = KnowledgeMatrix(130)
        row = km.row_with([0, 64, 129])
        km.scatter_rows(row[None], [0], [5])
        assert km.knows(5, 0) and km.knows(5, 64) and km.knows(5, 129)


class TestBulkUpdates:
    def test_single_transmission_unions_rows(self):
        km = KnowledgeMatrix(8)
        km.apply_transmissions([1], [0])
        assert km.knows(0, 1) and km.knows(0, 0)

    def test_transmission_from_snapshot_uses_old_state(self):
        km = KnowledgeMatrix(8)
        snapshot = km.data.copy()
        km.add(1, 7)  # happens "after" the snapshot
        km.scatter_rows(snapshot, [1], [0])
        assert not km.knows(0, 7)

    def test_apply_transmissions_synchronous(self):
        # Chain 0 -> 1 -> 2 in the same step: 2 must not learn 0's message.
        km = KnowledgeMatrix(3)
        km.apply_transmissions(np.asarray([0, 1]), np.asarray([1, 2]))
        assert km.knows(1, 0)
        assert km.knows(2, 1)
        assert not km.knows(2, 0)

    def test_apply_transmissions_duplicate_receivers(self):
        km = KnowledgeMatrix(4)
        km.apply_transmissions(np.asarray([0, 1]), np.asarray([3, 3]))
        assert km.knows(3, 0) and km.knows(3, 1)

    def test_apply_transmissions_empty(self):
        km = KnowledgeMatrix(4)
        before = km.data.copy()
        km.apply_transmissions(np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64))
        assert np.array_equal(km.data, before)

    def test_apply_transmissions_shape_mismatch(self):
        km = KnowledgeMatrix(4)
        with pytest.raises(ValueError):
            km.apply_transmissions(np.asarray([0]), np.asarray([1, 2]))


class TestAggregates:
    def test_counts_and_total(self):
        km = KnowledgeMatrix(6)
        km.add(0, 1)
        km.add(0, 2)
        counts = km.counts()
        assert counts[0] == 3
        assert km.total_known() == 6 + 2

    def test_nodes_knowing(self):
        km = KnowledgeMatrix(6)
        km.add(4, 1)
        assert set(km.nodes_knowing(1).tolist()) == {1, 4}
        assert km.num_nodes_knowing(1) == 2

    def test_informed_counts_per_message(self):
        km = KnowledgeMatrix(5)
        km.add(0, 3)
        km.add(1, 3)
        per_message = km.informed_counts_per_message()
        assert per_message[3] == 3
        assert per_message[0] == 1

    def test_is_complete_detects_completion(self):
        km = KnowledgeMatrix(70)
        assert not km.is_complete()
        for node in range(70):
            for message in range(70):
                km.add(node, message)
        assert km.is_complete()
        assert km.coverage() == pytest.approx(1.0)

    def test_fully_informed_nodes(self):
        km = KnowledgeMatrix(4)
        for message in range(4):
            km.add(2, message)
        mask = km.fully_informed_nodes()
        assert mask[2]
        assert mask.sum() == 1

    def test_coverage_initial(self):
        km = KnowledgeMatrix(10)
        assert km.coverage() == pytest.approx(0.1)


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #
@st.composite
def _matrix_and_ops(draw):
    n = draw(st.integers(min_value=2, max_value=90))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=0,
            max_size=40,
        )
    )
    return n, ops


class TestKnowledgeProperties:
    @settings(max_examples=40, deadline=None)
    @given(_matrix_and_ops())
    def test_unions_are_monotone_and_sound(self, data):
        """After arbitrary unions, knowledge contains exactly the union of sources."""
        n, ops = data
        km = KnowledgeMatrix(n)
        reference = {node: {node} for node in range(n)}
        for dst, src in ops:
            km.apply_transmissions([src], [dst])
            reference[dst] |= reference[src]
        for node in range(n):
            assert set(km.known_messages(node).tolist()) == reference[node]

    @settings(max_examples=40, deadline=None)
    @given(_matrix_and_ops())
    def test_counts_match_known_messages(self, data):
        n, ops = data
        km = KnowledgeMatrix(n)
        for dst, src in ops:
            km.apply_transmissions([src], [dst])
        counts = km.counts()
        for node in range(n):
            assert counts[node] == km.known_messages(node).size

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=200))
    def test_total_known_equals_per_message_sum(self, n):
        km = KnowledgeMatrix(n)
        assert km.total_known() == km.informed_counts_per_message().sum() == n

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=80),
        st.integers(min_value=0, max_value=79),
        st.integers(min_value=0, max_value=79),
    )
    def test_add_then_knows_roundtrip(self, n, node, message):
        km = KnowledgeMatrix(n)
        node %= n
        message %= n
        km.add(node, message)
        assert km.knows(node, message)
        assert message in km.known_messages(node)


class TestSingleMessageState:
    def test_initial_state(self):
        state = SingleMessageState(10, source=3)
        assert state.num_informed() == 1
        assert state.informed[3]
        assert state.informed_at[3] == 0

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            SingleMessageState(5, source=5)
        with pytest.raises(ValueError):
            SingleMessageState(0)

    def test_inform_counts_new_only(self):
        state = SingleMessageState(10, source=0)
        new = state.inform(np.asarray([0, 1, 1, 2]), round_index=1)
        assert new == 2
        assert state.num_informed() == 3
        assert state.informed_at[1] == 1

    def test_inform_empty(self):
        state = SingleMessageState(4)
        assert state.inform(np.asarray([], dtype=np.int64), 1) == 0

    def test_complete(self):
        state = SingleMessageState(3, source=0)
        state.inform(np.asarray([1, 2]), 1)
        assert state.is_complete()
        assert state.uninformed_nodes().size == 0
        assert state.informed.all()
