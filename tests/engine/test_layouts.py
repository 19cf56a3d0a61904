"""Cross-layout equivalence tests for the pluggable knowledge storage.

The storage contract (:class:`repro.engine.knowledge.KnowledgeMatrix`) is
that every storage class — dense :class:`KnowledgeMatrix` and
:class:`PagedKnowledge`, the matrix whose push rounds never allocate a
second matrix — produces **bit-identical trajectories** at every size where
dense fits.  The per-layout checks build one state per name the registry
accepts (``auto``, ``dense``, ``paged``), so whatever ``auto`` builds, the
storage every run gets unless a layout is forced, meets the same contract.
These tests pin that contract:

* randomized batch operations (``apply_transmissions``, ``apply_exchange``
  with the saturation filter, ``scatter_rows``, element mutators) against
  the dense reference on the compiled serial, compiled sharded and
  pure-NumPy kernel paths,
* ``merge_rows`` on every storage class and backend against a per-pair
  reference,
* paged rounds on every kernel branch they take — the push batch, the
  exchange, and a filtered exchange with promotions on both its swap and
  its gather/scatter branch — plus when the swap buffer exists: never for a
  push batch or a whole memory-model run on either class, and kept and
  reused across exchange rounds,
* ``count_missing`` for every layout pinned to the plain masked scan,
* ``copy`` keeping the storage class and everything a later round reads,
* whole-protocol trajectory parity across the full layout x backend matrix
  (dense / paged x numpy / c at one thread / c sharded),
* the selection registry (env var, ``use`` scope, explicit argument),
* a sweep interrupted under the dense layout and resumed under the paged
  layout, which must be bit-identical to an uninterrupted dense run.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import _ckernel, backends, layouts
from repro.engine.knowledge import KnowledgeMatrix
from repro.engine.layouts import PagedKnowledge


#: The compiled kernels on one thread, and forced to two shards on every
#: batch, however small.
COMPILED_PATHS = {
    "compiled": backends.CBackend(max_threads=1),
    "threads": backends.CBackend(max_threads=2, shard_work=1),
}


@pytest.fixture(params=["compiled", "threads", "numpy"])
def kernel_path(request, monkeypatch):
    """The compiled kernels serial or sharded, or NumPy.

    Each case installs its backend for the test only, so none is left
    cached as the process-wide choice (a NumPy one would outlive the test).
    """
    if request.param == "numpy":
        monkeypatch.setattr(_ckernel, "_LIB", None)
        with backends.use(backends.NumpyBackend()):
            yield request.param
        return
    if not _ckernel.available():
        pytest.skip("compiled kernel unavailable on this machine")
    with backends.use(COMPILED_PATHS[request.param]):
        yield request.param


#: Small node counts, odd and even.
SIZES = (15, 16, 17, 53)


#: Every layout name the registry accepts, as a constructor taking
#: ``(n_nodes, n_messages=None)``.
STORAGE_LAYOUTS = {
    name: functools.partial(layouts.make_knowledge, layout=name)
    for name in layouts.LAYOUTS
}


def make_layouts(n, n_messages=None):
    """One instance of every layout."""
    return {name: make(n, n_messages) for name, make in STORAGE_LAYOUTS.items()}


def random_batch(rng, n, size):
    senders = rng.integers(0, n, size).astype(np.int64)
    receivers = rng.integers(0, max(1, n // 2), size).astype(np.int64)
    return senders, receivers


class TestUnitEquivalence:
    """Randomized storage operations match the dense reference bit-for-bit."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", range(3))
    def test_apply_transmissions(self, kernel_path, n, seed):
        rng = np.random.default_rng(seed)
        instances = make_layouts(n)
        for _ in range(4):
            senders, receivers = random_batch(rng, n, int(rng.integers(1, 3 * n)))
            for store in instances.values():
                store.apply_transmissions(senders, receivers)
        reference = instances["dense"]
        for name, store in instances.items():
            assert store == reference, f"layout {name} diverged"
            assert store.fingerprint() == reference.fingerprint()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", range(3))
    def test_apply_exchange_with_saturation(self, kernel_path, n, seed):
        rng = np.random.default_rng(100 + seed)
        instances = make_layouts(n)
        complete_row = instances["dense"].full_row_mask()
        for _ in range(6):
            # Callers must be sorted and unique (one outgoing channel per
            # node — the dense pull path relies on it); targets may repeat.
            k = int(rng.integers(1, n))
            callers = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
            targets = rng.integers(0, n, k).astype(np.int64)
            # Recompute saturation per layout from its own state: identical
            # states must produce identical filters.
            results = {}
            for name, store in instances.items():
                complete = (
                    store.count_missing(
                        complete_row, np.arange(n, dtype=np.int64)
                    )
                    == 0
                )
                results[name] = store.apply_exchange(
                    callers,
                    targets,
                    complete=complete,
                    complete_row=complete_row,
                )
            # ``touched`` is a multiset whose duplication is layout-specific
            # (the contract allows duplicates; the tracker dedups), so compare
            # the deduplicated sets.
            ref_touched, ref_promoted = results["dense"]
            for name, (touched, promoted) in results.items():
                assert np.array_equal(np.unique(touched), np.unique(ref_touched))
                assert np.array_equal(np.sort(promoted), np.sort(ref_promoted))
        reference = instances["dense"]
        for name, store in instances.items():
            assert store == reference, f"layout {name} diverged"

    @pytest.mark.parametrize("n", SIZES)
    def test_scatter_rows_external_source(self, kernel_path, n):
        rng = np.random.default_rng(7)
        instances = make_layouts(n)
        words = instances["dense"].words
        pool = rng.integers(0, 2**63, size=(8, words), dtype=np.uint64)
        src_idx = rng.integers(0, 8, 3 * n).astype(np.int64)
        receivers = rng.integers(0, n, 3 * n).astype(np.int64)
        for store in instances.values():
            store.scatter_rows(pool, src_idx, receivers)
        reference = instances["dense"]
        for name, store in instances.items():
            assert store == reference, f"layout {name} diverged"

    @pytest.mark.parametrize("n", SIZES)
    def test_element_mutators(self, kernel_path, n):
        rng = np.random.default_rng(13)
        instances = make_layouts(n)
        words = instances["dense"].words
        nodes = rng.integers(0, n, 10).astype(np.int64)
        message = int(rng.integers(0, n))
        extra_row = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        for store in instances.values():
            store.add(int(nodes[0]), message)
            store.add_many(nodes, message)
            store.scatter_rows(extra_row[None], [0], [int(nodes[1])])
            store.apply_transmissions([int(nodes[1])], [int(nodes[2])])
        reference = instances["dense"]
        for name, store in instances.items():
            assert store == reference, f"layout {name} diverged"
            assert store.total_known() == reference.total_known()
            assert np.array_equal(store.counts(), reference.counts())

    @pytest.mark.parametrize("n", SIZES)
    def test_row_queries_and_data_property(self, kernel_path, n):
        rng = np.random.default_rng(17)
        instances = make_layouts(n)
        for _ in range(3):
            senders, receivers = random_batch(rng, n, 2 * n)
            for store in instances.values():
                store.apply_transmissions(senders, receivers)
        reference = instances["dense"].data
        probe = rng.integers(0, n, 5).astype(np.int64)
        for store in instances.values():
            assert np.array_equal(store.data, reference)
            assert np.array_equal(store.rows(probe), reference[probe])
            assert np.array_equal(store.rows([probe[0]])[0], reference[probe[0]])
            assert np.array_equal(
                store.known_messages(int(probe[1])),
                np.flatnonzero(
                    np.unpackbits(
                        reference[probe[1]].view(np.uint8), bitorder="little"
                    )
                ),
            )

    @pytest.mark.parametrize("layout", list(STORAGE_LAYOUTS))
    def test_copy_is_independent(self, kernel_path, layout):
        """A copy keeps its class and evolves exactly like the original."""
        # 40 words per row.
        n, m = 40, 64 * 40
        store = STORAGE_LAYOUTS[layout](n, m)
        rng = np.random.default_rng(23)
        for node, message in zip(rng.integers(0, n, 60), rng.integers(0, m, 60)):
            store.add(int(node), int(message))
        store.apply_transmissions(*random_batch(rng, n, n // 4))
        clone = store.copy()
        assert type(clone) is type(store)
        assert clone == store
        callers = np.sort(rng.choice(n, size=n // 2, replace=False)).astype(np.int64)
        targets = rng.integers(0, n, callers.size).astype(np.int64)
        for state in (store, clone):
            state.apply_exchange(callers, targets)
        assert clone.fingerprint() == store.fingerprint()
        message = int(store.missing_messages_at(0)[0])
        clone.add(0, message)
        assert not store.knows(0, message), f"layout {layout} copy aliases storage"


#: Backends ``merge_rows`` and the id checks are pinned under: NumPy, the
#: compiled kernels on one thread, and the compiled kernels forced to two
#: shards per batch.
BACKENDS = {
    "numpy": backends.NumpyBackend(),
    "c": backends.CBackend(max_threads=1),
    "c-sharded": backends.CBackend(max_threads=2, shard_work=1),
}


@pytest.fixture(params=list(BACKENDS))
def backend(request):
    """Each of :data:`BACKENDS`, installed for the test."""
    if request.param != "numpy" and not _ckernel.available():
        pytest.skip("compiled kernel unavailable on this machine")
    with backends.use(BACKENDS[request.param]):
        yield request.param


class TestMergeRows:
    """``merge_rows`` leaves both sides with the union of their start rows."""

    @staticmethod
    def reference(state, external, ext_rows, nodes):
        """Per-pair loop over copies of the start-of-call rows."""
        start_state, start_ext = state.copy(), external.copy()
        state, external = state.copy(), external.copy()
        for e, node in zip(ext_rows, nodes):
            union = start_ext[e] | start_state[node]
            external[e] = union
            state[node] |= union
        return state, external

    @pytest.mark.parametrize("layout", list(STORAGE_LAYOUTS))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_pair_reference(self, backend, layout, seed):
        rng = np.random.default_rng(300 + seed)
        n = 53
        store = STORAGE_LAYOUTS[layout](n, 64 * 12)
        store.apply_transmissions(*random_batch(rng, n, n))
        external = rng.integers(0, 2**63, size=(20, store.words), dtype=np.uint64)
        ext_rows = rng.choice(20, size=15, replace=False).astype(np.int64)
        # Fifteen rows onto six hosts: most nodes merge several rows.
        nodes = rng.integers(0, 6, 15).astype(np.int64)
        want_state, want_external = self.reference(
            store.data, external, ext_rows, nodes
        )
        store.merge_rows(external, ext_rows, nodes)
        assert np.array_equal(store.data, want_state)
        assert np.array_equal(external, want_external)

    def test_empty_call_and_bad_external_rows(self, backend):
        store = KnowledgeMatrix(10)
        empty = np.zeros(0, dtype=np.int64)
        store.merge_rows(np.zeros((0, store.words), dtype=np.uint64), empty, empty)
        assert store == KnowledgeMatrix(10)
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="external rows"):
            store.merge_rows(np.zeros((1, store.words + 1), dtype=np.uint64), one, one)
        with pytest.raises(ValueError, match="external rows"):
            store.merge_rows(np.zeros((1, store.words), dtype=np.int64), one, one)


def _ids_ending(last, size=10):
    """The ids ``0 .. size - 2`` followed by ``last``."""
    return np.r_[np.arange(size - 1), last].astype(np.int64)


#: Every checked id argument, as a call on a 10-node state and a 3-row
#: external array that puts ``bad(bound)`` into it, ``bound`` being the
#: number of rows the argument indexes.
OUT_OF_RANGE_CALLS = {
    "transmission senders": lambda state, ext, bad: state.apply_transmissions(
        _ids_ending(bad(10)), np.arange(10)
    ),
    "transmission receivers": lambda state, ext, bad: state.apply_transmissions(
        np.arange(10), _ids_ending(bad(10))
    ),
    "exchange callers": lambda state, ext, bad: state.apply_exchange(
        _ids_ending(bad(10)), np.arange(10)
    ),
    "exchange targets": lambda state, ext, bad: state.apply_exchange(
        np.arange(10), _ids_ending(bad(10))
    ),
    "scatter receivers": lambda state, ext, bad: state.scatter_rows(
        ext, np.zeros(10, dtype=np.int64), _ids_ending(bad(10))
    ),
    "scatter source rows": lambda state, ext, bad: state.scatter_rows(
        ext, _ids_ending(bad(3), size=3), np.arange(3)
    ),
    "merge nodes": lambda state, ext, bad: state.merge_rows(
        ext, np.arange(3), _ids_ending(bad(10), size=3)
    ),
    "merge external rows": lambda state, ext, bad: state.merge_rows(
        ext, _ids_ending(bad(3), size=3), np.arange(3)
    ),
    "recount rows": lambda state, ext, bad: state.count_missing(
        state.full_row_mask(), _ids_ending(bad(10))
    ),
    "row gather": lambda state, ext, bad: state.rows(_ids_ending(bad(10))),
    "assigned nodes": lambda state, ext, bad: state.assign_rows(
        _ids_ending(bad(10)), state.full_row_mask()
    ),
    "add_many nodes": lambda state, ext, bad: state.add_many(_ids_ending(bad(10)), 0),
    "added node": lambda state, ext, bad: state.add(bad(10), 0),
    "knows node": lambda state, ext, bad: state.knows(bad(10), 0),
    "known_messages node": lambda state, ext, bad: state.known_messages(bad(10)),
    "missing_messages_at node": lambda state, ext, bad: state.missing_messages_at(
        bad(10)
    ),
}


class TestOutOfRangeIds:
    """An id outside its range raises before anything is written.

    The compiled kernels index raw memory with these ids, so without the
    check a bad id writes or reads past the matrix; NumPy wraps ``-1``
    round to the last row.
    """

    @pytest.mark.parametrize("layout", list(STORAGE_LAYOUTS))
    @pytest.mark.parametrize(
        "bad", [lambda bound: bound, lambda bound: -1], ids=["bound", "minus-one"]
    )
    @pytest.mark.parametrize("call", list(OUT_OF_RANGE_CALLS))
    def test_raises_and_writes_nothing(self, backend, layout, bad, call):
        rng = np.random.default_rng(8)
        state = STORAGE_LAYOUTS[layout](10)
        state.apply_transmissions(np.arange(10), np.roll(np.arange(10), 1))
        external = rng.integers(0, 2**63, size=(3, state.words), dtype=np.uint64)
        before, external_before = state.fingerprint(), external.copy()
        with pytest.raises(IndexError, match=r"must lie in \[0, (10|3)\)"):
            OUT_OF_RANGE_CALLS[call](state, external, bad)
        assert state.fingerprint() == before
        assert np.array_equal(external, external_before)

    def test_mismatched_shapes_are_rejected(self, backend):
        state = KnowledgeMatrix(10)
        rows = np.zeros((2, state.words), dtype=np.uint64)
        with pytest.raises(ValueError, match="identical shapes"):
            state.scatter_rows(rows, [0, 1], [2])
        with pytest.raises(ValueError, match="identical shapes"):
            state.merge_rows(rows, [0, 1], [2])
        with pytest.raises(ValueError, match="source rows"):
            state.scatter_rows(np.zeros((2, state.words + 1), dtype=np.uint64), [0], [1])
        assert state == KnowledgeMatrix(10)


def _exchange(state, **extras):
    """A push-pull round on a 10-node state with the given optional arguments."""
    return state.apply_exchange(np.arange(5), np.arange(5, 10), **extras)


#: Every packed-row or per-node argument a compiled kernel reads or writes,
#: as a call on a 10-node, 640-message (10-word) state that gets it wrong,
#: and the error it must raise.
BAD_ARGUMENT_CALLS = {
    "short mask": (
        lambda s: s.count_missing(np.full(1, 2**64 - 1, np.uint64), [0, 1]),
        r"mask must have shape \(10,\)",
    ),
    "short complete": (
        lambda s: _exchange(
            s, complete=np.ones(3, bool), complete_row=s.full_row_mask()
        ),
        r"complete must have shape \(10,\)",
    ),
    "complete without its row": (
        lambda s: _exchange(s, complete=np.ones(10, bool)),
        "complete needs complete_row",
    ),
    "short complete_row": (
        lambda s: _exchange(
            s, complete=np.zeros(10, bool), complete_row=s.full_row_mask()[:1]
        ),
        r"complete_row must have shape \(10,\)",
    ),
    "short deficit_mask": (
        lambda s: _exchange(
            s, deficit_mask=s.full_row_mask()[:1], deficits_out=np.zeros(10, np.int64)
        ),
        r"deficit_mask must have shape \(10,\)",
    ),
    "short deficits_out": (
        lambda s: _exchange(
            s, deficit_mask=s.full_row_mask(), deficits_out=np.zeros(2, np.int64)
        ),
        "deficits_out must be",
    ),
    "int32 deficits_out": (
        lambda s: _exchange(
            s, deficit_mask=s.full_row_mask(), deficits_out=np.zeros(10, np.int32)
        ),
        "deficits_out must be",
    ),
    "strided deficits_out": (
        lambda s: _exchange(
            s, deficit_mask=s.full_row_mask(), deficits_out=np.zeros(20, np.int64)[::2]
        ),
        "deficits_out must be",
    ),
    "read-only deficits_out": (
        lambda s: _exchange(
            s,
            deficit_mask=s.full_row_mask(),
            deficits_out=np.broadcast_to(np.zeros(1, np.int64), (10,)),
        ),
        "deficits_out must be",
    ),
    "deficit_mask alone": (
        lambda s: _exchange(s, deficit_mask=s.full_row_mask()),
        "given together",
    ),
    "deficits_out alone": (
        lambda s: _exchange(s, deficits_out=np.zeros(10, np.int64)),
        "given together",
    ),
    "one-word assigned row": (
        lambda s: s.assign_rows([0], np.array([1], np.uint64)),
        r"row must have shape \(10,\)",
    ),
}


class TestArgumentShapes:
    """A mask, completion row or per-node array of the wrong shape raises
    :class:`ValueError` naming it, before anything is written.

    The compiled kernels read ``words`` words of a mask and write
    ``n_nodes`` deficits, so without the check a short array is read or
    written past its end (a short ``deficits_out`` corrupted the heap), and
    NumPy broadcasts a one-word mask.
    """

    @pytest.mark.parametrize("layout", list(STORAGE_LAYOUTS))
    @pytest.mark.parametrize("call", list(BAD_ARGUMENT_CALLS))
    def test_raises_and_writes_nothing(self, backend, layout, call):
        state = STORAGE_LAYOUTS[layout](10, 640)
        state.apply_transmissions(np.arange(10), np.roll(np.arange(10), 1))
        before = state.fingerprint()
        fn, message = BAD_ARGUMENT_CALLS[call]
        with pytest.raises(ValueError, match=message):
            fn(state)
        assert state.fingerprint() == before


class TestCountMissingPinned:
    """Every layout's count_missing equals the plain masked dense scan."""

    def reference(self, store: KnowledgeMatrix, mask, rows):
        dense = store.data
        return np.bitwise_count(mask[None, :] & ~dense[rows]).sum(
            axis=1, dtype=np.int64
        )

    @pytest.mark.parametrize("n", (17, 53))
    @pytest.mark.parametrize("seed", range(3))
    def test_all_layouts(self, kernel_path, n, seed):
        rng = np.random.default_rng(seed)
        instances = make_layouts(n)
        for _ in range(3):
            senders, receivers = random_batch(rng, n, 2 * n)
            for store in instances.values():
                store.apply_transmissions(senders, receivers)
        words = instances["dense"].words
        mask = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        rows = rng.integers(0, n, n // 2).astype(np.int64)
        for name, store in instances.items():
            got = store.count_missing(mask, rows)
            assert np.array_equal(got, self.reference(store, mask, rows)), name
        # Empty row list: a zero-length result, never an error.
        empty = np.zeros(0, dtype=np.int64)
        for store in instances.values():
            assert store.count_missing(mask, empty).size == 0


class TestPagedMechanics:
    """Paged rounds: when the swap buffer exists, and every kernel branch."""

    def test_push_batches_never_allocate_the_swap_buffer(self, kernel_path):
        """Push batches run in place (NumPy: gather their senders), on both
        storage classes."""
        n = 53
        paged, dense = PagedKnowledge(n), KnowledgeMatrix(n)
        rng = np.random.default_rng(9)
        # The in-place kernel's plan stays resident on the compiled paths:
        # four slots per node and two per transmission of the largest batch.
        plan = 8 * (4 * n + 2 * 3 * n) if kernel_path != "numpy" else 0
        # A dense batch (every node sends) and a sparse one.
        for size in (3 * n, 3):
            senders, receivers = random_batch(rng, n, size)
            for state in (paged, dense):
                state.apply_transmissions(senders, receivers)
                assert state._scratch is None
                assert state.storage_nbytes() == 8 * n * state.words + plan
            assert paged == dense

    def test_exchange_keeps_and_reuses_the_swap_buffer(self, kernel_path):
        n = 53
        paged = PagedKnowledge(n)
        rng = np.random.default_rng(10)
        callers = np.arange(n, dtype=np.int64)
        paged.apply_exchange(callers, rng.integers(0, n, n).astype(np.int64))
        assert paged._scratch is not None
        buffers = {id(paged.data), id(paged._scratch)}
        # The compiled exchange also keeps its CSR: n + 1 offsets, 2n edges.
        csr = 8 * (n + 1 + 2 * n) if kernel_path != "numpy" else 0
        assert paged.storage_nbytes() == 16 * n * paged.words + csr
        paged.apply_exchange(callers, rng.integers(0, n, n).astype(np.int64))
        assert {id(paged.data), id(paged._scratch)} == buffers

    @pytest.mark.parametrize("layout", ["dense", "paged"])
    def test_small_unfiltered_exchange_gathers_and_scatters(
        self, kernel_path, layout
    ):
        """An unfiltered batch of ``k < n / 4`` channels takes the gather +
        scatter path on every backend: no swap buffer, no fused recount,
        the NumPy bits.  With ``k = n`` the swap buffer is kept."""
        from repro.core.completion import CompletionTracker

        n = 53
        rng = np.random.default_rng(12)
        state, reference = make_layouts(n)[layout], KnowledgeMatrix(n)
        tracker = CompletionTracker(state)
        for k in (5, n):
            callers = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
            targets = rng.integers(0, n, k).astype(np.int64)
            tracker.exchange(callers, targets, filtered=False)
            with backends.use(backends.NumpyBackend()):
                reference.apply_exchange(callers, targets)
            assert state == reference
            assert np.array_equal(
                tracker.deficits, CompletionTracker(reference).deficits
            )
            if k < n / 4:
                assert state._scratch is None
                assert not state.fused_deficits
        assert state._scratch is not None
        assert state.fused_deficits == (kernel_path != "numpy")

    def test_memory_model_run_never_allocates_the_swap_buffer(
        self, kernel_path, small_paper_graph
    ):
        """The memory model only pushes, so it peaks near one matrix on
        either layout.

        Fanout 8 and three trees give step groups of at least n / 4 senders.
        """
        from repro import MemoryGossiping
        from repro.core.parameters import MemoryGossipingParameters

        params = MemoryGossipingParameters(fanout=8, num_trees=3)
        knowledge = {}
        for layout in ("paged", "dense"):
            with layouts.use(layout):
                result = MemoryGossiping(params, leader=0).run(
                    small_paper_graph, rng=23
                )
            assert result.completed
            knowledge[layout] = result.knowledge
        assert type(knowledge["paged"]) is PagedKnowledge
        assert type(knowledge["dense"]) is KnowledgeMatrix
        for state in knowledge.values():
            assert state._scratch is None
        assert knowledge["paged"] == knowledge["dense"]

    @pytest.mark.parametrize("n_messages", [15, 448, 4096, 4160])
    def test_rounds_match_dense(self, kernel_path, n_messages):
        """Exchange (plain and filtered with promotions) and push rounds.

        A filtered round with at least half its rows live runs the filtered
        swap kernel on the compiled paths, and one with fewer the gather +
        scatter branch.  The dense reference always runs on NumPy.
        """
        from repro.core.completion import CompletionTracker

        n = 33
        rng = np.random.default_rng(n_messages)
        paged = PagedKnowledge(n, n_messages)
        reference = KnowledgeMatrix(n, n_messages)
        trackers = {id(s): CompletionTracker(s) for s in (paged, reference)}

        def both(step):
            with backends.use(backends.NumpyBackend()):
                expected = step(reference)
            got = step(paged)
            assert paged.fingerprint() == reference.fingerprint()
            return got, expected

        def exchange(complete):
            callers = np.sort(rng.choice(n, size=n - 3, replace=False)).astype(np.int64)
            targets = rng.integers(0, n, callers.size).astype(np.int64)

            def step(state):
                tracker = trackers[id(state)]
                touched, promoted = state.apply_exchange(
                    callers,
                    targets,
                    complete=tracker.complete_rows if complete else None,
                    complete_row=tracker.mask if complete else None,
                    deficit_mask=tracker.mask,
                    deficits_out=tracker.deficits,
                )
                if state.fused_deficits:
                    tracker.refresh()
                else:
                    tracker.update(touched)
                    tracker.mark_promoted(promoted)
                return state.fused_deficits, np.sort(promoted)

            (fused, promoted), (_, expected) = both(step)
            assert np.array_equal(promoted, expected)
            assert np.array_equal(
                trackers[id(paged)].deficits, trackers[id(reference)].deficits
            )
            return fused, promoted.size

        fused, _ = exchange(complete=False)
        assert fused == (kernel_path != "numpy")
        # Exchange rounds keep the swap buffer, as the dense class does.
        assert paged._scratch is not None
        # Saturate a third of the rows so the filter drops and promotes.
        saturated = np.arange(0, n, 3, dtype=np.int64)
        for state in (paged, reference):
            state.assign_rows(saturated, state.full_row_mask())
            trackers[id(state)].mark_promoted(saturated)
        fused, promotions = exchange(complete=True)
        assert fused == (kernel_path != "numpy")
        # A second filtered round, on whichever branch its live rows pick.
        assert promotions + exchange(complete=True)[1] > 0
        # Saturate all but four rows: too few live rows for the swap form,
        # so the round gathers and scatters, and the tracker recounts.
        saturated = np.arange(4, n, dtype=np.int64)
        for state in (paged, reference):
            state.assign_rows(saturated, state.full_row_mask())
            trackers[id(state)].mark_promoted(saturated)
        fused, _ = exchange(complete=True)
        assert not fused
        # Push rounds: a dense batch (most nodes send) and a sparse one.
        # Neither touches the swap buffer.
        buffers = (paged.data, paged._scratch)
        for size in (2 * n, 3):
            senders, receivers = random_batch(rng, n, size)
            both(lambda state: state.apply_transmissions(senders, receivers))
            assert paged.data is buffers[0] and paged._scratch is buffers[1]


class TestLayoutRegistry:
    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_LAYOUT", "paged")
        assert layouts.resolve_layout() == "paged"
        with layouts.use("dense"):
            assert layouts.resolve_layout() == "dense"
            assert layouts.resolve_layout("auto") == "auto"  # explicit wins
        assert layouts.resolve_layout() == "paged"

    def test_invalid_layout_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            layouts.resolve_layout("mmap")
        with pytest.raises(ValueError):
            with layouts.use("bogus"):
                pass
        monkeypatch.setenv("REPRO_KNOWLEDGE_LAYOUT", "nope")
        with pytest.raises(ValueError):
            layouts.resolve_layout()

    def test_protocols_pick_up_use_scope(self, small_paper_graph):
        from repro import PushPullGossip

        with layouts.use("paged"):
            result = PushPullGossip().run(small_paper_graph, rng=5)
        assert isinstance(result.knowledge, PagedKnowledge)
        assert result.completed


@pytest.mark.slow
class TestCrossLayoutTrajectoryParity:
    """Full protocol runs are layout- AND backend-invariant, bit for bit."""

    def _backend_matrix(self):
        yield "numpy", backends.NumpyBackend()
        if _ckernel.available():
            yield "c", backends.CBackend(max_threads=1)
            yield "c[2]", backends.CBackend(max_threads=2, shard_work=1)

    @pytest.mark.parametrize("protocol_name", ["push-pull", "fast-gossiping", "memory"])
    def test_all_layouts_all_backends(self, small_paper_graph, protocol_name):
        from repro import FastGossiping, MemoryGossiping, PushPullGossip

        factory = {
            "push-pull": lambda: PushPullGossip(),
            "fast-gossiping": lambda: FastGossiping(),
            "memory": lambda: MemoryGossiping(leader=0),
        }[protocol_name]
        seed = {"push-pull": 21, "fast-gossiping": 22, "memory": 23}[protocol_name]
        reference = None
        for layout in ("dense", "paged"):
            for backend_label, backend in self._backend_matrix():
                with layouts.use(layout), backends.use(backend):
                    result = factory().run(small_paper_graph, rng=seed)
                summary = (result.rounds, result.completed, result.ledger.total())
                label = f"{layout}/{backend_label}"
                if reference is None:
                    reference = (summary, result.knowledge, label)
                else:
                    assert summary == reference[0], (
                        f"{protocol_name} trajectory diverged: "
                        f"{label} vs {reference[2]}"
                    )
                    assert result.knowledge == reference[1], (
                        f"{protocol_name} knowledge diverged: "
                        f"{label} vs {reference[2]}"
                    )
                    assert (
                        result.knowledge.fingerprint()
                        == reference[1].fingerprint()
                    )


# --------------------------------------------------------------------------- #
# Resume-from-store under the paged layout
# --------------------------------------------------------------------------- #
def _store_task(task):
    """Module-level (picklable) sweep task: one real push-pull run."""
    from repro import PushPullGossip, erdos_renyi
    from repro.graphs import paper_edge_probability

    n = task.params["n"]
    graph = erdos_renyi(n, paper_edge_probability(n), rng=task.seed,
                        require_connected=True)
    result = PushPullGossip().run(graph, rng=task.seed + 1)
    return {
        "n": n,
        "rounds": result.rounds,
        "completed": bool(result.completed),
        "transmissions": int(result.ledger.total()),
        "fingerprint": result.knowledge.fingerprint(),
    }


class TestPagedResumeFromStore:
    def _spec(self):
        from repro.experiments.scenarios import ScenarioSpec

        return ScenarioSpec(
            name="layout-resume",
            result_name="layout-resume",
            description="cross-layout resume test",
            task=_store_task,
            grid=lambda config: [(("n", n), {"n": n}) for n in (64, 96, 128)],
            group_by=("n",),
            metrics=("rounds",),
        )

    def test_resume_under_paged_layout_is_bit_identical(self, tmp_path, monkeypatch):
        from repro.experiments import run_scenario
        from repro.io.store import ResultStore

        config = SimpleNamespace(repetitions=2, seed=11, n_jobs=1)
        spec = self._spec()

        # Uninterrupted reference run under the dense layout.
        monkeypatch.setenv("REPRO_KNOWLEDGE_LAYOUT", "dense")
        store_a = ResultStore(tmp_path / "a")
        result_a = run_scenario(spec, config=config, store=store_a)
        store_a.close()
        file_a = (tmp_path / "a" / "layout-resume.jsonl").read_bytes()

        # Kill after two complete records plus a truncated third, then resume
        # the remainder under the paged layout.  The rounds,
        # transmissions and knowledge fingerprints of the re-run pairs must be
        # bit-identical, so the store file converges to the reference bytes.
        lines = file_a.splitlines(keepends=True)
        assert len(lines) == 6  # 3 sizes x 2 repetitions
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "layout-resume.jsonl").write_bytes(
            b"".join(lines[:2]) + lines[2][:40]
        )
        monkeypatch.setenv("REPRO_KNOWLEDGE_LAYOUT", "paged")
        store_b = ResultStore(tmp_path / "b")
        result_b = run_scenario(spec, config=config, store=store_b, resume=True)
        store_b.close()

        assert (tmp_path / "b" / "layout-resume.jsonl").read_bytes() == file_a
        assert result_b.raw_records == result_a.raw_records
