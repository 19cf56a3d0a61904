"""Storage-contract tests for the knowledge matrix.

The storage contract (:class:`repro.engine.knowledge.KnowledgeMatrix`) is
that every kernel path produces **bit-identical trajectories**.  These tests
pin it:

* randomized batch operations (``apply_transmissions``, ``apply_exchange``
  with the saturation filter, ``scatter_rows``, element mutators) on the
  compiled serial, compiled sharded and pure-NumPy kernel paths against a
  reference replayed on NumPy,
* ``merge_rows`` on every backend against a per-pair reference, at one,
  twelve and thirteen words per row,
* out-of-range ids (as ``int64`` or ``int32`` arrays, Python lists or
  scalars) and wrongly shaped arguments (on states with as many, fewer and
  more words than nodes), which raise before anything is written,
* ``count_missing`` pinned to the plain masked scan,
* ``copy`` keeping the storage class and everything a later round reads,
  at one word per row, a ragged seven and forty,
* rounds on every kernel branch they take — the push batch, the exchange,
  and a filtered exchange with promotions on both its swap and its
  gather/scatter branch — plus when the swap buffer exists: never for a
  push batch or a whole memory-model run, and kept and reused across
  exchange rounds,
* whole-protocol trajectory parity across the backends (numpy / c at one
  thread / c sharded),
* the benchmark's storage tag hook (:mod:`repro.engine.layouts`),
* a sweep interrupted on one backend and resumed on another, which must be
  bit-identical to an uninterrupted run.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import _ckernel, backends
from repro.engine.knowledge import KnowledgeMatrix


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


def on_numpy(op, state):
    """``op(state)`` on the NumPy kernels: the reference side of a test."""
    with backends.use(backends.NumpyBackend()):
        return op(state)


def random_batch(rng, n, size):
    senders = rng.integers(0, n, size).astype(np.int64)
    receivers = rng.integers(0, max(1, n // 2), size).astype(np.int64)
    return senders, receivers


class TestUnitEquivalence:
    """Randomized storage operations match the NumPy reference bit-for-bit."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", range(3))
    def test_apply_transmissions(self, kernel_path, n, seed):
        rng = np.random.default_rng(seed)
        store, reference = KnowledgeMatrix(n), KnowledgeMatrix(n)
        for _ in range(4):
            senders, receivers = random_batch(rng, n, int(rng.integers(1, 3 * n)))
            store.apply_transmissions(senders, receivers)
            on_numpy(lambda s: s.apply_transmissions(senders, receivers), reference)
        assert store == reference
        assert store.fingerprint() == reference.fingerprint()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", range(3))
    def test_apply_exchange_with_saturation(self, kernel_path, n, seed):
        rng = np.random.default_rng(100 + seed)
        store, reference = KnowledgeMatrix(n), KnowledgeMatrix(n)
        complete_row = store.full_row_mask()
        everyone = np.arange(n, dtype=np.int64)
        for _ in range(6):
            # Callers must be sorted and unique (one outgoing channel per
            # node — the dense pull path relies on it); targets may repeat.
            k = int(rng.integers(1, n))
            callers = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
            targets = rng.integers(0, n, k).astype(np.int64)

            # Saturation is recomputed per state from its own rows: identical
            # states must produce identical filters.
            def step(state):
                complete = state.count_missing(complete_row, everyone) == 0
                return state.apply_exchange(
                    callers, targets, complete=complete, complete_row=complete_row
                )

            touched, promoted = step(store)
            ref_touched, ref_promoted = on_numpy(step, reference)
            # ``touched`` is a multiset whose duplication depends on the
            # kernel path (the contract allows duplicates; the tracker
            # dedups), so compare the deduplicated sets.
            assert np.array_equal(np.unique(touched), np.unique(ref_touched))
            assert np.array_equal(np.sort(promoted), np.sort(ref_promoted))
        assert store == reference

    @pytest.mark.parametrize("n", SIZES)
    def test_scatter_rows_external_source(self, kernel_path, n):
        rng = np.random.default_rng(7)
        store, reference = KnowledgeMatrix(n), KnowledgeMatrix(n)
        pool = rng.integers(0, 2**63, size=(8, store.words), dtype=np.uint64)
        src_idx = rng.integers(0, 8, 3 * n).astype(np.int64)
        receivers = rng.integers(0, n, 3 * n).astype(np.int64)
        store.scatter_rows(pool, src_idx, receivers)
        on_numpy(lambda s: s.scatter_rows(pool, src_idx, receivers), reference)
        assert store == reference

    @pytest.mark.parametrize("n", SIZES)
    def test_element_mutators(self, kernel_path, n):
        rng = np.random.default_rng(13)
        store, reference = KnowledgeMatrix(n), KnowledgeMatrix(n)
        nodes = rng.integers(0, n, 10).astype(np.int64)
        message = int(rng.integers(0, n))
        extra_row = rng.integers(0, 2**63, size=store.words, dtype=np.uint64)

        def mutate(state):
            state.add(int(nodes[0]), message)
            state.add_many(nodes, message)
            state.scatter_rows(extra_row[None], [0], [int(nodes[1])])
            state.apply_transmissions([int(nodes[1])], [int(nodes[2])])

        mutate(store)
        on_numpy(mutate, reference)
        assert store == reference
        assert store.total_known() == reference.total_known()
        assert np.array_equal(store.counts(), reference.counts())

    @pytest.mark.parametrize("n", SIZES)
    def test_row_queries_and_data_property(self, kernel_path, n):
        rng = np.random.default_rng(17)
        store, reference = KnowledgeMatrix(n), KnowledgeMatrix(n)
        for _ in range(3):
            senders, receivers = random_batch(rng, n, 2 * n)
            store.apply_transmissions(senders, receivers)
            on_numpy(lambda s: s.apply_transmissions(senders, receivers), reference)
        want = reference.data
        probe = rng.integers(0, n, 5).astype(np.int64)
        assert np.array_equal(store.data, want)
        assert np.array_equal(store.rows(probe), want[probe])
        assert np.array_equal(store.rows([probe[0]])[0], want[probe[0]])
        assert np.array_equal(
            store.known_messages(int(probe[1])),
            np.flatnonzero(np.unpackbits(want[probe[1]].view(np.uint8), bitorder="little")),
        )

    # 40 words per row, one word, and 7 words with a ragged last word.
    @pytest.mark.parametrize("n,m", [(40, 64 * 40), (40, 40), (33, 64 * 7 - 17)])
    def test_copy_is_independent(self, kernel_path, n, m):
        """A copy keeps its class and evolves exactly like the original."""
        store = KnowledgeMatrix(n, m)
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
        assert not store.knows(0, message), "copy aliases storage"


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

    # Message counts giving one word per row, twelve (whole vectors at
    # both SIMD widths) and thirteen with a ragged last word.
    @pytest.mark.parametrize("n_messages", [53, 64 * 12, 64 * 13 - 41])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_pair_reference(self, backend, seed, n_messages):
        rng = np.random.default_rng(300 + seed)
        n = 53
        store = KnowledgeMatrix(n, n_messages)
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


#: The forms an id argument arrives in: ``int64`` arrays (the protocols'
#: own draws), ``int32`` arrays (graph neighbour ids are stored as
#: ``int32``) and Python lists, with the matching scalar for a one-node call.
ID_FORMS = {"int64": np.int64, "int32": np.int32, "python": int}


class _Ids:
    """Id arguments in one of :data:`ID_FORMS`, the last one ``bad(bound)``."""

    def __init__(self, form, bad):
        self.form, self.bad = form, bad

    def __call__(self, ids):
        """``ids`` in this form."""
        ids = np.asarray(ids, dtype=np.int64)
        return ids.tolist() if self.form is int else ids.astype(self.form)

    def ending(self, bound, size=10):
        """The ids ``0 .. size - 2`` followed by ``bad(bound)``."""
        return self(np.r_[np.arange(size - 1), self.bad(bound)])

    def one(self, bound):
        """``bad(bound)`` alone, as a scalar."""
        return self.form(self.bad(bound))


#: Every checked id argument, as a call on a 10-node state and a 3-row
#: external array that puts ``bad(bound)`` into it (through an :class:`_Ids`),
#: ``bound`` being the number of rows the argument indexes.
OUT_OF_RANGE_CALLS = {
    "transmission senders": lambda state, ext, ids: state.apply_transmissions(
        ids.ending(10), ids(np.arange(10))
    ),
    "transmission receivers": lambda state, ext, ids: state.apply_transmissions(
        ids(np.arange(10)), ids.ending(10)
    ),
    "exchange callers": lambda state, ext, ids: state.apply_exchange(
        ids.ending(10), ids(np.arange(10))
    ),
    "exchange targets": lambda state, ext, ids: state.apply_exchange(
        ids(np.arange(10)), ids.ending(10)
    ),
    "scatter receivers": lambda state, ext, ids: state.scatter_rows(
        ext, ids(np.zeros(10)), ids.ending(10)
    ),
    "scatter source rows": lambda state, ext, ids: state.scatter_rows(
        ext, ids.ending(3, size=3), ids(np.arange(3))
    ),
    "merge nodes": lambda state, ext, ids: state.merge_rows(
        ext, ids(np.arange(3)), ids.ending(10, size=3)
    ),
    "merge external rows": lambda state, ext, ids: state.merge_rows(
        ext, ids.ending(3, size=3), ids(np.arange(3))
    ),
    "recount rows": lambda state, ext, ids: state.count_missing(
        state.full_row_mask(), ids.ending(10)
    ),
    "row gather": lambda state, ext, ids: state.rows(ids.ending(10)),
    "assigned nodes": lambda state, ext, ids: state.assign_rows(
        ids.ending(10), state.full_row_mask()
    ),
    "add_many nodes": lambda state, ext, ids: state.add_many(ids.ending(10), 0),
    "added node": lambda state, ext, ids: state.add(ids.one(10), 0),
    "knows node": lambda state, ext, ids: state.knows(ids.one(10), 0),
    "known_messages node": lambda state, ext, ids: state.known_messages(ids.one(10)),
    "missing_messages_at node": lambda state, ext, ids: state.missing_messages_at(
        ids.one(10)
    ),
}


class TestOutOfRangeIds:
    """An id outside its range raises before anything is written.

    The compiled kernels index raw memory with these ids, so without the
    check a bad id writes or reads past the matrix; NumPy wraps ``-1``
    round to the last row.  Every id form is converted and checked the
    same way, so an ``int32`` or list argument is no way round the check.
    """

    @pytest.mark.parametrize("form", list(ID_FORMS))
    @pytest.mark.parametrize(
        "bad", [lambda bound: bound, lambda bound: -1], ids=["bound", "minus-one"]
    )
    @pytest.mark.parametrize("call", list(OUT_OF_RANGE_CALLS))
    def test_raises_and_writes_nothing(self, backend, bad, call, form):
        rng = np.random.default_rng(8)
        state = KnowledgeMatrix(10)
        state.apply_transmissions(np.arange(10), np.roll(np.arange(10), 1))
        external = rng.integers(0, 2**63, size=(3, state.words), dtype=np.uint64)
        before, external_before = state.fingerprint(), external.copy()
        with pytest.raises(IndexError, match=r"must lie in \[0, (10|3)\)"):
            OUT_OF_RANGE_CALLS[call](state, external, _Ids(ID_FORMS[form], bad))
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
    """A push-pull round on a state of at least 10 nodes with the given
    optional arguments."""
    return state.apply_exchange(np.arange(5), np.arange(5, 10), **extras)


#: Every packed-row or per-node argument a compiled kernel reads or writes,
#: as a call on a state ``s`` that gets it wrong, and the error it must
#: raise (``{n}`` and ``{words}`` stand for the state's node and word counts).
BAD_ARGUMENT_CALLS = {
    "short mask": (
        lambda s: s.count_missing(s.full_row_mask()[:-1], [0, 1]),
        r"mask must have shape \({words},\)",
    ),
    "short complete": (
        lambda s: _exchange(
            s, complete=np.ones(s.n_nodes - 1, bool), complete_row=s.full_row_mask()
        ),
        r"complete must have shape \({n},\)",
    ),
    "complete without its row": (
        lambda s: _exchange(s, complete=np.ones(s.n_nodes, bool)),
        "complete needs complete_row",
    ),
    "short complete_row": (
        lambda s: _exchange(
            s, complete=np.zeros(s.n_nodes, bool), complete_row=s.full_row_mask()[:-1]
        ),
        r"complete_row must have shape \({words},\)",
    ),
    "short deficit_mask": (
        lambda s: _exchange(
            s,
            deficit_mask=s.full_row_mask()[:-1],
            deficits_out=np.zeros(s.n_nodes, np.int64),
        ),
        r"deficit_mask must have shape \({words},\)",
    ),
    "short deficits_out": (
        lambda s: _exchange(
            s,
            deficit_mask=s.full_row_mask(),
            deficits_out=np.zeros(s.n_nodes - 1, np.int64),
        ),
        "deficits_out must be",
    ),
    "int32 deficits_out": (
        lambda s: _exchange(
            s, deficit_mask=s.full_row_mask(), deficits_out=np.zeros(s.n_nodes, np.int32)
        ),
        "deficits_out must be",
    ),
    "strided deficits_out": (
        lambda s: _exchange(
            s,
            deficit_mask=s.full_row_mask(),
            deficits_out=np.zeros(2 * s.n_nodes, np.int64)[::2],
        ),
        "deficits_out must be",
    ),
    "read-only deficits_out": (
        lambda s: _exchange(
            s,
            deficit_mask=s.full_row_mask(),
            deficits_out=np.broadcast_to(np.zeros(1, np.int64), (s.n_nodes,)),
        ),
        "deficits_out must be",
    ),
    "deficit_mask alone": (
        lambda s: _exchange(s, deficit_mask=s.full_row_mask()),
        "given together",
    ),
    "deficits_out alone": (
        lambda s: _exchange(s, deficits_out=np.zeros(s.n_nodes, np.int64)),
        "given together",
    ),
    "short assigned row": (
        lambda s: s.assign_rows([0], s.full_row_mask()[:-1]),
        r"row must have shape \({words},\)",
    ),
}


#: ``(n_nodes, n_messages)`` of the states the argument checks run on: as
#: many words as nodes, one word, and more words than nodes with a ragged
#: last word, so a row checked against the node count (or the reverse)
#: shows.
ARGUMENT_SHAPES = {"10x640": (10, 640), "12x64": (12, 64), "10x800": (10, 800)}


class TestArgumentShapes:
    """A mask, completion row or per-node array of the wrong shape raises
    :class:`ValueError` naming it, before anything is written.

    The compiled kernels read ``words`` words of a mask and write
    ``n_nodes`` deficits, so without the check a short array is read or
    written past its end (a short ``deficits_out`` corrupted the heap), and
    NumPy broadcasts a one-word mask.
    """

    @pytest.mark.parametrize("shape", list(ARGUMENT_SHAPES))
    @pytest.mark.parametrize("call", list(BAD_ARGUMENT_CALLS))
    def test_raises_and_writes_nothing(self, backend, call, shape):
        n, m = ARGUMENT_SHAPES[shape]
        state = KnowledgeMatrix(n, m)
        state.apply_transmissions(np.arange(n), np.roll(np.arange(n), 1))
        before = state.fingerprint()
        fn, message = BAD_ARGUMENT_CALLS[call]
        with pytest.raises(ValueError, match=message.format(n=n, words=state.words)):
            fn(state)
        assert state.fingerprint() == before


class TestCountMissingPinned:
    """count_missing equals the plain masked scan."""

    def reference(self, store: KnowledgeMatrix, mask, rows):
        return np.bitwise_count(mask[None, :] & ~store.data[rows]).sum(
            axis=1, dtype=np.int64
        )

    @pytest.mark.parametrize("n", (17, 53))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_masked_scan(self, kernel_path, n, seed):
        rng = np.random.default_rng(seed)
        store = KnowledgeMatrix(n)
        for _ in range(3):
            store.apply_transmissions(*random_batch(rng, n, 2 * n))
        mask = rng.integers(0, 2**63, size=store.words, dtype=np.uint64)
        rows = rng.integers(0, n, n // 2).astype(np.int64)
        got = store.count_missing(mask, rows)
        assert np.array_equal(got, self.reference(store, mask, rows))
        # Empty row list: a zero-length result, never an error.
        assert store.count_missing(mask, np.zeros(0, dtype=np.int64)).size == 0


class TestRoundBuffers:
    """When the swap buffer exists, and rounds on every kernel branch."""

    def test_push_batches_never_allocate_the_swap_buffer(self, kernel_path):
        """Push batches run in place (NumPy: gather their senders)."""
        n = 53
        state = KnowledgeMatrix(n)
        rng = np.random.default_rng(9)
        # The in-place kernel's plan stays resident on the compiled paths:
        # four slots per node and two per transmission of the largest batch.
        plan = 8 * (4 * n + 2 * 3 * n) if kernel_path != "numpy" else 0
        # A dense batch (every node sends) and a sparse one.
        for size in (3 * n, 3):
            state.apply_transmissions(*random_batch(rng, n, size))
            assert state._scratch is None
            assert state.storage_nbytes() == 8 * n * state.words + plan

    def test_exchange_keeps_and_reuses_the_swap_buffer(self, kernel_path):
        n = 53
        state = KnowledgeMatrix(n)
        rng = np.random.default_rng(10)
        callers = np.arange(n, dtype=np.int64)
        state.apply_exchange(callers, rng.integers(0, n, n).astype(np.int64))
        assert state._scratch is not None
        buffers = {id(state.data), id(state._scratch)}
        # The compiled exchange also keeps its CSR: n + 1 offsets, 2n edges.
        csr = 8 * (n + 1 + 2 * n) if kernel_path != "numpy" else 0
        assert state.storage_nbytes() == 16 * n * state.words + csr
        state.apply_exchange(callers, rng.integers(0, n, n).astype(np.int64))
        assert {id(state.data), id(state._scratch)} == buffers

    def test_small_unfiltered_exchange_gathers_and_scatters(self, kernel_path):
        """An unfiltered batch of ``k < n / 4`` channels takes the gather +
        scatter path on every backend: no swap buffer, no fused recount,
        the NumPy bits.  With ``k = n`` the swap buffer is kept."""
        from repro.core.completion import CompletionTracker

        n = 53
        rng = np.random.default_rng(12)
        state, reference = KnowledgeMatrix(n), KnowledgeMatrix(n)
        tracker = CompletionTracker(state)
        for k in (5, n):
            callers = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
            targets = rng.integers(0, n, k).astype(np.int64)
            tracker.exchange(callers, targets, filtered=False)
            on_numpy(lambda s: s.apply_exchange(callers, targets), reference)
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
        """The memory model only pushes, so it peaks near one matrix.

        Fanout 8 and three trees give step groups of at least n / 4 senders.
        """
        from repro import MemoryGossiping
        from repro.core.parameters import MemoryGossipingParameters

        params = MemoryGossipingParameters(fanout=8, num_trees=3)
        result = MemoryGossiping(params, leader=0).run(small_paper_graph, rng=23)
        assert result.completed
        assert type(result.knowledge) is KnowledgeMatrix
        assert result.knowledge._scratch is None

    @pytest.mark.parametrize("n_messages", [15, 448, 4096, 4160])
    def test_rounds_match_numpy(self, kernel_path, n_messages):
        """Exchange (plain and filtered with promotions) and push rounds.

        A filtered round with at least half its rows live runs the filtered
        swap kernel on the compiled paths, and one with fewer the gather +
        scatter branch.  The reference always runs on NumPy.
        """
        from repro.core.completion import CompletionTracker

        n = 33
        rng = np.random.default_rng(n_messages)
        state = KnowledgeMatrix(n, n_messages)
        reference = KnowledgeMatrix(n, n_messages)
        trackers = {id(s): CompletionTracker(s) for s in (state, reference)}

        def both(step):
            expected = on_numpy(step, reference)
            got = step(state)
            assert state.fingerprint() == reference.fingerprint()
            return got, expected

        def exchange(complete):
            callers = np.sort(rng.choice(n, size=n - 3, replace=False)).astype(np.int64)
            targets = rng.integers(0, n, callers.size).astype(np.int64)

            def step(s):
                tracker = trackers[id(s)]
                touched, promoted = s.apply_exchange(
                    callers,
                    targets,
                    complete=tracker.complete_rows if complete else None,
                    complete_row=tracker.mask if complete else None,
                    deficit_mask=tracker.mask,
                    deficits_out=tracker.deficits,
                )
                if s.fused_deficits:
                    tracker.refresh()
                else:
                    tracker.update(touched)
                    tracker.mark_promoted(promoted)
                return s.fused_deficits, np.sort(promoted)

            (fused, promoted), (_, expected) = both(step)
            assert np.array_equal(promoted, expected)
            assert np.array_equal(
                trackers[id(state)].deficits, trackers[id(reference)].deficits
            )
            return fused, promoted.size

        fused, _ = exchange(complete=False)
        assert fused == (kernel_path != "numpy")
        # Exchange rounds keep the swap buffer.
        assert state._scratch is not None
        # Saturate a third of the rows so the filter drops and promotes.
        saturated = np.arange(0, n, 3, dtype=np.int64)
        for s in (state, reference):
            s.assign_rows(saturated, s.full_row_mask())
            trackers[id(s)].mark_promoted(saturated)
        fused, promotions = exchange(complete=True)
        assert fused == (kernel_path != "numpy")
        # A second filtered round, on whichever branch its live rows pick.
        assert promotions + exchange(complete=True)[1] > 0
        # Saturate all but four rows: too few live rows for the swap form,
        # so the round gathers and scatters, and the tracker recounts.
        saturated = np.arange(4, n, dtype=np.int64)
        for s in (state, reference):
            s.assign_rows(saturated, s.full_row_mask())
            trackers[id(s)].mark_promoted(saturated)
        fused, _ = exchange(complete=True)
        assert not fused
        # Push rounds: a dense batch (most nodes send) and a sparse one.
        # Neither touches the swap buffer.
        buffers = (state.data, state._scratch)
        for size in (2 * n, 3):
            senders, receivers = random_batch(rng, n, size)
            both(lambda s: s.apply_transmissions(senders, receivers))
            assert state.data is buffers[0] and state._scratch is buffers[1]


def test_benchmark_storage_tag_hook(small_paper_graph):
    """``layouts.use("paged")`` builds the tagged class, with the same bits."""
    from repro import PushPullGossip
    from repro.engine import layouts

    default = PushPullGossip().run(small_paper_graph, rng=5)
    with layouts.use("paged"):
        tagged = PushPullGossip().run(small_paper_graph, rng=5)
    assert type(tagged.knowledge) is layouts.PagedKnowledge
    assert tagged.knowledge.layout == "paged"
    assert type(default.knowledge) is KnowledgeMatrix
    assert tagged.completed
    assert tagged.knowledge.fingerprint() == default.knowledge.fingerprint()
    with pytest.raises(ValueError, match="expected 'paged'"):
        with layouts.use("dense"):
            pass


@pytest.mark.slow
class TestTrajectoryParity:
    """Full protocol runs are backend-invariant, bit for bit."""

    def _backend_matrix(self):
        yield "numpy", backends.NumpyBackend()
        if _ckernel.available():
            yield "c", backends.CBackend(max_threads=1)
            yield "c[2]", backends.CBackend(max_threads=2, shard_work=1)

    @pytest.mark.parametrize("protocol_name", ["push-pull", "fast-gossiping", "memory"])
    def test_all_backends(self, small_paper_graph, protocol_name):
        from repro import FastGossiping, MemoryGossiping, PushPullGossip

        factory = {
            "push-pull": lambda: PushPullGossip(),
            "fast-gossiping": lambda: FastGossiping(),
            "memory": lambda: MemoryGossiping(leader=0),
        }[protocol_name]
        seed = {"push-pull": 21, "fast-gossiping": 22, "memory": 23}[protocol_name]
        reference = None
        for label, backend in self._backend_matrix():
            with backends.use(backend):
                result = factory().run(small_paper_graph, rng=seed)
            summary = (result.rounds, result.completed, result.ledger.total())
            if reference is None:
                reference = (summary, result.knowledge, label)
                continue
            assert summary == reference[0], (
                f"{protocol_name} trajectory diverged: {label} vs {reference[2]}"
            )
            assert result.knowledge == reference[1], (
                f"{protocol_name} knowledge diverged: {label} vs {reference[2]}"
            )
            assert result.knowledge.fingerprint() == reference[1].fingerprint()


# --------------------------------------------------------------------------- #
# Resume-from-store on another backend
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


class TestResumeFromStore:
    def _spec(self):
        from repro.experiments.scenarios import ScenarioSpec

        return ScenarioSpec(
            name="storage-resume",
            result_name="storage-resume",
            description="cross-backend resume test",
            task=_store_task,
            grid=lambda config: [(("n", n), {"n": n}) for n in (64, 96, 128)],
            group_by=("n",),
            metrics=("rounds",),
        )

    def test_resume_on_another_backend_is_bit_identical(self, tmp_path):
        from repro.experiments import run_scenario
        from repro.io.store import ResultStore

        if not _ckernel.available():
            pytest.skip("compiled kernel unavailable on this machine")
        config = SimpleNamespace(repetitions=2, seed=11, n_jobs=1)
        spec = self._spec()

        # Uninterrupted reference run on the NumPy kernels.
        store_a = ResultStore(tmp_path / "a")
        with backends.use(backends.NumpyBackend()):
            result_a = run_scenario(spec, config=config, store=store_a)
        store_a.close()
        file_a = (tmp_path / "a" / "storage-resume.jsonl").read_bytes()

        # Kill after two complete records plus a truncated third, then resume
        # the remainder on the compiled kernels.  The rounds, transmissions
        # and knowledge fingerprints of the re-run pairs must be
        # bit-identical, so the store file converges to the reference bytes.
        lines = file_a.splitlines(keepends=True)
        assert len(lines) == 6  # 3 sizes x 2 repetitions
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "storage-resume.jsonl").write_bytes(
            b"".join(lines[:2]) + lines[2][:40]
        )
        store_b = ResultStore(tmp_path / "b")
        with backends.use(backends.CBackend(max_threads=1)):
            result_b = run_scenario(spec, config=config, store=store_b, resume=True)
        store_b.close()

        assert (tmp_path / "b" / "storage-resume.jsonl").read_bytes() == file_a
        assert result_b.raw_records == result_a.raw_records
