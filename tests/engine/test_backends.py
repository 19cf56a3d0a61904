"""Tests for the kernel backend registry and the sharded kernels.

Two layers are covered here:

* the registry itself — name/environment resolution, the ``auto`` rule, the
  thread-count heuristic with its measured small-batch cutoff, and the
  :func:`repro.engine.backends.use` override used by tests and benchmarks;
* every compiled kernel at 2, 3 and 8 shards against the same kernel at one
  shard — row data *and* frontier bookkeeping — and against an independent
  NumPy reference, so one shard is never only compared with itself.

Whole-protocol trajectory parity across backends lives in
``tests/engine/test_kernel_equivalence.py``.
"""

from __future__ import annotations

import os
import select
import signal

import numpy as np
import pytest

from repro.core.completion import CompletionTracker, gossip_complete
from repro.engine import _ckernel, backends
from repro.engine.knowledge import (
    FrontierKnowledge,
    KnowledgeMatrix,
    _layered_scatter,
)

needs_compiled = pytest.mark.skipif(
    not _ckernel.available(), reason="compiled kernel unavailable on this machine"
)


def threaded(max_threads: int) -> backends.CBackend:
    """A compiled backend that shards even the tiniest batches."""
    return backends.CBackend(max_threads=max_threads, shard_work=1)


def resolve_compiled(name=None, **kwargs):
    """Resolve the compiled backend, absorbing the degradation warning.

    Explicitly requesting ``c`` without the compiled library warns by
    design; under ``filterwarnings = ["error"]`` that warning must be
    asserted rather than leaked into the registry tests, which check
    resolution behaviour, not availability.
    """
    if _ckernel.available():
        return backends.resolve(name, **kwargs) if name else backends.resolve(**kwargs)
    with pytest.warns(RuntimeWarning, match="compiled library is unavailable"):
        return backends.resolve(name, **kwargs) if name else backends.resolve(**kwargs)


class TestRegistry:
    def test_known_names_resolve(self):
        assert backends.resolve("numpy").name == "numpy"
        assert resolve_compiled("c").name == "c"
        resolved = resolve_compiled("c", max_threads=3)
        assert resolved.name == "c"
        assert resolved.max_threads == 3

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            backends.resolve("cuda")

    def test_retired_threads_name_raises(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            backends.resolve("c-threads")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c-threads")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            backends.resolve()

    def test_env_backend_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert backends.resolve().name == "numpy"
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        assert resolve_compiled().name == "c"

    def test_env_thread_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "6")
        assert backends.default_max_threads() == 6
        assert resolve_compiled("c").max_threads == 6
        assert backends.CBackend().max_threads == 6
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "soon")
        with pytest.raises(ValueError, match="REPRO_KERNEL_THREADS"):
            backends.default_max_threads()

    def test_auto_prefers_compiled_at_any_thread_budget(self, monkeypatch):
        if _ckernel.available():
            for threads in (1, 4):
                resolved = backends.resolve("auto", max_threads=threads)
                assert resolved.name == "c"
                assert resolved.max_threads == threads
        monkeypatch.setattr(_ckernel, "_LIB", None)
        assert backends.resolve("auto", max_threads=4).name == "numpy"

    def test_describe_reports_thread_budget(self):
        described = backends.CBackend(max_threads=3, shard_work=7).describe()
        assert list(described) == [
            "name", "compiled", "max_threads", "ckernel", "simd", "shard_work",
        ]
        assert described["name"] == "c"
        assert described["max_threads"] == 3
        assert described["shard_work"] == 7
        assert backends.NumpyBackend().describe()["max_threads"] == 1

    def test_use_context_manager_restores(self):
        before = backends.active()
        with backends.use("numpy") as switched:
            assert backends.active() is switched
            assert switched.name == "numpy"
        assert backends.active() is before

    def test_use_compiled_tracks_library_availability(self, monkeypatch):
        one = resolve_compiled("c", max_threads=1)
        four = resolve_compiled("c", max_threads=4)
        assert one.use_compiled() == _ckernel.available()
        monkeypatch.setattr(_ckernel, "_LIB", None)
        assert not one.use_compiled()
        assert not four.use_compiled()
        assert not backends.resolve("numpy").use_compiled()


@needs_compiled
class TestNumpyStubStaysInItsTest:
    """A NumPy-stubbed test that resolves the backend first leaks nothing.

    The two tests run in this order.  The first resolves the process-wide
    backend for the first time with the library stubbed out, as the
    ``numpy`` case of a ``kernel_path`` fixture may; that caches
    ``NumpyBackend()``.  The second is the next resolution: the suite's
    autouse ``_scoped_active_backend`` must have put the environment's
    compiled choice back, or every later "compiled" test would run NumPy.
    """

    def test_first_resolution_inside_a_numpy_stub(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        backends.set_active(None)
        monkeypatch.setattr(_ckernel, "_LIB", None)
        assert backends.active().name == "numpy"

    def test_next_resolution_is_the_environments_backend(self):
        assert type(backends.active()) is type(backends.resolve())


class TestThreadHeuristic:
    def test_small_batches_stay_serial(self):
        backend = backends.CBackend(max_threads=8)
        # Below twice the measured per-shard work: dispatch would dominate.
        assert backend.threads_for(0) == 1
        assert backend.threads_for(backends.WORDS_PER_SHARD) == 1
        assert backend.threads_for(2 * backends.WORDS_PER_SHARD - 1) == 1

    def test_threads_scale_with_work_and_clamp(self):
        backend = backends.CBackend(max_threads=8)
        assert backend.threads_for(2 * backends.WORDS_PER_SHARD) == 2
        assert backend.threads_for(5 * backends.WORDS_PER_SHARD) == 5
        assert backend.threads_for(500 * backends.WORDS_PER_SHARD) == 8

    def test_single_thread_budget_never_shards(self):
        backend = backends.CBackend(max_threads=1, shard_work=1)
        assert backend.threads_for(10**9) == 1

    def test_n1000_exchange_round_is_below_cutoff(self):
        # The regression guard behind the heuristic: a full n=1000 exchange
        # round must not pay pool dispatch.
        n, words = 1000, 16
        backend = backends.CBackend(max_threads=8)
        assert backend.threads_for((2 * n + n) * words) == 1


def random_state(seed: int, n: int, words_bits: int) -> KnowledgeMatrix:
    rng = np.random.default_rng(seed)
    km = KnowledgeMatrix(n, words_bits)
    km.data |= rng.integers(0, 2**63, size=km.data.shape, dtype=np.uint64)
    return km


def scatter_reference(base, snapshot, senders, receivers) -> np.ndarray:
    """The NumPy layered scatter, checked against the one-shard kernel."""
    expected = base.data.copy()
    _layered_scatter(expected, snapshot, senders, receivers)
    one_shard = base.data.copy()
    _ckernel.scatter_or(one_shard, snapshot, senders, receivers)
    assert np.array_equal(one_shard, expected)
    return expected


@needs_compiled
class TestEnsureShards:
    def test_grows_and_clamps(self, monkeypatch):
        assert _ckernel.ensure_shards(1) == 1
        got = _ckernel.ensure_shards(3)
        assert 1 <= got <= 3
        # Clamp check with the cap lowered, so the test does not actually
        # spawn (and permanently keep) MAX_SHARDS-1 worker threads.
        monkeypatch.setattr(_ckernel, "MAX_SHARDS", 4)
        assert _ckernel.ensure_shards(10**6) <= 4

    def test_counts_beyond_the_pool_still_write_every_row(self):
        """A shard count the pool cannot serve is clamped, not truncated."""
        base = random_state(13, 90, 3 * 64)
        snapshot = base.data.copy()
        rng = np.random.default_rng(5)
        senders = rng.integers(0, 90, 400).astype(np.int64)
        receivers = rng.integers(0, 90, 400).astype(np.int64)
        expected = scatter_reference(base, snapshot, senders, receivers)
        actual = base.data.copy()
        # No test grows the pool to MAX_SHARDS - 1 workers.
        _ckernel.scatter_or(actual, snapshot, senders, receivers, _ckernel.MAX_SHARDS)
        assert np.array_equal(actual, expected)

    def test_growth_mid_session_stays_correct(self):
        """Workers spawned after jobs have run must join cleanly.

        A new worker registers at the current pool generation; starting
        from generation zero instead would let it acknowledge a job it
        never joined and release a later barrier early.  Interleave pool
        growth with jobs and check every result.
        """
        rng = np.random.default_rng(23)
        base = random_state(9, 150, 6 * 64)
        snapshot = base.data.copy()
        for shards in (2, 3, 5, 8):
            senders = rng.integers(0, 150, 600).astype(np.int64)
            receivers = rng.integers(0, 150, 600).astype(np.int64)
            expected = scatter_reference(base, snapshot, senders, receivers)
            got = _ckernel.ensure_shards(shards)
            for _ in range(3):
                actual = base.data.copy()
                _ckernel.scatter_or(actual, snapshot, senders, receivers, got)
                assert np.array_equal(expected, actual)

    def test_concurrent_sharded_callers_from_python_threads(self):
        """Sharded jobs from several Python threads must not interleave.

        ctypes releases the GIL, and the pool has a single job slot — a
        caller mutex serializes submissions, so every caller's shards all
        run (a race drops shards silently: rows lose their ORs).
        """
        from concurrent.futures import ThreadPoolExecutor

        got = _ckernel.ensure_shards(4)
        if got < 2:
            pytest.skip("no pool workers available")
        base = random_state(5, 200, 5 * 64)
        snapshot = base.data.copy()
        rng = np.random.default_rng(99)
        jobs = []
        for _ in range(4):
            senders = rng.integers(0, 200, 800).astype(np.int64)
            receivers = rng.integers(0, 200, 800).astype(np.int64)
            expected = scatter_reference(base, snapshot, senders, receivers)
            jobs.append((senders, receivers, expected))

        def work(job):
            senders, receivers, expected = job
            for _ in range(50):
                actual = base.data.copy()
                _ckernel.scatter_or(actual, snapshot, senders, receivers, got)
                if not np.array_equal(actual, expected):
                    return False
            return True

        with ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(work, jobs))

    def test_threaded_kernels_usable_after_fork(self):
        """Pool threads do not survive fork; the child must rebuild them.

        The child grows a fresh pool step by step (generation bookkeeping
        from scratch) and verifies a sharded scatter against the reference
        computed in the parent.  A regression here deadlocks or produces
        partial rows, so the parent enforces a timeout.
        """
        assert _ckernel.ensure_shards(4) >= 1  # parent pool exists pre-fork
        base = random_state(3, 120, 4 * 64)
        snapshot = base.data.copy()
        rng = np.random.default_rng(77)
        senders = rng.integers(0, 120, 500).astype(np.int64)
        receivers = rng.integers(0, 120, 500).astype(np.int64)
        expected = scatter_reference(base, snapshot, senders, receivers)

        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            status = b"0"
            try:
                ok = True
                for shards in (2, 4, 8):
                    got = _ckernel.ensure_shards(shards)
                    actual = base.data.copy()
                    _ckernel.scatter_or(actual, snapshot, senders, receivers, got)
                    ok = ok and bool(np.array_equal(actual, expected))
                status = b"1" if ok else b"0"
            finally:
                os.write(write_fd, status)
                os._exit(0)
        os.close(write_fd)
        try:
            ready, _, _ = select.select([read_fd], [], [], 60)
            if not ready:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("threaded kernel deadlocked in forked child")
            result = os.read(read_fd, 1)
        finally:
            os.close(read_fd)
        os.waitpid(pid, 0)
        assert result == b"1"


@needs_compiled
class TestShardedKernelParity:
    """Every kernel at 2, 3 and 8 shards equals one shard and NumPy."""

    @pytest.mark.parametrize("shards", [2, 3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_scatter_or(self, shards, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(16, 200))
        base = random_state(seed, n, 8 * 64)
        snapshot = base.data.copy()
        k = int(rng.integers(1, 4 * n))
        senders = rng.integers(0, n, k).astype(np.int64)
        receivers = rng.integers(0, n // 2, k).astype(np.int64)  # collisions

        expected = scatter_reference(base, snapshot, senders, receivers)
        sharded = base.data.copy()
        got = _ckernel.ensure_shards(shards)
        _ckernel.scatter_or(sharded, snapshot, senders, receivers, got)
        assert np.array_equal(expected, sharded)

    @pytest.mark.parametrize("shards", [2, 3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_exchange(self, shards, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(16, 150))
        base = random_state(seed, n, 6 * 64)
        callers = np.arange(n, dtype=np.int64)
        targets = rng.integers(0, n, n).astype(np.int64)
        off = np.empty(n + 1, dtype=np.int64)
        adj = np.empty(2 * n, dtype=np.int64)
        got = _ckernel.ensure_shards(shards)
        # Complete rows hold the full row, as the saturation filter requires.
        full_row = base.full_row_mask()
        complete = np.zeros(n, dtype=np.uint8)
        complete[::5] = 1
        base.data[complete == 1] = full_row
        snapshot = base.data.copy()

        def next_states(run):
            """``run(next_state, shards)`` at one shard and at ``got`` shards."""
            states = []
            for nshards in (1, got):
                state = np.empty_like(base.data)
                run(state, nshards)
                states.append(state)
            return states

        # Reference: snapshot semantics, one OR per channel direction.
        expected = snapshot.copy()
        for c, t in zip(callers.tolist(), targets.tolist()):
            expected[c] |= snapshot[t]
            expected[t] |= snapshot[c]
        # No complete rows: every channel is ORed in both directions.
        for state in next_states(
            lambda out, s: _ckernel.exchange(
                base.data, out, callers, targets, off, adj, complete=None,
                shards=s,
            )
        ):
            assert np.array_equal(state, expected)
        # The filter skips complete receivers and promotes the receivers of
        # complete senders to the full row: the same end state.
        for state in next_states(
            lambda out, s: _ckernel.exchange(
                base.data, out, callers, targets, off, adj, complete,
                np.zeros(n, dtype=np.uint8), full_row, shards=s,
            )
        ):
            assert np.array_equal(state, expected)

    def test_exchange_complete_needs_promoted_and_full_row(self):
        """The kernel writes ``promoted`` and reads ``full_row`` whenever
        ``complete`` is given, so the wrapper refuses to pass NULL."""
        km = random_state(0, 16, 64)
        callers = np.arange(16, dtype=np.int64)
        with pytest.raises(ValueError, match="promoted and full_row"):
            _ckernel.exchange(
                km.data, np.empty_like(km.data), callers, callers,
                np.empty(17, dtype=np.int64), np.empty(32, dtype=np.int64),
                complete=np.zeros(16, dtype=np.uint8),
            )

    @pytest.mark.parametrize("shards", [2, 3, 8])
    def test_recount(self, shards):
        rng = np.random.default_rng(7)
        km = random_state(11, 120, 5 * 64)
        mask = km.full_row_mask()
        rows = np.sort(rng.choice(120, size=77, replace=False)).astype(np.int64)
        expected = np.bitwise_count(mask[None, :] & ~km.data[rows]).sum(axis=1)
        got = _ckernel.ensure_shards(shards)
        for nshards in (1, got):
            assert np.array_equal(
                _ckernel.recount_deficits(km.data, mask, rows, nshards), expected
            )

    @pytest.mark.parametrize("shards", [2, 3, 8])
    def test_frontier_scatter_data_and_bookkeeping(self, shards):
        """One shard and ``shards`` shards keep identical bookkeeping.

        The NumPy frontier pass lists a row's words in a different order
        and stops listing them once the row overflows, so against NumPy
        only the row data and the dense-row flags are comparable.
        """
        got = _ckernel.ensure_shards(shards)
        rng = np.random.default_rng(31)
        reference = FrontierKnowledge(240, 70 * 64)
        states = {nshards: FrontierKnowledge(240, 70 * 64) for nshards in (1, got)}
        # Scattered extra messages spread rows past their word cap, so the
        # dense ratchet fires during the rounds below.
        nodes = rng.integers(0, 240, 240).tolist()
        messages = rng.integers(0, 70 * 64, 240).tolist()
        for fk in (reference, *states.values()):
            for node, message in zip(nodes, messages):
                fk.add(node, message)
        for _ in range(5):
            k = int(rng.integers(1, 700))
            senders = rng.integers(0, 240, k).astype(np.int64)
            receivers = rng.integers(0, 240, k).astype(np.int64)
            # The frontier pass serves frontier senders only; dense-flagged
            # rows take the row scatter.
            frontier = ~reference._dense_rows[senders]
            senders, receivers = senders[frontier], receivers[frontier]
            with backends.use(backends.NumpyBackend()):
                reference._sparse_apply(
                    senders, receivers, np.zeros(senders.size, dtype=bool)
                )
            for nshards, fk in states.items():
                total = int(fk._nnz[senders].sum())
                _ckernel.frontier_scatter(
                    fk.data, fk._active_words, fk._nnz, fk._word_active,
                    fk._dense_rows, senders, receivers,
                    np.empty(total, dtype=np.uint64),
                    np.empty(total, dtype=np.int64),
                    nshards,
                )
        one, sharded = states[1], states[got]
        assert 0 < reference._dense_rows.sum() < reference.n_nodes
        assert np.array_equal(one.data, reference.data)
        assert np.array_equal(one._dense_rows, reference._dense_rows)
        assert np.array_equal(one.data, sharded.data)
        assert np.array_equal(one._nnz, sharded._nnz)
        assert np.array_equal(one._active_words, sharded._active_words)
        assert np.array_equal(one._word_active, sharded._word_active)
        assert np.array_equal(one._dense_rows, sharded._dense_rows)


@needs_compiled
class TestBackendDispatchParity:
    """The matrix-level entry points agree at one thread and sharded."""

    @pytest.mark.parametrize("threads", [2, 8])
    def test_knowledge_rounds_match_serial_backend(self, threads):
        def run(backend):
            rng = np.random.default_rng(91)
            km = KnowledgeMatrix(300)
            with backends.use(backend):
                for _ in range(6):
                    callers = np.arange(300, dtype=np.int64)
                    targets = rng.integers(0, 300, 300).astype(np.int64)
                    km.apply_exchange(callers, targets)
                    senders = rng.integers(0, 300, 500).astype(np.int64)
                    receivers = rng.integers(0, 300, 500).astype(np.int64)
                    km.apply_transmissions(senders, receivers)
            return km.data.copy()

        assert np.array_equal(
            run(backends.CBackend(max_threads=1)), run(threaded(threads))
        )

    @pytest.mark.parametrize("threads", [2, 8])
    def test_frontier_matrix_rounds_match(self, threads):
        def run(backend):
            rng = np.random.default_rng(17)
            fk = FrontierKnowledge(260, 70 * 64)
            with backends.use(backend):
                for _ in range(8):
                    senders = rng.integers(0, 260, 260).astype(np.int64)
                    receivers = rng.integers(0, 260, 260).astype(np.int64)
                    fk.apply_transmissions(senders, receivers)
            return fk

        serial = run(backends.CBackend(max_threads=1))
        sharded = run(threaded(threads))
        assert np.array_equal(serial.data, sharded.data)
        assert np.array_equal(serial._dense_rows, sharded._dense_rows)
        assert np.array_equal(serial._nnz, sharded._nnz)

    def test_completion_tracker_matches_reference(self):
        rng = np.random.default_rng(5)
        n = 150
        km = KnowledgeMatrix(n)
        with backends.use(threaded(8)):
            tracker = CompletionTracker(km)
            for _ in range(50):
                senders = rng.integers(0, n, 2 * n).astype(np.int64)
                receivers = rng.integers(0, n, 2 * n).astype(np.int64)
                touched = km.apply_transmissions(senders, receivers)
                tracker.update(touched)
                assert tracker.is_complete() == gossip_complete(km)
                if tracker.is_complete():
                    break
        assert tracker.is_complete()
