"""Cross-layout equivalence tests for the pluggable knowledge storage.

The storage contract (:class:`repro.engine.knowledge.KnowledgeStorage`) is
that every layout — dense :class:`KnowledgeMatrix` and block-paged
:class:`PagedKnowledge` — produces **bit-identical trajectories** at every
size where dense fits.  These tests
pin that contract:

* randomized batch operations (``apply_transmissions``, ``apply_exchange``
  with the saturation filter, ``scatter_rows``, element mutators) against
  the dense reference, at block-boundary sizes ``n = block_rows ± 1`` and on
  both the compiled and pure-NumPy kernel paths,
* ``count_missing`` for every layout (including the frontier's
  active-word-set counter) pinned to the plain masked scan,
* whole-protocol trajectory parity across the full layout x backend matrix
  (dense / paged x numpy / c / c-threads),
* the selection registry (env var, ``use`` scope, explicit argument, the
  ``auto`` memory model),
* a sweep interrupted under the dense layout and resumed under the paged
  layout, which must be bit-identical to an uninterrupted dense run.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import _ckernel, backends, layouts
from repro.engine.knowledge import (
    FrontierKnowledge,
    KnowledgeMatrix,
    KnowledgeStorage,
)
from repro.engine.layouts import PagedKnowledge


@pytest.fixture(params=["compiled", "numpy"])
def kernel_path(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setattr(_ckernel, "_LIB", None)
    elif not _ckernel.available():
        pytest.skip("compiled kernel unavailable on this machine")
    return request.param


BLOCK = 16
#: Block-boundary sizes: one block minus/plus one row, and a multi-block n.
BOUNDARY_SIZES = (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)


def make_layouts(n, n_messages=None):
    """One instance of every layout, block sizes forced small."""
    return {
        "dense": KnowledgeMatrix(n, n_messages),
        "paged": PagedKnowledge(n, n_messages, block_rows=BLOCK),
    }


def random_batch(rng, n, size):
    senders = rng.integers(0, n, size).astype(np.int64)
    receivers = rng.integers(0, max(1, n // 2), size).astype(np.int64)
    return senders, receivers


class TestUnitEquivalence:
    """Randomized storage operations match the dense reference bit-for-bit."""

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
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

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
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

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
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

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
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
            store.union_into(int(nodes[1]), extra_row)
            store.union_from_node(int(nodes[2]), int(nodes[1]))
        reference = instances["dense"]
        for name, store in instances.items():
            assert store == reference, f"layout {name} diverged"
            assert store.total_known() == reference.total_known()
            assert np.array_equal(store.counts(), reference.counts())

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
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
            assert np.array_equal(store.row(int(probe[0])), reference[probe[0]])
            assert np.array_equal(
                store.known_messages(int(probe[1])),
                np.flatnonzero(
                    np.unpackbits(
                        reference[probe[1]].view(np.uint8), bitorder="little"
                    )
                ),
            )

    def test_copy_is_independent(self):
        for name, store in make_layouts(40).items():
            clone = store.copy()
            assert clone == store
            clone.add(0, 5)
            assert not store.knows(0, 5), f"layout {name} copy aliases storage"


class TestCountMissingPinned:
    """Every layout's count_missing equals the plain masked dense scan."""

    def reference(self, store: KnowledgeStorage, mask, rows):
        dense = store.data
        return np.bitwise_count(mask[None, :] & ~dense[rows]).sum(
            axis=1, dtype=np.int64
        )

    @pytest.mark.parametrize("n", (BLOCK + 1, 3 * BLOCK + 5))
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

    @pytest.mark.parametrize("seed", range(3))
    def test_frontier_active_word_counter(self, kernel_path, seed):
        # n past the frontier width gate so rows actually live in index form.
        n = 64 * 66
        rng = np.random.default_rng(40 + seed)
        fk = FrontierKnowledge(n)
        senders, receivers = random_batch(rng, n, n)
        fk.apply_transmissions(senders, receivers)
        assert fk.frontier_fraction() > 0.0  # the frontier path is exercised
        mask = fk.full_row_mask()
        rows = rng.integers(0, n, 200).astype(np.int64)
        got = fk.count_missing(mask, rows)
        assert np.array_equal(got, self.reference(fk, mask, rows))


class TestPagedMechanics:
    """Paged-layout internals: block validation and resident footprint."""

    def test_rejects_nonpositive_block_rows(self):
        for block_rows in (0, -4):
            with pytest.raises(ValueError, match="block_rows must be positive"):
                PagedKnowledge(BLOCK, block_rows=block_rows)

    def test_footprint_is_blocks_plus_one_block_of_scratch(self, kernel_path):
        """``8 n w`` of blocks; the compiled CSR scratch is sized per block."""
        n = 3 * BLOCK + 5
        paged = PagedKnowledge(n, block_rows=BLOCK)
        blocks = 8 * n * paged.words
        assert paged.storage_nbytes() == blocks
        assert layouts.estimate_bytes("paged", n, block_rows=BLOCK) == blocks + 16 * BLOCK
        senders, receivers = random_batch(np.random.default_rng(9), n, 3 * n)
        paged.apply_transmissions(senders, receivers)
        # Offsets for one block plus the busiest block's edge list.
        busiest = int(np.bincount(receivers // BLOCK).max())
        scratch = 8 * (BLOCK + 1 + busiest) if kernel_path == "compiled" else 0
        assert paged.storage_nbytes() == blocks + scratch


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

    def test_auto_selection_follows_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_KNOWLEDGE_LAYOUT", raising=False)
        n = 512
        assert isinstance(layouts.make_knowledge(n), KnowledgeMatrix)
        # Shrink the budget below the dense estimate: auto must page.
        monkeypatch.setenv("REPRO_KNOWLEDGE_DENSE_BUDGET", "1024")
        assert isinstance(layouts.make_knowledge(n), PagedKnowledge)

    def test_estimates_are_ordered(self):
        n, m = 100_000, 100_000
        dense = layouts.estimate_bytes("dense", n, m)
        paged = layouts.estimate_bytes("paged", n, m)
        assert paged < dense
        # The paged layout halves the dense matrix+swap footprint.
        assert paged < 0.6 * dense

    def test_block_rows_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_BLOCK", "33")
        pk = PagedKnowledge(100)
        assert pk.block_rows == 33
        assert pk.n_blocks == 4

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
            yield "c", backends.CSerialBackend()
            yield "c-threads[2]", backends.CThreadsBackend(
                max_threads=2, shard_work=1
            )

    @pytest.mark.parametrize("protocol_name", ["push-pull", "fast-gossiping", "memory"])
    def test_all_layouts_all_backends(
        self, small_paper_graph, protocol_name, monkeypatch
    ):
        from repro import FastGossiping, MemoryGossiping, PushPullGossip

        factory = {
            "push-pull": lambda: PushPullGossip(),
            "fast-gossiping": lambda: FastGossiping(),
            "memory": lambda: MemoryGossiping(leader=0),
        }[protocol_name]
        seed = {"push-pull": 21, "fast-gossiping": 22, "memory": 23}[protocol_name]
        # Small blocks so n = 256 spans several blocks per layout.
        monkeypatch.setenv("REPRO_KNOWLEDGE_BLOCK", "100")
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
        # the remainder under the paged layout with small blocks.  The rounds,
        # transmissions and knowledge fingerprints of the re-run pairs must be
        # bit-identical, so the store file converges to the reference bytes.
        lines = file_a.splitlines(keepends=True)
        assert len(lines) == 6  # 3 sizes x 2 repetitions
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "layout-resume.jsonl").write_bytes(
            b"".join(lines[:2]) + lines[2][:40]
        )
        monkeypatch.setenv("REPRO_KNOWLEDGE_LAYOUT", "paged")
        monkeypatch.setenv("REPRO_KNOWLEDGE_BLOCK", "50")
        store_b = ResultStore(tmp_path / "b")
        result_b = run_scenario(spec, config=config, store=store_b, resume=True)
        store_b.close()

        assert (tmp_path / "b" / "layout-resume.jsonl").read_bytes() == file_a
        assert result_b.raw_records == result_a.raw_records
