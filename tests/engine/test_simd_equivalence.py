"""SIMD-vs-scalar bit-identity for the compiled word-OR kernel families.

The compiled library dispatches its row primitives (row OR, OR-accumulate,
missing-word popcounts) through function pointers selected at load time
from the CPU: scalar, AVX2 or AVX-512 (``REPRO_DISABLE_SIMD=1`` pins
scalar).  The vector forms must be *exactly*
the scalar forms, only wider — these tests replay identical op sequences at
every level the host supports and require bit-identical storage states,
deficit counts and fused in-kernel recounts.

Shapes are chosen to hit the awkward cases:

* word counts 1, 7, 63, 64, 65, 127 and 128 — below, at and just past each
  vector width (4/8 words per 256/512-bit register), with ragged
  tails that no vector stride covers evenly;
* odd word counts give *unaligned* row starts: row ``r`` begins at byte
  ``r * words * 8``, so e.g. 7-word rows never repeat the 32/64-byte
  alignment of row 0 and the kernels must use unaligned loads throughout;
* partially-filled last words (``n_messages`` not a multiple of 64)
  exercise the tail masks of the popcount kernels;
* two node counts, odd and even, split the sharded batches differently.

These small matrices take the same kernels as production-size runs: the
in-place push, and the one swap-form exchange kernel with and without the
saturation filter and the fused deficit recount.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.completion import CompletionTracker
from repro.engine import _ckernel, backends
from repro.engine import KnowledgeMatrix

pytestmark = pytest.mark.skipif(
    not _ckernel.available(), reason="no compiled kernel"
)

#: Word counts straddling the 256/512-bit vector widths.
WORD_COUNTS = (1, 7, 63, 64, 65, 127, 128)

#: The compiled kernels on one thread, and forced to two shards on every
#: batch — the sharded scatter runs on the same SIMD row primitives.
BACKENDS = {
    "c": backends.CBackend(max_threads=1),
    "c-sharded": backends.CBackend(max_threads=2, shard_work=1),
}


#: Node counts of the replayed states: odd (33) and even (80).
NODE_COUNTS = (33, 80)


def _n_messages(words: int) -> int:
    """A message count occupying exactly ``words`` words, ragged tail when odd."""
    return 64 * words - (17 if words % 2 else 0)


def _trajectory(words: int, seed: int, n: int) -> list:
    """Replay a fixed seeded op sequence; return everything observable.

    The sequence walks every kernel family: a dense transmission round and
    a sparse one (both on the in-place push kernel), an unfiltered
    exchange with fused deficits, a saturation-filtered
    exchange (filtered swap kernel), an external-row scatter, a standalone
    deficit recount, and a filtered exchange with few live rows (gather +
    scatter kernel).
    """
    rng = np.random.default_rng(seed)
    m = _n_messages(words)
    storage = KnowledgeMatrix(n, m)
    everyone = np.arange(n, dtype=np.int64)
    out = []

    def snap():
        out.append(storage.rows(everyone).tobytes())

    # Dense transmission batch with receiver collisions.
    senders = rng.integers(0, n, 2 * n).astype(np.int64)
    receivers = rng.integers(0, n, 2 * n).astype(np.int64)
    storage.apply_transmissions(senders, receivers)
    snap()

    # Sparse batch: two transmissions.
    storage.apply_transmissions(
        np.asarray([1, 2], dtype=np.int64), np.asarray([3, 5], dtype=np.int64)
    )
    snap()

    # Unfiltered exchange with the fused in-kernel deficit recount.
    tracker = CompletionTracker(storage)
    callers = np.arange(0, n, 2, dtype=np.int64)
    targets = np.asarray(
        [(c + 1) % n for c in callers], dtype=np.int64
    )
    storage.apply_exchange(
        callers,
        targets,
        deficit_mask=tracker.mask,
        deficits_out=tracker.deficits,
    )
    # The swap kernel fuses the recount.
    assert storage.fused_deficits
    tracker.refresh()
    out.append(tracker.deficits.tobytes())
    snap()

    # Saturate a minority of rows, then a filtered exchange (live majority
    # keeps the filtered swap kernel on) with fused deficits.
    full = storage.full_row_mask()
    saturated = np.asarray([0, 7, 13], dtype=np.int64)
    storage.assign_rows(saturated, full)
    tracker.mark_promoted(saturated)
    _, promoted = storage.apply_exchange(
        callers,
        targets,
        complete=tracker.complete_rows,
        complete_row=tracker.mask,
        deficit_mask=tracker.mask,
        deficits_out=tracker.deficits,
    )
    # The filtered swap kernel takes it and fuses the recount.
    assert storage.fused_deficits
    tracker.refresh()
    out.append(np.sort(np.asarray(promoted)).tobytes())
    out.append(tracker.deficits.tobytes())
    out.append(dict(storage.filter_stats))
    snap()

    # External-row scatter (the broadcast/replay primitive).
    source = np.stack(
        [storage.row_with([0, min(5, m - 1)]), storage.row_with([m - 1])]
    )
    storage.scatter_rows(
        source,
        np.asarray([0, 1, 0], dtype=np.int64),
        np.asarray([4, 9, 9], dtype=np.int64),
    )
    snap()

    # Standalone missing-word popcount over every row.
    out.append(storage.count_missing(full, everyone).tobytes())

    # Saturate all but four rows: a filtered round with under half its rows
    # live gathers its surviving edges and scatters them, unfused.
    saturated = np.arange(4, n, dtype=np.int64)
    storage.assign_rows(saturated, full)
    tracker.mark_promoted(saturated)
    touched, promoted = storage.apply_exchange(
        callers,
        targets,
        complete=tracker.complete_rows,
        complete_row=tracker.mask,
        deficit_mask=tracker.mask,
        deficits_out=tracker.deficits,
    )
    assert not storage.fused_deficits
    tracker.update(touched)
    tracker.mark_promoted(promoted)
    out.append(tracker.deficits.tobytes())
    snap()
    return out


#: The compiled knowledge entry points, by their ``_ckernel`` names.
KNOWLEDGE_KERNELS = (
    "exchange",
    "scatter_or",
    "push_in_place",
    "recount_deficits",
)


def test_trajectories_reach_every_knowledge_kernel(monkeypatch):
    """These small matrices reach every compiled knowledge kernel, unforced.

    Each ``_ckernel`` entry point is wrapped to count its calls, keyed by
    whether a saturation-filtered ``apply_exchange`` made them, so a kernel
    (or a branch of the filtered exchange) that small matrices stopped
    reaching would leave its word loops untested at every SIMD level.
    """
    calls = Counter()
    caller = []
    for name in KNOWLEDGE_KERNELS:

        def counted(*args, _kernel=getattr(_ckernel, name), _name=name, **kwargs):
            calls[caller[-1] if caller else "other", _name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(_ckernel, name, counted)
    exchange = KnowledgeMatrix.apply_exchange

    def tracked(self, callers, targets, **kwargs):
        caller.append("filtered" if kwargs.get("complete") is not None else "other")
        try:
            return exchange(self, callers, targets, **kwargs)
        finally:
            caller.pop()

    monkeypatch.setattr(KnowledgeMatrix, "apply_exchange", tracked)
    with backends.use(BACKENDS["c"]):
        for n in NODE_COUNTS:
            for words in WORD_COUNTS:
                _trajectory(words, seed=words * 101, n=n)
    assert {name for _, name in calls} == set(KNOWLEDGE_KERNELS)
    # Both branches of the filtered exchange, and the unfiltered swap form.
    assert calls["filtered", "exchange"] > 0
    assert calls["other", "exchange"] > 0
    assert calls["filtered", "scatter_or"] > 0


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("n", NODE_COUNTS)
@pytest.mark.parametrize("words", WORD_COUNTS)
def test_all_levels_bit_identical(words, n, backend):
    if _ckernel.simd_detected() == 0:
        pytest.skip("CPU supports no SIMD level beyond scalar")
    original = _ckernel.simd_active()
    try:
        with backends.use(BACKENDS[backend]):
            reference = None
            for level in range(_ckernel.simd_detected() + 1):
                assert _ckernel.set_simd_level(level) == level
                got = _trajectory(words, seed=words * 101, n=n)
                if reference is None:
                    reference = got
                elif got != reference:
                    bad = [i for i, (a, b) in enumerate(zip(reference, got)) if a != b]
                    pytest.fail(
                        f"{_ckernel.simd_name(level)} diverged from scalar on "
                        f"words={words} n={n} backend={backend} at observation(s) {bad}"
                    )
    finally:
        _ckernel.set_simd_level(original)


def test_set_simd_level_clamps_and_reports():
    detected = _ckernel.simd_detected()
    original = _ckernel.simd_active()
    try:
        assert _ckernel.set_simd_level(99) == detected
        assert _ckernel.simd_active() == detected
        assert _ckernel.set_simd_level(-3) == 0
        assert _ckernel.simd_name(0) == "scalar"
        assert _ckernel.simd_name(detected) == _ckernel.SIMD_LEVELS[detected]
    finally:
        _ckernel.set_simd_level(original)


@pytest.mark.parametrize("level,name", list(enumerate(_ckernel.SIMD_LEVELS)))
def test_each_level_installs_under_its_name(level, name):
    """Python's level names index the C dispatch levels one to one."""
    original = _ckernel.simd_active()
    try:
        installed = _ckernel.set_simd_level(level)
        assert installed == _ckernel.simd_active() == min(level, _ckernel.simd_detected())
        assert _ckernel.simd_name(level) == name
        assert backends.simd_info()["active"] == _ckernel.SIMD_LEVELS[installed]
    finally:
        _ckernel.set_simd_level(original)


def test_simd_info_shape():
    info = backends.simd_info()
    assert set(info) == {"active", "detected", "disabled"}
    assert info["active"] in _ckernel.SIMD_LEVELS
    assert info["detected"] in _ckernel.SIMD_LEVELS
    assert isinstance(info["disabled"], bool)


def test_whole_protocol_runs_identical_across_levels():
    """Full protocol trajectories are invariant under the SIMD level."""
    if _ckernel.simd_detected() == 0:
        pytest.skip("CPU supports no SIMD level beyond scalar")
    from repro import FastGossiping, PushPullGossip, erdos_renyi
    from repro.graphs import paper_edge_probability

    n = 192
    graph = erdos_renyi(n, paper_edge_probability(n), rng=4, require_connected=True)
    original = _ckernel.simd_active()
    try:
        for cls, seed in ((PushPullGossip, 31), (FastGossiping, 32)):
            reference = None
            for level in range(_ckernel.simd_detected() + 1):
                _ckernel.set_simd_level(level)
                result = cls().run(graph, rng=seed)
                summary = (result.rounds, result.completed, result.ledger.total())
                if reference is None:
                    reference = (summary, result.knowledge)
                else:
                    assert summary == reference[0], (
                        f"{cls.__name__} diverged at level {_ckernel.simd_name(level)}"
                    )
                    assert result.knowledge == reference[1]
    finally:
        _ckernel.set_simd_level(original)
