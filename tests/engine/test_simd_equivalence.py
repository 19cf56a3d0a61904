"""SIMD-vs-scalar bit-identity for the compiled word-OR kernel families.

The compiled library dispatches its row primitives (row OR, OR-accumulate,
missing-word popcounts, frontier gathers) through function pointers selected
at load time from the CPU: scalar, AVX2 or AVX-512
(``REPRO_DISABLE_SIMD=1`` pins scalar).  The vector forms must be *exactly*
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
  exercise the tail masks of the popcount kernels.

``_SWAP_MIN_WORK`` is forced to 0 so these small matrices take the
swap-form round kernels (plain, saturation-filtered and fused-deficit
variants) exactly like production-size runs do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.completion import CompletionTracker
from repro.engine import _ckernel, backends
from repro.engine import knowledge as knowledge_mod
from repro.engine import (
    FrontierKnowledge,
    KnowledgeMatrix,
    PagedKnowledge,
)

pytestmark = pytest.mark.skipif(
    not _ckernel.available(), reason="no compiled kernel"
)

#: Word counts straddling the 256/512-bit vector widths.
WORD_COUNTS = (1, 7, 63, 64, 65, 127, 128)

LAYOUTS = ("dense", "frontier", "paged")

BACKENDS = ("c", "c-threads")


def _n_messages(words: int) -> int:
    """A message count occupying exactly ``words`` words, ragged tail when odd."""
    return 64 * words - (17 if words % 2 else 0)


def _make(layout: str, n: int, m: int):
    if layout == "dense":
        return KnowledgeMatrix(n, m)
    if layout == "frontier":
        return FrontierKnowledge(n, m)
    return PagedKnowledge(n, m)


def _trajectory(layout: str, words: int, seed: int) -> list:
    """Replay a fixed seeded op sequence; return everything observable.

    The sequence walks every kernel family: a dense transmission round
    (swap push kernel), a sparse one (snapshot + scatter kernel), an
    unfiltered exchange with fused deficits, a saturation-filtered
    exchange, an external-row scatter, and a standalone deficit recount.
    """
    rng = np.random.default_rng(seed)
    n = 33
    m = _n_messages(words)
    storage = _make(layout, n, m)
    everyone = np.arange(n, dtype=np.int64)
    out = []

    def snap():
        out.append(storage.rows(everyone).tobytes())

    # Dense transmission batch with receiver collisions -> swap-form round.
    senders = rng.integers(0, n, 2 * n).astype(np.int64)
    receivers = rng.integers(0, n, 2 * n).astype(np.int64)
    storage.apply_transmissions(senders, receivers)
    snap()

    # Sparse batch (size * 4 < n) -> snapshot gather + scatter-OR kernel.
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
    touched, promoted = storage.apply_exchange(
        callers,
        targets,
        deficit_mask=tracker.mask,
        deficits_out=tracker.deficits,
    )
    if layout != "frontier":
        # The swap kernel fuses the recount; the frontier's sparse rounds
        # recount via the tracker.
        assert storage.fused_deficits
    if storage.fused_deficits:
        tracker.refresh()
    else:
        tracker.update(touched)
        tracker.mark_promoted(promoted)
    out.append(tracker.deficits.tobytes())
    snap()

    # Saturate a minority of rows, then a filtered exchange (live majority
    # keeps the filtered swap kernel on) with fused deficits.
    full = storage.full_row_mask()
    saturated = np.asarray([0, 7, 13], dtype=np.int64)
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
    if storage.fused_deficits:
        tracker.refresh()
    else:
        tracker.update(touched)
        tracker.mark_promoted(promoted)
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
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("words", WORD_COUNTS)
def test_all_levels_bit_identical(words, layout, backend, monkeypatch):
    if _ckernel.simd_detected() == 0:
        pytest.skip("CPU supports no SIMD level beyond scalar")
    monkeypatch.setattr(knowledge_mod, "_SWAP_MIN_WORK", 0)
    original = _ckernel.simd_active()
    try:
        with backends.use(backend):
            reference = None
            for level in range(_ckernel.simd_detected() + 1):
                assert _ckernel.set_simd_level(level) == level
                got = _trajectory(layout, words, seed=words * 101)
                if reference is None:
                    reference = got
                elif got != reference:
                    bad = [i for i, (a, b) in enumerate(zip(reference, got)) if a != b]
                    pytest.fail(
                        f"{_ckernel.simd_name(level)} diverged from scalar on "
                        f"layout={layout} words={words} "
                        f"backend={backend} at observation(s) {bad}"
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
