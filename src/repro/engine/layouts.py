"""Pluggable knowledge-storage layouts and their selection registry.

The dense :class:`~repro.engine.knowledge.KnowledgeMatrix` keeps the whole
``n_nodes x words`` bitset matrix (plus a swap buffer) resident, which walls
off large problem sizes: at n = 1M nodes the matrix alone is ~125 GB.  This
module provides the layout that breaks that wall, plus the registry that
picks between the two — one stable call surface over interchangeable storage
backends chosen by problem size, mirroring the kernel-backend registry in
:mod:`repro.engine.backends`:

``PagedKnowledge``
    Receiver rows split into fixed-size row-blocks (``block_rows`` rows per
    block, default 4096).  A round gathers *all* unique sender rows first,
    then streams each touched block through the block-addressed CSR kernels;
    blocks not named by the round's edge set are never read or written.  The
    resident footprint is ``8 * n * words`` bytes — half the dense layout,
    which also keeps a full swap buffer — and, more importantly, rounds only
    dirty the pages they touch.

The paged layout implements the gather-all-then-write-all schedule, so — OR
being commutative — trajectories are **bit-identical** to the dense layout
at every size where dense fits (``tests/engine/test_layouts.py``).

Memory model (bytes, resident; ``w`` = words = ceil(n_messages / 64)):

===========  ==========================================================
layout       resident bytes
===========  ==========================================================
dense        ``16 n w`` (matrix + swap buffer) + frontier bookkeeping
             (``~n w + 12 n + 4 n ceil(w / 8)``) when ``w >= 64``
paged        ``8 n w`` + one CSR scratch (``~16 block_rows``)
===========  ==========================================================

Selection: :func:`make_knowledge` resolves ``auto`` to **dense** while the
dense estimate fits the budget (default 1 GiB, ``REPRO_KNOWLEDGE_DENSE_BUDGET``)
and **paged** beyond it.  Overrides, strongest first: an explicit ``layout=``
argument, the :func:`use` scope, then ``REPRO_KNOWLEDGE_LAYOUT`` (``auto`` /
``dense`` / ``paged``).  ``REPRO_KNOWLEDGE_BLOCK`` sets the paged block row
count.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import backends
from .knowledge import (
    _CROSSOVER,
    WORD_BITS,
    KnowledgeStorage,
    _layered_scatter,
    _n_words,
    _WORD_DTYPE,
    dense_knowledge,
)

__all__ = [
    "DEFAULT_BLOCK_ROWS",
    "DEFAULT_DENSE_BUDGET",
    "LAYOUTS",
    "PagedKnowledge",
    "default_block_rows",
    "dense_budget",
    "estimate_bytes",
    "make_knowledge",
    "resolve_layout",
    "use",
]

#: Recognized layout names (``auto`` resolves through the memory model).
LAYOUTS = ("auto", "dense", "paged")

#: Rows per block for the paged layout.  4096 rows x 196 words
#: (n = 12.5k messages) is ~6.4 MB per block — big enough to amortize the
#: per-block CSR build, small enough that skipped blocks save real traffic.
DEFAULT_BLOCK_ROWS = 4096

#: Dense-layout budget for ``auto`` selection: matrices estimated below this
#: stay dense (1 GiB keeps everything through n ~ 60k dense on the default
#: square problem; n = 100k dense is ~2.7 GB and pages).
DEFAULT_DENSE_BUDGET = 1 << 30

#: Per-scope override installed by :func:`use` (None = no override).
_OVERRIDE: Optional[str] = None


def default_block_rows() -> int:
    """Block row count (``REPRO_KNOWLEDGE_BLOCK`` or 4096)."""
    return int(os.environ.get("REPRO_KNOWLEDGE_BLOCK", DEFAULT_BLOCK_ROWS))


def dense_budget() -> int:
    """Dense-layout byte budget (``REPRO_KNOWLEDGE_DENSE_BUDGET`` or 1 GiB)."""
    return int(os.environ.get("REPRO_KNOWLEDGE_DENSE_BUDGET", DEFAULT_DENSE_BUDGET))


def estimate_bytes(
    layout: str,
    n_nodes: int,
    n_messages: Optional[int] = None,
    block_rows: Optional[int] = None,
) -> int:
    """Resident bytes of ``layout`` for an ``n_nodes x n_messages`` problem.

    The documented memory model behind ``auto`` selection (see the module
    docstring for the formulas).
    """
    n = int(n_nodes)
    words = _n_words(n if n_messages is None else int(n_messages))
    if block_rows is None:
        block_rows = default_block_rows()
    if layout == "dense":
        total = 16 * n * words  # matrix + swap buffer
        if words >= 64:  # frontier bookkeeping (FrontierKnowledge)
            word_cap = min(words, max(4, round(words * _CROSSOVER)))
            total += n * words + 12 * n + 4 * n * word_cap
        return total
    if layout == "paged":
        return 8 * n * words + 16 * min(block_rows, n)
    raise ValueError(f"unknown layout {layout!r} (expected one of {LAYOUTS})")


def resolve_layout(layout: Optional[str] = None) -> str:
    """The layout name in force: explicit > :func:`use` scope > environment.

    Returns one of :data:`LAYOUTS`; ``auto`` means "apply the memory model"
    and is resolved by :func:`make_knowledge`.
    """
    if layout is None:
        layout = _OVERRIDE
    if layout is None:
        layout = os.environ.get("REPRO_KNOWLEDGE_LAYOUT", "auto")
    layout = layout.lower()
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r} (expected one of {LAYOUTS})")
    return layout


@contextmanager
def use(layout: str):
    """Force ``layout`` for every :func:`make_knowledge` call in the scope.

    Mirrors :func:`repro.engine.backends.use`.  An explicit ``layout=``
    argument still wins; the environment variable is overridden.
    """
    global _OVERRIDE
    if layout is not None and layout.lower() not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r} (expected one of {LAYOUTS})")
    previous = _OVERRIDE
    _OVERRIDE = layout
    try:
        yield
    finally:
        _OVERRIDE = previous


def make_knowledge(
    n_nodes: int,
    n_messages: Optional[int] = None,
    layout: Optional[str] = None,
) -> KnowledgeStorage:
    """Construct the knowledge storage the resolved layout prescribes.

    ``auto`` picks dense while :func:`estimate_bytes` fits :func:`dense_budget`
    and paged beyond.
    """
    choice = resolve_layout(layout)
    if choice == "auto":
        if estimate_bytes("dense", n_nodes, n_messages) <= dense_budget():
            choice = "dense"
        else:
            choice = "paged"
    if choice == "dense":
        return dense_knowledge(n_nodes, n_messages)
    return PagedKnowledge(n_nodes, n_messages)


class PagedKnowledge(KnowledgeStorage):
    """Knowledge rows split into fixed-size row-blocks, updated block-wise.

    Each block is a contiguous ``(block_rows, words)`` dense array.  A round
    gathers every unique sender row *before* any write (the snapshot-round
    discipline), then streams the touched blocks through the block-addressed
    CSR kernel of the active backend — duplicate receivers within a block are
    merged exactly like the dense swap-form round.  Blocks no receiver of the
    round falls into are skipped entirely.

    Bit-identical to the dense layout: the gathered rows equal the dense
    snapshot rows, and OR-merging is order-independent.
    """

    __slots__ = ("block_rows", "n_blocks", "_blocks", "_csr_off", "_csr_adj")

    layout = "paged"

    def __init__(
        self,
        n_nodes: int,
        n_messages: Optional[int] = None,
        *,
        initialize_own: bool = True,
        block_rows: Optional[int] = None,
    ) -> None:
        super().__init__(n_nodes, n_messages)
        if block_rows is None:
            block_rows = default_block_rows()
        if block_rows <= 0:
            raise ValueError(f"block_rows must be positive, got {block_rows}")
        self.block_rows = int(min(block_rows, self.n_nodes))
        self.n_blocks = -(-self.n_nodes // self.block_rows)
        self._blocks: List[np.ndarray] = []
        for b in range(self.n_blocks):
            rows = min(self.block_rows, self.n_nodes - b * self.block_rows)
            self._blocks.append(np.zeros((rows, self.words), dtype=_WORD_DTYPE))
        #: Reusable CSR scratch for the block kernels (sized to one block).
        self._csr_off: Optional[np.ndarray] = None
        self._csr_adj: Optional[np.ndarray] = None
        if initialize_own:
            upto = min(self.n_nodes, self.n_messages)
            idx = np.arange(upto)
            for b, start, block in self._enumerate():
                sel = idx[(idx >= start) & (idx < start + block.shape[0])]
                if sel.size:
                    block[sel - start, sel // WORD_BITS] |= np.left_shift(
                        np.uint64(1), (sel % WORD_BITS).astype(_WORD_DTYPE)
                    )

    # ------------------------------------------------------------------ #
    # Block addressing
    # ------------------------------------------------------------------ #
    def _enumerate(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        for b, block in enumerate(self._blocks):
            yield b, b * self.block_rows, block

    def iter_blocks(self) -> Iterator[Tuple[int, np.ndarray]]:
        for _b, start, block in self._enumerate():
            yield start, block

    def _csr_buffers(self, edges: int) -> "tuple[np.ndarray, np.ndarray]":
        if self._csr_off is None:
            self._csr_off = np.empty(self.block_rows + 1, dtype=np.int64)
        if self._csr_adj is None or self._csr_adj.size < edges:
            self._csr_adj = np.empty(edges, dtype=np.int64)
        return self._csr_off, self._csr_adj

    # ------------------------------------------------------------------ #
    # Storage primitives
    # ------------------------------------------------------------------ #
    def rows(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        out = np.empty((nodes.size, self.words), dtype=_WORD_DTYPE)
        blk = nodes // self.block_rows
        for b in np.unique(blk):
            sel = blk == b
            out[sel] = self._blocks[b][nodes[sel] - b * self.block_rows]
        return out

    def row(self, node: int) -> np.ndarray:
        """Live view of ``node``'s row (valid until the next bulk update)."""
        return self._blocks[node // self.block_rows][node % self.block_rows]

    def assign_rows(self, nodes: np.ndarray, row: np.ndarray) -> None:
        nodes = np.asarray(nodes, dtype=np.int64)
        blk = nodes // self.block_rows
        for b in np.unique(blk):
            sel = blk == b
            self._blocks[b][nodes[sel] - b * self.block_rows] = row

    def copy(self) -> "PagedKnowledge":
        clone = PagedKnowledge.empty(self.n_nodes, self.n_messages)
        clone.block_rows = self.block_rows
        clone.n_blocks = self.n_blocks
        clone._blocks = [block.copy() for block in self._blocks]
        return clone

    def storage_nbytes(self) -> int:
        total = sum(block.nbytes for block in self._blocks)
        for buf in (self._csr_off, self._csr_adj):
            if buf is not None:
                total += buf.nbytes
        return total

    # ------------------------------------------------------------------ #
    # Element mutators
    # ------------------------------------------------------------------ #
    def add(self, node: int, message: int) -> None:
        self._check_message(message)
        self.row(node)[message // WORD_BITS] |= self._bit(message)

    def add_many(self, nodes: np.ndarray, message: int) -> None:
        self._check_message(message)
        nodes = np.asarray(nodes, dtype=np.int64)
        if not nodes.size:
            return
        word, bit = message // WORD_BITS, self._bit(message)
        blk = nodes // self.block_rows
        for b in np.unique(blk):
            sel = blk == b
            self._blocks[b][nodes[sel] - b * self.block_rows, word] |= bit

    def union_into(self, dst: int, src_row: np.ndarray) -> None:
        self.row(dst)[:] |= src_row

    def union_from_node(
        self, dst: int, src: int, snapshot: Optional[np.ndarray] = None
    ) -> None:
        source = self.row(src).copy() if snapshot is None else snapshot[src]
        self.row(dst)[:] |= source

    # ------------------------------------------------------------------ #
    # Bulk updates
    # ------------------------------------------------------------------ #
    def _apply_batch(
        self, source: np.ndarray, src_idx: np.ndarray, receivers: np.ndarray
    ) -> None:
        """Stream gathered source rows into the touched blocks.

        ``source`` must be storage disjoint from this object's blocks (a
        gather copy or an external snapshot), so per-block scatters are
        order-independent; blocks without receivers are skipped.
        """
        if receivers.size == 0:
            return
        backend = backends.active()
        compiled = backend.use_compiled()
        if compiled:
            source = np.ascontiguousarray(source)
        blk = receivers // self.block_rows
        for b in np.unique(blk):
            sel = blk == b
            local = receivers[sel] - b * self.block_rows
            block = self._blocks[b]
            if compiled:
                off, adj = self._csr_buffers(local.size)
                backend.block_round(
                    block,
                    source,
                    np.ascontiguousarray(src_idx[sel]),
                    np.ascontiguousarray(local),
                    off,
                    adj,
                )
            else:
                _layered_scatter(block, source, src_idx[sel], local)

    def scatter_rows(
        self, source: np.ndarray, src_idx: np.ndarray, receivers: np.ndarray
    ) -> None:
        self._apply_batch(
            np.asarray(source),
            np.asarray(src_idx, dtype=np.int64),
            np.asarray(receivers, dtype=np.int64),
        )

    def apply_transmissions(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        snapshot: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        if senders.shape != receivers.shape:
            raise ValueError("senders and receivers must have identical shapes")
        if senders.size == 0:
            return np.zeros(0, dtype=np.int64)
        if snapshot is not None:
            self._apply_batch(snapshot, senders, receivers)
            return receivers
        # Gather ALL unique sender rows before any block is written — the
        # snapshot-round discipline that makes block streaming bit-identical.
        unique_senders, sender_pos = np.unique(senders, return_inverse=True)
        self._apply_batch(self.rows(unique_senders), sender_pos, receivers)
        return receivers

    def apply_exchange(
        self,
        callers: np.ndarray,
        targets: np.ndarray,
        *,
        complete: Optional[np.ndarray] = None,
        complete_row: Optional[np.ndarray] = None,
        deficit_mask: Optional[np.ndarray] = None,
        deficits_out: Optional[np.ndarray] = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        # The block-streamed layout has no swap-form kernel to fuse the
        # recount into; deficit_mask/deficits_out are accepted for interface
        # parity and ignored (fused_deficits stays false, callers recount).
        callers = np.asarray(callers, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if callers.shape != targets.shape:
            raise ValueError("callers and targets must have identical shapes")
        empty = np.zeros(0, dtype=np.int64)
        self.fused_deficits = False
        if callers.size == 0:
            return empty, empty
        if complete is not None and not complete.any():
            complete = None
        push_s, push_r, pull_s, pull_r, promoted = self._filter_exchange(
            callers, targets, complete
        )
        touched = empty
        if push_r.size or pull_r.size:
            all_r = np.concatenate([push_r, pull_r])
            unique_senders, pos = np.unique(
                np.concatenate([push_s, pull_s]), return_inverse=True
            )
            self._apply_batch(self.rows(unique_senders), pos, all_r)
            touched = all_r
        if promoted.size:
            self.assign_rows(promoted, complete_row)
        return touched, promoted

    # ------------------------------------------------------------------ #
    # Queries with a block-addressed fast path
    # ------------------------------------------------------------------ #
    def count_missing(self, mask: np.ndarray, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.zeros(0, dtype=np.int64)
        backend = backends.active()
        if not backend.use_compiled():
            return super().count_missing(mask, rows)
        out = np.empty(rows.size, dtype=np.int64)
        blk = rows // self.block_rows
        for b in np.unique(blk):
            sel = blk == b
            out[sel] = backend.recount_deficits(
                self._blocks[b],
                mask,
                np.ascontiguousarray(rows[sel] - b * self.block_rows),
            )
        return out
