"""Pluggable knowledge-storage layouts and their selection registry.

The dense :class:`~repro.engine.knowledge.KnowledgeMatrix` keeps the whole
``n_nodes x words`` bitset matrix plus a swap buffer resident, which walls
off large problem sizes: at n = 1M nodes the matrix alone is ~125 GB.  This
module provides the layout that halves that footprint, plus the registry
that picks between the two — one stable call surface over interchangeable
storage chosen by problem size, mirroring the kernel-backend registry in
:mod:`repro.engine.backends`:

``PagedKnowledge``
    The dense layout's contiguous matrix and kernels without a resident
    swap buffer.  Exchange rounds run the swap-form kernels and drop the
    round's next-state buffer afterwards; push-form rounds gather only the
    round's unique sender rows and OR them in place.  Between rounds the
    footprint is ``8 * n * words`` bytes plus the CSR buffers — half the
    dense layout.

The paged layout runs the dense layout's own kernels, so trajectories are
**bit-identical** to the dense layout at every size where dense fits
(``tests/engine/test_layouts.py``).

Memory model (bytes, resident; ``w`` = words = ceil(n_messages / 64)):

===========  ==========================================================
layout       resident bytes
===========  ==========================================================
dense        ``16 n w`` (matrix + swap buffer) + frontier bookkeeping
             (``~n w + 12 n + 4 n ceil(w / 8)``) when ``w >= 96``
paged        ``8 n w`` + the CSR buffers of a full exchange round
             (``8 (3 n + 1)``)
===========  ==========================================================

Selection: :func:`make_knowledge` resolves ``auto`` to **dense** while the
dense estimate fits the budget (default 1 GiB, ``REPRO_KNOWLEDGE_DENSE_BUDGET``)
and **paged** beyond it.  Overrides, strongest first: an explicit ``layout=``
argument, the :func:`use` scope, then ``REPRO_KNOWLEDGE_LAYOUT`` (``auto`` /
``dense`` / ``paged``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

import numpy as np

from .knowledge import (
    _CROSSOVER,
    _FRONTIER_MIN_WORDS,
    KnowledgeMatrix,
    KnowledgeStorage,
    _n_words,
    dense_knowledge,
)

__all__ = [
    "DEFAULT_DENSE_BUDGET",
    "LAYOUTS",
    "PagedKnowledge",
    "dense_budget",
    "estimate_bytes",
    "make_knowledge",
    "resolve_layout",
    "use",
]

#: Recognized layout names (``auto`` resolves through the memory model).
LAYOUTS = ("auto", "dense", "paged")

#: Dense-layout budget for ``auto`` selection: matrices estimated below this
#: stay dense (1 GiB keeps everything through n ~ 60k dense on the default
#: square problem; n = 100k dense is ~2.7 GB and pages).
DEFAULT_DENSE_BUDGET = 1 << 30

#: Per-scope override installed by :func:`use` (None = no override).
_OVERRIDE: Optional[str] = None


def dense_budget() -> int:
    """Dense-layout byte budget (``REPRO_KNOWLEDGE_DENSE_BUDGET`` or 1 GiB)."""
    return int(os.environ.get("REPRO_KNOWLEDGE_DENSE_BUDGET", DEFAULT_DENSE_BUDGET))


def estimate_bytes(
    layout: str, n_nodes: int, n_messages: Optional[int] = None
) -> int:
    """Resident bytes of ``layout`` for an ``n_nodes x n_messages`` problem.

    The documented memory model behind ``auto`` selection (see the module
    docstring for the formulas).
    """
    n = int(n_nodes)
    words = _n_words(n if n_messages is None else int(n_messages))
    if layout == "dense":
        total = 16 * n * words  # matrix + swap buffer
        if words >= _FRONTIER_MIN_WORDS:  # FrontierKnowledge bookkeeping
            word_cap = min(words, max(4, round(words * _CROSSOVER)))
            total += n * words + 12 * n + 4 * n * word_cap
        return total
    if layout == "paged":
        # Matrix + CSR offsets (n + 1) and incoming edges (2 n) of a full
        # exchange round.
        return 8 * n * words + 8 * (3 * n + 1)
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


class PagedKnowledge(KnowledgeMatrix):
    """The dense matrix without a resident swap buffer.

    One contiguous ``(n_nodes, words)`` matrix updated through the dense
    layout's kernels; only the swap-form kernels' next-state buffer is
    given up between rounds:

    * :meth:`apply_exchange` runs the dense exchange — the swap form with
      fused deficits, or gather/scatter on sparse late rounds — then drops
      the round's next-state buffer;
    * :meth:`apply_transmissions` gathers only the round's unique sender
      rows and ORs them in place, so a push-form round needs ``8 u w``
      transient bytes (``u`` unique senders) and never a full next state.

    Bit-identical to the dense layout: the kernels are the same, and the
    gather precedes every write of the round.  Like the dense layout's,
    :meth:`row` views go stale across bulk updates.
    """

    __slots__ = ()

    layout = "paged"

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
        if snapshot is None:
            unique_senders, sender_pos = np.unique(senders, return_inverse=True)
            return self._scatter_or(self.data[unique_senders], sender_pos, receivers)
        return self._scatter_or(snapshot, senders, receivers)

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
        result = super().apply_exchange(
            callers,
            targets,
            complete=complete,
            complete_row=complete_row,
            deficit_mask=deficit_mask,
            deficits_out=deficits_out,
        )
        self._scratch = None
        return result
