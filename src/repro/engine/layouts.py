"""Knowledge-storage layouts and their selection registry.

The dense :class:`~repro.engine.knowledge.KnowledgeMatrix` keeps the whole
``n_nodes x words`` bitset matrix resident, and its compiled exchange
kernels add a swap buffer of the same size, which walls off large problem
sizes: at n = 1M nodes the matrix alone is ~125 GB.  This module provides
the class used over the dense budget, plus the registry that picks between
the two — one stable call surface over interchangeable storage chosen by
problem size, mirroring the kernel-backend registry in
:mod:`repro.engine.backends`:

``PagedKnowledge``
    The plain :class:`~repro.engine.knowledge.KnowledgeMatrix`, without the
    frontier bookkeeping the dense layout adds on wide rows; the class
    itself is only the ``paged`` tag.  Like every storage class, it never
    allocates a second matrix for a push batch: on the compiled kernels the
    batch is applied in place, ordered so that every sender is read before
    anything writes it, with an integer plan of four slots per node and
    two per transmission plus a copy of the few rows that close a cycle.
    Exchange rounds keep the swap buffer resident.  So the memory model
    (push rounds only) peaks near one matrix and the exchange protocols
    near two.

The two layouts run the same kernels on the same rows, so trajectories are
**bit-identical** at every size where dense fits
(``tests/engine/test_layouts.py``).

Memory model (bytes at the peak of a full exchange loop; ``w`` = words =
ceil(n_messages / 64)):

===========  ==========================================================
layout       peak bytes
===========  ==========================================================
dense        ``16 n w`` (matrix + swap buffer) + the CSR buffers of a
             full exchange round (``8 (3 n + 1)``); when ``w >= 96``,
             plus the frontier bookkeeping (``n w + 12 n + 4 n
             ceil(w / 8)``) and its pair buffers (``3 n w``)
paged        ``16 n w + 8 (3 n + 1)``
===========  ==========================================================

``tests/engine/test_layout_boundaries.py`` pins both against the measured
peak of the loop at n = 16384.  Exchange rounds never build the in-place
push plan, so the model leaves it out; a run that pushes first keeps its
``8 (4 n + 2 k)`` bytes resident on top, which the tolerance covers.

Selection: :func:`make_knowledge` resolves ``auto`` to **dense** while the
dense estimate fits the budget (default 1 GiB,
``REPRO_KNOWLEDGE_DENSE_BUDGET``) and **paged** beyond it.
Overrides, strongest first: an explicit ``layout=`` argument, the
:func:`use` scope, then ``REPRO_KNOWLEDGE_LAYOUT`` (``auto`` / ``dense`` /
``paged``).  An empty variable counts as unset.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

from .knowledge import (
    _CROSSOVER,
    _FRONTIER_MIN_WORDS,
    KnowledgeMatrix,
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
#: stay dense (1 GiB keeps everything through n ~ 57.8k dense on the default
#: square problem; n = 100k dense is ~3.2 GB and pages).
DEFAULT_DENSE_BUDGET = 1 << 30

#: Per-scope override installed by :func:`use` (None = no override).
_OVERRIDE: Optional[str] = None


def dense_budget() -> int:
    """Dense-layout byte budget (``REPRO_KNOWLEDGE_DENSE_BUDGET`` or 1 GiB).

    An empty variable counts as unset, like the kernel-backend variables.
    """
    env = os.environ.get("REPRO_KNOWLEDGE_DENSE_BUDGET", "").strip()
    if not env:
        return DEFAULT_DENSE_BUDGET
    try:
        return int(env)
    except ValueError:
        raise ValueError(
            f"REPRO_KNOWLEDGE_DENSE_BUDGET must be an integer byte count, got {env!r}"
        ) from None


def estimate_bytes(
    layout: str, n_nodes: int, n_messages: Optional[int] = None
) -> int:
    """Peak bytes of ``layout`` for an ``n_nodes x n_messages`` problem.

    The peak of a full push–pull exchange loop — the documented memory
    model behind ``auto`` selection (see the module docstring for the
    formulas).
    """
    n = int(n_nodes)
    words = _n_words(n if n_messages is None else int(n_messages))
    if layout not in ("dense", "paged"):
        raise ValueError(f"unknown layout {layout!r} (expected one of {LAYOUTS})")
    # Matrix + swap buffer, and the CSR offsets (n + 1) and incoming edges
    # (2 n) of a full exchange round.
    total = 16 * n * words + 8 * (3 * n + 1)
    if layout == "dense" and words >= _FRONTIER_MIN_WORDS:
        # FrontierKnowledge bookkeeping, plus its pair buffers: two 8-byte
        # arrays of twice the largest sparse batch, which is under
        # ``_CROSSOVER * 2 n w`` pairs.  That bounds them by 8 n w bytes;
        # square exchange loops from n = 6144 to 32768 measured 2-4.1 n w.
        word_cap = min(words, max(4, round(words * _CROSSOVER)))
        total += n * words + 12 * n + 4 * n * word_cap + 3 * n * words
    return total


def resolve_layout(layout: Optional[str] = None) -> str:
    """The layout name in force: explicit > :func:`use` scope > environment.

    Returns one of :data:`LAYOUTS`; ``auto`` means "apply the memory model"
    and is resolved by :func:`make_knowledge`.
    """
    if layout is None:
        layout = _OVERRIDE
    if layout is None:
        layout = os.environ.get("REPRO_KNOWLEDGE_LAYOUT", "").strip() or "auto"
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
) -> KnowledgeMatrix:
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
    """The plain matrix used over the dense budget: a layout tag.

    It is :class:`KnowledgeMatrix` without the frontier bookkeeping that
    the dense layout adds on wide rows.  No push batch allocates a second
    matrix — the compiled backend applies every push batch in place, the
    NumPy backend gathers its unique sender rows — and exchange rounds keep
    the swap buffer resident.  Bit-identical to the dense layout.
    """

    __slots__ = ()

    layout = "paged"
