"""Knowledge-storage layouts and their selection registry.

Every layout is the one :class:`~repro.engine.knowledge.KnowledgeMatrix`:
the whole ``n_nodes x words`` bitset matrix resident, updated by the same
kernels.  The registry names it, mirroring the kernel-backend registry in
:mod:`repro.engine.backends`:

``dense``
    A plain :class:`~repro.engine.knowledge.KnowledgeMatrix`.  What
    ``auto`` picks at every problem size.

``paged``
    :class:`PagedKnowledge`, the same matrix under the ``paged`` tag; the
    class has no method of its own.

Like every storage class, the matrix never allocates a second matrix for a
push batch: on the compiled kernels the batch is applied in place, ordered
so that every sender is read before anything writes it, with an integer
plan of four slots per node and two per transmission plus a copy of the few
rows that close a cycle.  Exchange rounds keep the swap buffer resident.
So the memory model (push rounds only) peaks near one matrix and the
exchange protocols near two.  Trajectories are **bit-identical** under both
names (``tests/engine/test_layouts.py``).

Memory model (bytes at the peak of a full exchange loop; ``w`` = words =
ceil(n_messages / 64)):

===========  ==========================================================
layout       peak bytes
===========  ==========================================================
any          ``16 n w`` (matrix + swap buffer) + the CSR buffers of a
             full exchange round (``8 (3 n + 1)``)
===========  ==========================================================

``tests/engine/test_layout_boundaries.py`` pins it against the measured
peak of the loop at n = 16384.  Exchange rounds never build the in-place
push plan, so the model leaves it out; a run that pushes first keeps its
``8 (4 n + 2 k)`` bytes resident on top, which the tolerance covers.

Selection: :func:`make_knowledge` resolves ``auto`` to **dense**.
Overrides, strongest first: an explicit ``layout=`` argument, the
:func:`use` scope, then ``REPRO_KNOWLEDGE_LAYOUT`` (``auto`` / ``dense`` /
``paged``).  An empty variable counts as unset.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

from .knowledge import KnowledgeMatrix, _n_words

__all__ = [
    "LAYOUTS",
    "PagedKnowledge",
    "estimate_bytes",
    "make_knowledge",
    "resolve_layout",
    "use",
]

#: Recognized layout names (``auto`` resolves to ``dense``).
LAYOUTS = ("auto", "dense", "paged")

#: Per-scope override installed by :func:`use` (None = no override).
_OVERRIDE: Optional[str] = None


def estimate_bytes(n_nodes: int, n_messages: Optional[int] = None) -> int:
    """Peak bytes of an ``n_nodes x n_messages`` problem.

    The peak of a full push–pull exchange loop — the documented memory
    model (see the module docstring): the matrix, its swap buffer, and the
    CSR offsets (``n + 1``) and incoming edges (``2 n``) of a full
    exchange round.
    """
    n = int(n_nodes)
    words = _n_words(n if n_messages is None else int(n_messages))
    return 16 * n * words + 8 * (3 * n + 1)


def resolve_layout(layout: Optional[str] = None) -> str:
    """The layout name in force: explicit > :func:`use` scope > environment.

    Returns one of :data:`LAYOUTS`; :func:`make_knowledge` resolves
    ``auto`` to ``dense``.
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
    """Construct the knowledge storage the resolved layout names.

    ``paged`` gives a :class:`PagedKnowledge`; ``auto`` and ``dense`` give
    a plain :class:`~repro.engine.knowledge.KnowledgeMatrix`.
    """
    if resolve_layout(layout) == "paged":
        return PagedKnowledge(n_nodes, n_messages)
    return KnowledgeMatrix(n_nodes, n_messages)


class PagedKnowledge(KnowledgeMatrix):
    """The plain matrix under the ``paged`` tag.

    It is :class:`KnowledgeMatrix` with no method of its own: no push batch
    allocates a second matrix — the compiled backend applies every push
    batch in place, the NumPy backend gathers its unique sender rows — and
    exchange rounds keep the swap buffer resident.  Bit-identical to the
    dense layout.
    """

    __slots__ = ()

    layout = "paged"
