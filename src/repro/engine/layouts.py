"""The storage tag hook of the frozen benchmark (``bench/``).

The engine has one knowledge representation,
:class:`~repro.engine.knowledge.KnowledgeMatrix`.  This module keeps only
the names the benchmark imports:

* its ``paged-32k`` workload runs under ``use("paged")`` and checks that
  each run's storage class carries the ``paged`` tag, which
  :class:`PagedKnowledge` is: the matrix under that tag, with no method of
  its own, so every trajectory is bit-identical under it;
* its tracer wraps :func:`make_knowledge`, which
  :func:`~repro.engine.knowledge.adaptive_knowledge` calls once per run.

The next change to the benchmark points its check and its tracer at
:class:`~repro.engine.knowledge.KnowledgeMatrix` and deletes this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .knowledge import KnowledgeMatrix

__all__ = ["PagedKnowledge", "make_knowledge", "use"]


class PagedKnowledge(KnowledgeMatrix):
    """:class:`KnowledgeMatrix` under the ``paged`` tag; no method of its own."""

    __slots__ = ()

    layout = "paged"


#: The class :func:`make_knowledge` builds.
_active = KnowledgeMatrix


@contextmanager
def use(layout: str):
    """Build :class:`PagedKnowledge` in the scope; ``layout`` must be ``"paged"``."""
    global _active
    if layout != PagedKnowledge.layout:
        raise ValueError(f"unknown layout {layout!r} (expected 'paged')")
    previous, _active = _active, PagedKnowledge
    try:
        yield
    finally:
        _active = previous


def make_knowledge(n_nodes: int, n_messages: Optional[int] = None) -> KnowledgeMatrix:
    """A fresh knowledge state: a :class:`KnowledgeMatrix` outside a :func:`use` scope."""
    return _active(n_nodes, n_messages)
