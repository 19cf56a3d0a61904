"""Gossiping completion predicates.

Gossiping is *complete* when every node knows every original message.  Under
crash failures the sensible target (and the one the paper's robustness study
uses) is restricted to healthy nodes: a failed node's original message may be
lost and failed nodes do not need to learn anything, so completion means every
alive node knows the original message of every alive node.

Two forms are provided: the one-shot predicates (:func:`gossip_complete`,
:func:`missing_pairs`) that rescan the matrix, and the incremental
:class:`CompletionTracker` that protocols keep on the hot path.  The tracker
recounts only the receiver rows a round actually touched — fed with the
(possibly duplicated) receiver multiset the knowledge-storage batch kernels
return — and its per-row recount delegates to
:meth:`~repro.engine.knowledge.KnowledgeMatrix.count_missing`, which
dispatches through the active :mod:`repro.engine.backends` backend,
without this module ever touching raw row storage.

:func:`exchange_rounds` is the push–pull loop around the tracker: it applies
the rounds of either clock's round source (:mod:`repro.engine.channels`)
until gossiping completes.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..engine.channels import ChannelRound
from ..engine.knowledge import WORD_BITS, KnowledgeMatrix
from ..engine.metrics import TransmissionLedger
from ..engine.trace import SpreadingTrace

__all__ = [
    "CompletionTracker",
    "alive_message_mask",
    "exchange_rounds",
    "gossip_complete",
    "missing_pairs",
]


def alive_message_mask(knowledge: KnowledgeMatrix, alive_nodes: np.ndarray) -> np.ndarray:
    """Packed bitset row with one bit set per alive node's original message."""
    mask = np.zeros(knowledge.words, dtype=np.uint64)
    alive_nodes = np.asarray(alive_nodes, dtype=np.int64)
    relevant = alive_nodes[alive_nodes < knowledge.n_messages]
    if relevant.size:
        np.bitwise_or.at(
            mask,
            relevant // WORD_BITS,
            np.left_shift(np.uint64(1), (relevant % WORD_BITS).astype(np.uint64)),
        )
    return mask


def gossip_complete(
    knowledge: KnowledgeMatrix, alive_nodes: Optional[np.ndarray] = None
) -> bool:
    """Whether gossiping has completed.

    Parameters
    ----------
    knowledge:
        The current knowledge state.
    alive_nodes:
        Nodes considered healthy.  Defaults to all nodes, in which case the
        predicate is the plain "everyone knows everything" check.
    """
    if alive_nodes is None or alive_nodes.size == knowledge.n_nodes:
        return knowledge.is_complete()
    alive_nodes = np.asarray(alive_nodes, dtype=np.int64)
    mask = alive_message_mask(knowledge, alive_nodes)
    return not knowledge.count_missing(mask, alive_nodes).any()


class CompletionTracker:
    """Incrementally maintained gossiping-completion predicate.

    ``gossip_complete`` rescans the entire ``n x words`` matrix, which makes
    an every-round completion check ``O(n^2 / 64)``.  This tracker instead
    maintains the per-node *deficit* — the number of required messages a node
    does not yet know — and only recounts the rows actually touched during a
    round: the receiver multiset returned by
    :meth:`~repro.engine.knowledge.KnowledgeMatrix.apply_transmissions` /
    :meth:`~repro.engine.knowledge.KnowledgeMatrix.apply_exchange` (which may
    be unsorted and contain duplicates — :meth:`update` deduplicates with a
    boolean scatter).  The per-round cost is therefore
    ``O(receivers * words)`` and the verdict itself is ``O(1)``.

    The tracker answers exactly the same question as
    ``gossip_complete(knowledge, alive_nodes)``: with ``alive_nodes`` given,
    completion means every alive node knows every alive node's original
    message; without it, every node must know every message.

    Parameters
    ----------
    knowledge:
        The knowledge state to track.  The tracker reads the live matrix, so
        it must be told about every mutation via :meth:`update`, or make the
        exchange itself through :meth:`exchange`.
    alive_nodes:
        Optional array of healthy nodes (the robustness setting).
    """

    __slots__ = ("knowledge", "mask", "deficits", "incomplete", "_complete", "_relevant")

    def __init__(
        self, knowledge: KnowledgeMatrix, alive_nodes: Optional[np.ndarray] = None
    ) -> None:
        self.knowledge = knowledge
        if alive_nodes is None or alive_nodes.size == knowledge.n_nodes:
            self.mask = knowledge.full_row_mask()
            self._relevant = None
            deficits = self._recount(np.arange(knowledge.n_nodes, dtype=np.int64))
            complete = deficits == 0
        else:
            alive_nodes = np.asarray(alive_nodes, dtype=np.int64)
            self.mask = alive_message_mask(knowledge, alive_nodes)
            self._relevant = np.zeros(knowledge.n_nodes, dtype=bool)
            self._relevant[alive_nodes] = True
            deficits = np.zeros(knowledge.n_nodes, dtype=np.int64)
            deficits[alive_nodes] = self._recount(alive_nodes)
            # Only relevant (alive) nodes count as saturated: transmissions
            # touching irrelevant endpoints are never short-circuited, so the
            # filter stays exact even for them.
            complete = np.zeros(knowledge.n_nodes, dtype=bool)
            complete[alive_nodes] = deficits[alive_nodes] == 0
        self.deficits = deficits
        self._complete = complete
        # Irrelevant (dead) rows carry a zero deficit, so this counts exactly
        # the incomplete relevant nodes in both branches.
        self.incomplete = int(np.count_nonzero(deficits))

    def update(self, touched: np.ndarray) -> None:
        """Recount the deficits of the rows mutated since the last update.

        ``touched`` may contain duplicates; they are deduplicated here with a
        cheap boolean scatter (no sort).
        """
        touched = np.asarray(touched, dtype=np.int64)
        if touched.size == 0:
            return
        # Deduplicate and drop rows that were already complete (knowledge
        # only grows, so a zero deficit can never come back) or irrelevant.
        dirty = np.zeros(self.knowledge.n_nodes, dtype=bool)
        dirty[touched] = True
        dirty &= self.deficits > 0
        rows = np.flatnonzero(dirty)
        if rows.size == 0:
            return
        fresh = self._recount(rows)
        self.deficits[rows] = fresh
        done = fresh == 0
        if done.any():
            self._complete[rows[done]] = True
            # Irrelevant rows always carry a zero deficit, so this scan
            # counts exactly the incomplete relevant nodes.
            self.incomplete = int(np.count_nonzero(self.deficits))

    def _recount(self, rows: np.ndarray) -> np.ndarray:
        """Missing-bit counts (``popcount(mask & ~row)``) for the given rows.

        Delegates to :meth:`KnowledgeMatrix.count_missing`, which runs the
        fused mask-and-popcount backend kernel (sharded when the batch is
        large enough) or NumPy's masked scan; the two are pinned
        bit-identical.
        """
        return self.knowledge.count_missing(self.mask, rows)

    @property
    def complete_rows(self) -> np.ndarray:
        """Boolean per-node mask of saturated rows (live view, do not mutate).

        Passed to :meth:`~repro.engine.knowledge.KnowledgeMatrix.apply_exchange`
        as its ``complete`` argument so the kernel can drop no-op
        transmissions and short-circuit saturating ones.  Irrelevant (dead)
        nodes are never marked, keeping the filter exact for them.
        """
        return self._complete

    def mark_promoted(self, promoted: np.ndarray) -> None:
        """Record rows the kernel saturated directly (set to ``mask``).

        The row data was already written by ``apply_exchange``; this only
        updates the tracker's bookkeeping.  ``promoted`` rows are guaranteed
        to have been incomplete (saturated receivers are dropped from the
        batch before promotion).
        """
        if promoted.size == 0:
            return
        self.deficits[promoted] = 0
        self._complete[promoted] = True
        self.incomplete -= int(promoted.size)

    def refresh(self) -> None:
        """Adopt deficits written in-place by a fused-recount exchange kernel.

        The swap-form C kernels can compute ``popcount(mask & ~row)`` for each
        row they rewrite while the row is still hot in cache, storing the
        result straight into :attr:`deficits` (rows the kernel did not touch
        keep their previous — still correct — deficit).  After such a round
        :meth:`exchange` calls :meth:`refresh` instead of :meth:`update` /
        :meth:`mark_promoted`: no rows are recounted here, only the derived
        complete mask and incomplete counter are rebuilt from the deficits.
        """
        if self._relevant is not None:
            # The kernel counts every row it rewrites, including irrelevant
            # (dead) ones; clamp those back to zero so the nonzero count below
            # keeps meaning "incomplete relevant nodes".
            self.deficits[~self._relevant] = 0
        done = (self.deficits == 0) & ~self._complete
        if self._relevant is not None:
            done &= self._relevant
        if done.any():
            self._complete[done] = True
        self.incomplete = int(np.count_nonzero(self.deficits))

    def exchange(
        self, callers: np.ndarray, targets: np.ndarray, *, filtered: bool = True
    ) -> None:
        """Apply one exchange batch and keep the deficits current.

        Calls :meth:`~repro.engine.knowledge.KnowledgeMatrix.apply_exchange`
        with the fused deficit recount into :attr:`deficits` and, when
        ``filtered``, with the saturation filter (:attr:`complete_rows` and
        :attr:`mask`).  Pass ``filtered=False`` when live rows may not be
        subsets of the mask (churn).  Then adopts the fused counts
        (:meth:`refresh`) or, after a gather/scatter batch, recounts the
        touched rows and records the promoted ones.
        """
        knowledge = self.knowledge
        touched, promoted = knowledge.apply_exchange(
            callers,
            targets,
            complete=self._complete if filtered else None,
            complete_row=self.mask if filtered else None,
            deficit_mask=self.mask,
            deficits_out=self.deficits,
        )
        if knowledge.fused_deficits:
            self.refresh()
        else:
            self.update(touched)
            self.mark_promoted(promoted)

    def is_complete(self) -> bool:
        """True when every relevant node knows every relevant message."""
        return self.incomplete == 0

    def missing_pairs(self) -> int:
        """Number of (relevant node, relevant message) pairs still missing."""
        return int(self.deficits.sum())


def exchange_rounds(
    rounds: Iterable[ChannelRound],
    tracker: CompletionTracker,
    ledger: TransmissionLedger,
    trace: SpreadingTrace,
    phase: str,
    *,
    filtered: bool = True,
) -> bool:
    """Apply push–pull rounds (callers push, callees answer) until completion.

    Every round charges its openers; one that counts as a round
    (:attr:`~repro.engine.channels.ChannelRound.is_round`) also exchanges,
    charges pushes and pulls, ends a ledger round and records the trace under
    ``phase``.  ``filtered`` goes to :meth:`CompletionTracker.exchange`.
    Returns whether gossiping completed.
    """
    knowledge = tracker.knowledge
    # Upper bound on any row's count of required messages: a receiver ends a
    # round with at most its own row, one pull answer and one push per
    # in-edge (``2 + indegree`` rows).  While it stays below the mask
    # popcount no row can be saturated, so the tracker is skipped — the
    # saturation filter would see an all-false complete mask anyway, and a
    # row can only complete in a tracked round, which recounts it.
    mask_bits = int(np.bitwise_count(tracker.mask).sum())
    deficits = tracker.deficits
    if tracker._relevant is not None:
        deficits = deficits[tracker._relevant]
    known_bound = mask_bits - int(deficits.min()) if deficits.size else mask_bits
    for channels in rounds:
        ledger.record_opens(channels.openers)
        if not channels.is_round:
            continue
        if known_bound < mask_bits:
            indeg = np.bincount(channels.targets, minlength=knowledge.n_nodes).max()
            known_bound = min(known_bound * (2 + int(indeg)), mask_bits)
        track = known_bound >= mask_bits
        # Push and pull both read start-of-round state; the kernel drops
        # transmissions into saturated rows (bit-exact).
        if track:
            tracker.exchange(channels.callers, channels.targets, filtered=filtered)
        else:
            knowledge.apply_exchange(channels.callers, channels.targets)
        ledger.record_pushes(channels.callers)
        ledger.record_pulls(channels.targets)
        ledger.end_round()
        trace.record(ledger.rounds - 1, phase, knowledge)
        if track and tracker.is_complete():
            return True
    return False


def missing_pairs(
    knowledge: KnowledgeMatrix, alive_nodes: Optional[np.ndarray] = None
) -> int:
    """Number of (alive node, alive message) pairs still missing."""
    if alive_nodes is None:
        alive_nodes = np.arange(knowledge.n_nodes, dtype=np.int64)
    alive_nodes = np.asarray(alive_nodes, dtype=np.int64)
    mask = alive_message_mask(knowledge, alive_nodes)
    return int(knowledge.count_missing(mask, alive_nodes).sum())
