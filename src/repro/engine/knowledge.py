"""Packed-bitset bookkeeping of which node knows which original message.

Gossiping is an all-to-all dissemination problem: each of the ``n`` nodes
starts with one original message and every node must eventually know all ``n``
messages.  The simulator therefore has to track, for every node, the *set* of
original messages it currently knows.  A dense boolean ``n x n`` matrix would
need ``n**2`` bytes; instead we pack message sets into rows of 64-bit words,
which reduces memory by a factor of eight and turns message-set unions (the
only mutation the random phone call model needs) into batched scatter-OR
kernels.

All bulk updates are fully batched — there is no per-transmission Python
loop.  Every transmission of a step reads start-of-step state (the
synchronous-model discipline).  On the compiled backend one serial kernel
applies every push batch in place, in an order that reads every sender row
before anything writes it, and exchange rounds write each row's next state
once into a spare buffer that then swaps with the matrix (the *swap
form*).  The remaining batches — sparse saturation-filtered exchanges, and
everything on the NumPy backend — are one *snapshot-gather + scatter-OR*:
the sender rows involved are read before any row is written.  Duplicate
receivers are resolved either by an order-independent compiled pass —
sharded across a worker pool when the batch is large enough, dispatched
through the active :mod:`repro.engine.backends` backend
(``REPRO_KERNEL_BACKEND`` / ``REPRO_KERNEL_THREADS``;
``REPRO_DISABLE_CKERNEL=1`` forces NumPy) — or by a layered NumPy scatter;
all paths are pinned bit-identical by
``tests/engine/test_kernel_equivalence.py``.  Every bulk entry point checks
its node ids first and raises :class:`IndexError`, writing nothing, on an
id outside ``[0, n_nodes)``; the packed rows and per-node arrays it hands
the kernels are checked the same way and raise :class:`ValueError`.

Storage is one class.  :class:`KnowledgeMatrix` holds the full gossiping
state as one contiguous ``n_nodes x words`` matrix and defines the storage
contract — snapshot-read row gathers, order-independent scatter-ORs, the two
batched round entry points and the aggregate queries — and protocols only
ever talk to its methods.  This module provides it and its dense subclass:

``KnowledgeMatrix``
    The matrix, updated through the dense batched kernels.  The default
    whenever it fits in memory.

``FrontierKnowledge``
    A :class:`KnowledgeMatrix` that additionally tracks, per row, the set of
    nonzero (active) 64-bit words as an index frontier.  While a batch of
    transmissions is sparse — the senders' active words are few compared to
    the full row width — updates scatter only the active words instead of
    gathering whole rows, so early gossip rounds cost ``O(frontier)`` rather
    than ``O(n x words)``.  Rows ratchet one-way onto the dense path as they
    saturate past the crossover threshold; results are bit-identical to the
    dense kernels (``tests/engine/test_frontier_knowledge.py``).

``SingleMessageState``
    A light-weight informed/uninformed boolean vector used by the
    single-message *broadcasting* baselines in :mod:`repro.broadcast`.

The class used over the dense budget — the matrix whose push rounds never
allocate a second matrix — lives in :mod:`repro.engine.layouts` together
with the layout registry (``REPRO_KNOWLEDGE_LAYOUT`` /
:func:`repro.engine.layouts.use`).  Protocols construct their state through
:func:`adaptive_knowledge`, which delegates to the registry's memory model;
:func:`dense_knowledge` keeps the historical frontier-or-plain choice for
callers that explicitly want the dense family.

No caller outside this package may hold a raw ``data`` reference: the
swap-form kernels exchange the underlying buffer.  Use ``rows`` /
``scatter_rows`` / ``count_missing`` and friends instead.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

import numpy as np

from . import backends

__all__ = [
    "FrontierKnowledge",
    "KnowledgeMatrix",
    "SingleMessageState",
    "WORD_BITS",
    "adaptive_knowledge",
    "dense_knowledge",
]

#: Number of bits per storage word.
WORD_BITS = 64

_WORD_DTYPE = np.uint64


def _n_words(n_bits: int) -> int:
    """Number of 64-bit words needed to store ``n_bits`` bits."""
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def _ids(values, bound: int, name: str) -> np.ndarray:
    """``values`` as a C-contiguous ``int64`` array of ids in ``[0, bound)``.

    Raises :class:`IndexError` otherwise.  The compiled kernels index raw
    memory with these ids, and NumPy would wrap ``-1`` round to the last
    row, so every bulk entry point checks them before it writes anything.
    """
    ids = np.ascontiguousarray(values, dtype=np.int64)
    # Viewed unsigned, a negative id is at least 2**63: one pass checks both ends.
    if ids.size and int(ids.view(np.uint64).max()) >= bound:
        raise IndexError(f"{name} must lie in [0, {bound})")
    return ids


def _layered_scatter(
    data: np.ndarray,
    source: np.ndarray,
    senders: np.ndarray,
    receivers: np.ndarray,
) -> np.ndarray:
    """OR ``source[senders[i]]`` into ``data[receivers[i]]`` for all ``i``.

    The pure-NumPy duplicate-receiver resolution shared by every layout:
    the batch is sorted by receiver and resolved in *layers* — layer ``k``
    holds each receiver's ``k``-th incoming transmission, so receivers are
    unique within a layer and each layer is one vectorised gather-OR-scatter.
    The number of layers is the maximum in-degree (``O(log n / log log n)``
    w.h.p.), not the number of transmissions.  This outperforms
    ``bitwise_or.reduceat``, whose generic inner loop is an order of
    magnitude slower than the fancy-indexing fast path.

    ``source`` must be snapshot storage disjoint from ``data``.  Returns the
    sorted unique receivers written.
    """
    order = np.argsort(receivers, kind="stable")
    r_sorted = receivers[order]
    s_sorted = senders[order]
    first = np.r_[True, r_sorted[1:] != r_sorted[:-1]]
    positions = np.arange(r_sorted.size)
    starts = positions[first]
    rank = positions - np.repeat(starts, np.diff(np.r_[starts, r_sorted.size]))
    for k in range(int(rank.max()) + 1):
        layer = rank == k
        data[r_sorted[layer]] |= source[s_sorted[layer]]
    return r_sorted[starts]


class KnowledgeMatrix:
    """Which original messages each node currently knows, as packed bitsets.

    Parameters
    ----------
    n_nodes:
        Number of nodes in the network.
    n_messages:
        Number of distinct original messages.  Defaults to ``n_nodes`` (the
        gossiping setting where node ``i`` starts with message ``i``).
    initialize_own:
        When true (the default) node ``i`` starts knowing message ``i``
        (requires ``n_messages >= n_nodes`` or simply ``i < n_messages``).

    Notes
    -----
    The contract every storage class honours:

    * **Snapshot rounds.**  ``apply_transmissions`` / ``apply_exchange``
      evaluate every transmission of a batch against the same start-of-step
      state: all gathers strictly precede all writes, or, in the in-place
      push kernel, every sender row is read before anything writes it.
    * **Order-independent merges.**  Duplicate receivers within a batch are
      resolved by OR, which commutes — so any schedule that reads only
      start-of-step rows yields the same bits.
    * **Bit-identity.**  Given equal seeds, trajectories are bit-identical
      across every storage class and every kernel backend.
      ``tests/engine/test_layouts.py`` pins this.

    Bulk updates either mutate rows in place or — on the compiled exchange
    rounds — write the end-of-round state into a spare buffer and *swap* it
    with ``data``, so protocols and analysis code must not hold references
    to ``data`` across round updates; :meth:`rows` returns copies.  Every
    bulk entry point checks its node ids before it writes anything and
    raises :class:`IndexError` on an id outside ``[0, n_nodes)``, and
    :class:`ValueError` on a mask, completion row or per-node array of the
    wrong shape (:meth:`_word_row`, :meth:`_exchange_extras`).
    """

    __slots__ = (
        "n_nodes",
        "n_messages",
        "words",
        "fused_deficits",
        "filter_stats",
        "data",
        "_scratch",
        "_csr_off",
        "_csr_adj",
        "_plan",
    )

    #: Registry tag of the storage class (``dense`` / ``paged``).
    layout = "dense"

    def __init__(
        self,
        n_nodes: int,
        n_messages: Optional[int] = None,
        *,
        initialize_own: bool = True,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if n_messages is None:
            n_messages = n_nodes
        if n_messages <= 0:
            raise ValueError(f"n_messages must be positive, got {n_messages}")
        self.n_nodes = int(n_nodes)
        self.n_messages = int(n_messages)
        self.words = _n_words(self.n_messages)
        #: Whether the most recent :meth:`apply_exchange` call wrote the
        #: caller's ``deficits_out`` array in-kernel (see that method).
        #: Callers branch on this to skip their separate recount pass.
        self.fused_deficits = False
        #: Saturation-filter counters, accumulated over the state's life:
        #: filtered rounds seen, directed edges offered to the filter,
        #: edges dropped (either endpoint already complete), and receiver
        #: rows promoted by a single full-row assignment.
        self.filter_stats = {
            "rounds": 0,
            "edges": 0,
            "edges_dropped": 0,
            "promotions": 0,
        }
        self.data = np.zeros((self.n_nodes, self.words), dtype=_WORD_DTYPE)
        #: Reusable spare buffer for the swap-form exchange kernels and for
        #: the start-of-round copy of a dense gather/scatter exchange (lazily
        #: built; push batches never build it).
        self._scratch: Optional[np.ndarray] = None
        #: Reusable CSR buffers (offsets / incoming senders) for the
        #: swap-form exchange kernels (lazily built, grown on demand).
        self._csr_off: Optional[np.ndarray] = None
        self._csr_adj: Optional[np.ndarray] = None
        #: Reusable integer plan for the in-place push kernel: four zeroed
        #: slots per node, then a stack and out-edge list per transmission
        #: (lazily built, grown on demand).
        self._plan: Optional[np.ndarray] = None
        if initialize_own:
            # Fault the matrix in sequentially before the scattered per-row
            # writes below: one diagonal bit per row touches every page, and
            # scattered first-touch faults cost ~2x the sequential ones (the
            # fill is a no-op on the already-zero pages otherwise).
            self.data.fill(0)
            upto = min(self.n_nodes, self.n_messages)
            idx = np.arange(upto, dtype=np.int64)
            flat = self.data.reshape(-1)
            flat[idx * self.words + idx // WORD_BITS] |= np.left_shift(
                np.uint64(1), (idx % WORD_BITS).astype(_WORD_DTYPE)
            )

    def _note_filter(
        self, total_edges: int, kept_edges: int, promotions: int
    ) -> None:
        """Accumulate saturation-filter hit counters for one round."""
        stats = self.filter_stats
        stats["rounds"] += 1
        stats["edges"] += int(total_edges)
        stats["edges_dropped"] += int(total_edges) - int(kept_edges)
        stats["promotions"] += int(promotions)

    # ------------------------------------------------------------------ #
    # Constructors and copies
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, n_nodes: int, n_messages: Optional[int] = None) -> "KnowledgeMatrix":
        """A state in which no node knows any message."""
        return cls(n_nodes, n_messages, initialize_own=False)

    def copy(self) -> "KnowledgeMatrix":
        """Deep copy of the knowledge state, of the same storage class."""
        clone = type(self).empty(self.n_nodes, self.n_messages)
        clone.data[:] = self.data
        return clone

    # ------------------------------------------------------------------ #
    # Storage primitives
    # ------------------------------------------------------------------ #
    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """Snapshot copies of the bitset rows of ``nodes`` (gather).

        The result is a fresh ``(len(nodes), words)`` array owned by the
        caller — safe to hold across subsequent bulk updates.
        """
        return self.data[np.asarray(nodes, dtype=np.int64)]

    def _batch(
        self,
        first: np.ndarray,
        second: np.ndarray,
        names: "tuple[str, str]",
        first_bound: Optional[int] = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """The two id arrays of one batch, checked before anything is written.

        ``second`` holds rows of this matrix and ``first`` rows of a matrix
        with ``first_bound`` rows (default: this one).  Returns both as
        C-contiguous ``int64`` arrays.  Raises :class:`IndexError` when an
        id is out of range (see :func:`_ids`) and :class:`ValueError` when
        the shapes differ.
        """
        bound = self.n_nodes if first_bound is None else first_bound
        first = _ids(first, bound, names[0])
        second = _ids(second, self.n_nodes, names[1])
        if first.shape != second.shape:
            raise ValueError(f"{names[0]} and {names[1]} must have identical shapes")
        return first, second

    def _word_row(self, row: np.ndarray, name: str) -> np.ndarray:
        """``row`` as a C-contiguous ``uint64`` packed row of ``words`` words.

        Raises :class:`ValueError` naming ``name`` on any other shape: the
        compiled kernels read ``words`` words from it, and NumPy would
        broadcast a one-word row.
        """
        row = np.ascontiguousarray(row, dtype=_WORD_DTYPE)
        if row.shape != (self.words,):
            raise ValueError(f"{name} must have shape ({self.words},), got {row.shape}")
        return row

    def _exchange_extras(
        self,
        complete: Optional[np.ndarray],
        complete_row: Optional[np.ndarray],
        deficit_mask: Optional[np.ndarray],
        deficits_out: Optional[np.ndarray],
    ) -> "tuple[Optional[np.ndarray], ...]":
        """The optional :meth:`apply_exchange` arguments, checked up front.

        ``complete`` becomes a contiguous boolean ``(n_nodes,)`` mask and
        needs ``complete_row``; ``complete_row`` and ``deficit_mask`` are
        packed rows (:meth:`_word_row`); ``deficit_mask`` and
        ``deficits_out`` come together, and the kernels write
        ``deficits_out`` in place, so it must already be a writable,
        C-contiguous ``int64`` array of shape ``(n_nodes,)``.  Raises
        :class:`ValueError` naming the argument.
        """
        if complete is not None:
            complete = np.ascontiguousarray(complete, dtype=bool)
            if complete.shape != (self.n_nodes,):
                raise ValueError(
                    f"complete must have shape ({self.n_nodes},), got {complete.shape}"
                )
            if complete_row is None:
                raise ValueError("complete needs complete_row")
        if complete_row is not None:
            complete_row = self._word_row(complete_row, "complete_row")
        if (deficit_mask is None) != (deficits_out is None):
            raise ValueError("deficit_mask and deficits_out must be given together")
        if deficit_mask is not None:
            deficit_mask = self._word_row(deficit_mask, "deficit_mask")
            if not (
                isinstance(deficits_out, np.ndarray)
                and deficits_out.dtype == np.int64
                and deficits_out.shape == (self.n_nodes,)
                and deficits_out.flags.c_contiguous
                and deficits_out.flags.writeable
            ):
                raise ValueError(
                    "deficits_out must be a writable, C-contiguous int64 array "
                    f"of shape ({self.n_nodes},)"
                )
        return complete, complete_row, deficit_mask, deficits_out

    def scatter_rows(
        self, source: np.ndarray, src_idx: np.ndarray, receivers: np.ndarray
    ) -> None:
        """OR ``source[src_idx[i]]`` into row ``receivers[i]`` for all ``i``.

        ``source`` is external row storage of shape ``(rows, words)``
        (never this object's own rows), so the scatter is order-independent
        under duplicate receivers.  This is the interface used by code that
        merges externally-staged rows — e.g. random-walk payload delivery —
        replacing direct ``data`` mutation.
        """
        source = np.ascontiguousarray(source, dtype=_WORD_DTYPE)
        if source.ndim != 2 or source.shape[1] != self.words:
            raise ValueError(f"source rows must have shape (rows, {self.words})")
        src_idx, receivers = self._batch(
            src_idx, receivers, ("source rows", "receivers"), len(source)
        )
        self._scatter_or(source, src_idx, receivers)

    def merge_rows(
        self, external: np.ndarray, ext_rows: np.ndarray, nodes: np.ndarray
    ) -> None:
        """Union row ``nodes[i]`` and ``external[ext_rows[i]]`` both ways.

        Afterwards ``nodes[i]`` and ``external[ext_rows[i]]`` each hold the
        union of both rows as they were at the start of the call; a node
        listed several times accumulates all of its external rows.
        ``external`` is caller-owned, C-contiguous ``uint64`` row storage
        (never this object's rows) and ``ext_rows`` must be distinct.  This
        is random-walk payload delivery.
        """
        if (
            external.dtype != _WORD_DTYPE
            or external.ndim != 2
            or external.shape[1] != self.words
            or not external.flags.c_contiguous
        ):
            raise ValueError(
                "external rows must be a C-contiguous uint64 array of shape "
                f"(rows, {self.words})"
            )
        ext_rows, nodes = self._batch(
            ext_rows, nodes, ("external rows", "nodes"), len(external)
        )
        if nodes.size == 0:
            return
        # Pass 1 ORs each node's start-of-call row into its external row
        # (distinct ``ext_rows``: one source per written row, and the two
        # buffers are disjoint).  Pass 2 ORs the merged external rows back
        # into the nodes; a node thereby ORs its own start-of-call row,
        # which changes nothing.
        backend = backends.active()
        if backend.use_compiled():
            backend.scatter_or(external, self.data, nodes, ext_rows)
        else:
            external[ext_rows] |= self.data[nodes]
        self.scatter_rows(external, ext_rows, nodes)

    def assign_rows(self, nodes: np.ndarray, row: np.ndarray) -> None:
        """Overwrite each row in ``nodes`` with the packed row ``row``."""
        self.data[np.asarray(nodes, dtype=np.int64)] = row

    def storage_nbytes(self) -> int:
        """Bytes of resident storage (rows plus the reusable round buffers)."""
        total = self.data.nbytes
        for buf in (self._scratch, self._csr_off, self._csr_adj, self._plan):
            if buf is not None:
                total += buf.nbytes
        return total

    # ------------------------------------------------------------------ #
    # Element access and mutators
    # ------------------------------------------------------------------ #
    def _bit(self, message: int) -> np.uint64:
        return np.uint64(1) << np.uint64(message % WORD_BITS)

    def _check_message(self, message: int) -> None:
        if not 0 <= message < self.n_messages:
            raise IndexError(
                f"message {message} out of range [0, {self.n_messages})"
            )

    def knows(self, node: int, message: int) -> bool:
        """Whether ``node`` currently knows ``message``."""
        self._check_message(message)
        return bool(self.data[node, message // WORD_BITS] & self._bit(message))

    def known_messages(self, node: int) -> np.ndarray:
        """Sorted array of message identifiers known by ``node``."""
        bits = np.unpackbits(
            np.ascontiguousarray(self.data[node]).view(np.uint8), bitorder="little"
        )
        return np.flatnonzero(bits[: self.n_messages])

    def missing_messages_at(self, node: int) -> np.ndarray:
        """Message identifiers *not* known by ``node``."""
        known = np.unpackbits(
            np.ascontiguousarray(self.data[node]).view(np.uint8), bitorder="little"
        )
        return np.flatnonzero(~known[: self.n_messages].astype(bool))

    def add(self, node: int, message: int) -> None:
        """Mark ``node`` as knowing ``message``."""
        self._check_message(message)
        self.data[node, message // WORD_BITS] |= self._bit(message)

    def add_many(self, nodes: np.ndarray, message: int) -> None:
        """Mark every entry of ``nodes`` as knowing ``message``."""
        self._check_message(message)
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size:
            self.data[nodes, message // WORD_BITS] |= self._bit(message)

    # ------------------------------------------------------------------ #
    # Aggregate queries
    # ------------------------------------------------------------------ #
    def counts(self) -> np.ndarray:
        """Number of messages known by each node (length ``n_nodes``)."""
        return np.bitwise_count(self.data).sum(axis=1).astype(np.int64)

    def nodes_knowing(self, message: int) -> np.ndarray:
        """Array of node identifiers that know ``message``."""
        self._check_message(message)
        column = self.data[:, message // WORD_BITS]
        return np.flatnonzero((column & self._bit(message)) != 0)

    def num_nodes_knowing(self, message: int) -> int:
        """Number of nodes that know ``message``."""
        return int(self.nodes_knowing(message).size)

    def informed_counts_per_message(self) -> np.ndarray:
        """For every message, the number of nodes knowing it."""
        bits = np.unpackbits(
            np.ascontiguousarray(self.data).view(np.uint8), axis=1, bitorder="little"
        )
        return bits[:, : self.n_messages].sum(axis=0, dtype=np.int64)

    def fully_informed_nodes(self) -> np.ndarray:
        """Boolean mask of nodes that know every message."""
        return self.counts() == self.n_messages

    def is_complete(self) -> bool:
        """True when every node knows every message (gossiping finished)."""
        full_word = np.uint64(0xFFFFFFFFFFFFFFFF)
        # Check all full words first (cheap early exit).
        full_words = self.words - 1 if self.n_messages % WORD_BITS else self.words
        rem = self.n_messages % WORD_BITS
        if full_words and not np.all(self.data[:, :full_words] == full_word):
            return False
        if rem:
            tail_mask = (np.uint64(1) << np.uint64(rem)) - np.uint64(1)
            return bool(np.all(self.data[:, -1] == tail_mask))
        return True

    def total_known(self) -> int:
        """Total number of (node, message) pairs currently known."""
        return int(np.bitwise_count(self.data).sum())

    def coverage(self) -> float:
        """Fraction of the ``n_nodes * n_messages`` pairs that are known."""
        return self.total_known() / float(self.n_nodes * self.n_messages)

    def count_missing(self, mask: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Per-row deficits: ``popcount(mask & ~row)`` for each row in ``rows``.

        ``mask`` is the completion target (usually :meth:`full_row_mask`).
        This is the recount primitive behind
        :class:`~repro.core.completion.CompletionTracker`; subclasses
        override it with representation-aware implementations that are
        pinned bit-identical to this scan.  Raises :class:`ValueError` when
        ``mask`` is not one packed row (see :meth:`_word_row`).
        """
        mask = self._word_row(mask, "mask")
        rows = _ids(rows, self.n_nodes, "rows")
        if rows.size == 0:
            return np.zeros(0, dtype=np.int64)
        backend = backends.active()
        if backend.use_compiled():
            return backend.recount_deficits(self.data, mask, rows)
        return (
            np.bitwise_count(mask[None, :] & ~self.data[rows])
            .sum(axis=1)
            .astype(np.int64)
        )

    # ------------------------------------------------------------------ #
    # Row constructors
    # ------------------------------------------------------------------ #
    def zero_row(self) -> np.ndarray:
        """A fresh all-zero row compatible with this matrix."""
        return np.zeros(self.words, dtype=_WORD_DTYPE)

    def full_row_mask(self) -> np.ndarray:
        """Packed row with every valid message bit set (the completion target)."""
        mask = np.full(self.words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=_WORD_DTYPE)
        rem = self.n_messages % WORD_BITS
        if rem:
            mask[-1] = (np.uint64(1) << np.uint64(rem)) - np.uint64(1)
        return mask

    def row_with(self, messages: Iterable[int]) -> np.ndarray:
        """A fresh row with exactly ``messages`` set."""
        row = self.zero_row()
        for m in messages:
            self._check_message(m)
            row[m // WORD_BITS] |= self._bit(m)
        return row

    # ------------------------------------------------------------------ #
    # Bulk updates (the hot path)
    # ------------------------------------------------------------------ #
    def apply_transmissions(
        self, senders: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        """Apply a batch of directed transmissions ``senders[i] -> receivers[i]``.

        All transmissions are evaluated against the same start-of-step state,
        so a message cannot hop through several nodes within a single
        synchronous step; receivers may repeat (several incoming channels
        per node).  The compiled backend applies every batch in place: the
        kernel orders the writes so that each sender is read before anything
        writes it, copying only the few rows that close a cycle, so no
        sender rows are gathered and no second matrix is allocated.  The
        NumPy backend, the reference, gathers the batch's unique sender rows
        before any write and scatters them with :func:`_layered_scatter`.

        Returns
        -------
        numpy.ndarray
            Receiver identifiers whose rows were touched (possibly without
            change).  The array may be unsorted and contain duplicates —
            which code path produced it is platform-dependent — so treat it
            as an unordered multiset; ``CompletionTracker.update``
            deduplicates internally.
        """
        senders, receivers = self._batch(senders, receivers, ("senders", "receivers"))
        if senders.size == 0:
            return np.zeros(0, dtype=np.int64)
        backend = backends.active()
        if backend.use_compiled():
            backend.push_in_place(
                self.data, senders, receivers, self._push_plan(senders.size)
            )
            return receivers
        unique_senders, sender_pos = np.unique(senders, return_inverse=True)
        return _layered_scatter(
            self.data, self.data[unique_senders], sender_pos, receivers
        )

    def _push_plan(self, edges: int) -> np.ndarray:
        """Integer plan for the in-place push kernel (grown on demand).

        Four slots per node, which the kernel leaves zero after every call,
        then a DFS stack and an out-edge list of ``edges`` slots each.
        """
        size = 4 * self.n_nodes + 2 * edges
        if self._plan is None or self._plan.size < size:
            self._plan = np.zeros(size, dtype=np.int64)
        return self._plan

    def _ensure_scratch(self) -> np.ndarray:
        if self._scratch is None:
            self._scratch = np.empty_like(self.data)
        return self._scratch

    def _csr_buffers(self, edges: int) -> "tuple[np.ndarray, np.ndarray]":
        """CSR scratch for the swap-form exchange kernels (grown on demand)."""
        if self._csr_off is None:
            self._csr_off = np.empty(self.n_nodes + 1, dtype=np.int64)
        if self._csr_adj is None or self._csr_adj.size < edges:
            self._csr_adj = np.empty(edges, dtype=np.int64)
        return self._csr_off, self._csr_adj

    def _snapshot_sources(
        self, senders: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Start-of-step source rows for ``senders``, copied before any write.

        Serves the gather/scatter exchange rounds and the frontier's dense
        sub-batches.  Dense batches (most nodes sending) reuse a full double
        buffer filled with one sequential ``copyto`` — far faster than a
        random row gather.  Sparse batches gather only the unique sender
        rows, so the snapshot cost scales with the actual senders, not with
        ``n_nodes``.

        Returns ``(source, indices)`` such that ``source[indices[i]]`` is
        sender ``i``'s start-of-step row.
        """
        if senders.size * 4 >= self.n_nodes:
            np.copyto(self._ensure_scratch(), self.data)
            return self._scratch, senders
        unique_senders, sender_pos = np.unique(senders, return_inverse=True)
        return self.data[unique_senders], sender_pos

    def _scatter_or(
        self, source: np.ndarray, senders: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        """OR ``source[senders[i]]`` into row ``receivers[i]`` for all ``i``.

        Receivers may repeat; duplicates are resolved either by an
        order-independent compiled pass or by the shared layered NumPy
        scatter (:func:`_layered_scatter`).

        Returns the receivers whose rows were written (possibly with
        duplicates on the compiled path; sorted unique on the NumPy path).
        """
        backend = backends.active()
        if backend.use_compiled():
            # The compiled scatter applies transmissions in batch order
            # within each receiver shard; because ``source`` is
            # snapshot storage disjoint from ``data``, the result is
            # order-independent even with duplicate receivers, so no sorting
            # or layering is needed at all.
            backend.scatter_or(
                self.data,
                np.ascontiguousarray(source),
                np.ascontiguousarray(senders),
                np.ascontiguousarray(receivers),
            )
            return receivers
        return _layered_scatter(self.data, source, senders, receivers)

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
        """Apply one synchronous push–pull round: ``callers[i] <-> targets[i]``.

        Both directions (push ``caller -> target`` and pull ``target ->
        caller``) read the same start-of-step state.  ``callers`` must be
        sorted and unique (the channel model: one outgoing channel per node);
        targets may repeat.  The pull direction therefore has unique
        receivers and is applied as a single aligned gather-OR — when every
        node is a caller it degenerates to ``data |= source[targets]`` with
        no index arrays at all — while the push direction goes through the
        layered scatter.

        When ``complete``/``complete_row`` are given (a boolean
        saturated-row mask and the saturation target row, usually from
        :class:`~repro.core.completion.CompletionTracker`), the exchange
        additionally short-circuits saturation: transmissions into saturated
        rows are dropped (no-ops) and receivers fed by a saturated sender are
        directly assigned ``complete_row``.  This is bit-exact provided every
        participating row is a subset of ``complete_row`` — true whenever
        channels only ever connect alive nodes, because crashed nodes never
        transmit and their messages never spread.  On compiled backends a
        round where at least half the rows are still in play runs as one
        saturation-filtered swap-form kernel pass; sparser late rounds take
        the gather/scatter path below, whose cost scales with the surviving
        edges.

        ``deficit_mask``/``deficits_out`` (given together) fuse the
        completion recount into the compiled swap-form passes: they write
        ``popcount(deficit_mask & ~row)`` into ``deficits_out[r]`` for every
        row they change (``deficits_out`` must hold valid counts on entry —
        unchanged rows are left alone) and set :attr:`fused_deficits`.  The
        gather/scatter paths ignore the arguments and leave
        :attr:`fused_deficits` false, in which case the caller recounts.

        Returns
        -------
        (touched, promoted):
            ``touched`` — receivers whose rows were OR-updated (may contain
            duplicates: a node can receive in both directions);
            ``promoted`` — sorted unique receivers directly saturated.  The
            two sets are disjoint.

        Raises :class:`IndexError` on an id outside ``[0, n_nodes)`` and
        :class:`ValueError` on an optional argument of the wrong shape or
        kind (see :meth:`_exchange_extras`), before anything is written.
        """
        callers, targets = self._batch(callers, targets, ("callers", "targets"))
        complete, complete_row, deficit_mask, deficits_out = self._exchange_extras(
            complete, complete_row, deficit_mask, deficits_out
        )
        empty = np.zeros(0, dtype=np.int64)
        self.fused_deficits = False
        if callers.size == 0:
            return empty, empty
        if complete is not None and not complete.any():
            complete = None
        backend = backends.active()
        if complete is None and backend.use_compiled():
            # Unfiltered round, swap form: both directions are resolved in
            # one compiled pass that writes each row's end-of-round state
            # exactly once into the spare buffer, then the buffers swap.
            self._ensure_scratch()
            off, adj = self._csr_buffers(2 * callers.size)
            backend.exchange(
                self.data,
                self._scratch,
                callers,
                targets,
                off,
                adj,
                deficit_mask,
                deficits_out,
            )
            self.data, self._scratch = self._scratch, self.data
            self.fused_deficits = deficits_out is not None
            return np.concatenate([callers, targets]), empty
        if complete is not None and backend.use_compiled():
            live_rows = int((~complete[callers]).sum()) + int(
                (~complete[targets]).sum()
            )
            if live_rows * 2 >= self.n_nodes:
                # Filtered swap form: most rows are still in play, so the
                # full-matrix swap pass beats gathering the surviving edges.
                # The kernel drops edges into complete receivers, memcpys
                # promoted rows from ``complete_row``, and fuses deficits.
                self._ensure_scratch()
                off, adj = self._csr_buffers(2 * callers.size)
                promoted_u8 = np.zeros(self.n_nodes, dtype=np.uint8)
                backend.exchange_filtered(
                    self.data,
                    self._scratch,
                    callers,
                    targets,
                    off,
                    adj,
                    complete.view(np.uint8),
                    promoted_u8,
                    complete_row,
                    deficit_mask,
                    deficits_out,
                )
                self.data, self._scratch = self._scratch, self.data
                self.fused_deficits = deficits_out is not None
                promoted = np.flatnonzero(promoted_u8)
                touched = np.concatenate([callers, targets])
                if promoted.size:
                    # Keep the documented disjointness of touched/promoted
                    # (CompletionTracker counts each promotion exactly once).
                    touched = touched[promoted_u8[touched] == 0]
                kept = 2 * int((~complete[callers] & ~complete[targets]).sum())
                self._note_filter(2 * callers.size, kept, promoted.size)
                return touched, promoted
        push_s, push_r, pull_s, pull_r, promoted = self._filter_exchange(
            callers, targets, complete
        )
        touched = empty
        if push_r.size or pull_r.size:
            n_push = push_s.size
            source, remapped = self._snapshot_sources(
                np.concatenate([push_s, pull_s])
            )
            push_s = remapped[:n_push]
            pull_s = remapped[n_push:]
            if backend.use_compiled():
                # One order-independent compiled pass over both directions.
                touched = self._scatter_or(
                    source,
                    remapped,
                    np.concatenate([push_r, pull_r]),
                )
            else:
                if pull_r.size == self.n_nodes:
                    # Sorted unique, full-length: pull_r is exactly arange(n).
                    self.data |= source[pull_s]
                elif pull_r.size:
                    self.data[pull_r] |= source[pull_s]
                if push_r.size:
                    touched_push = self._scatter_or(source, push_s, push_r)
                    touched = np.concatenate([pull_r, touched_push])
                else:
                    touched = pull_r
        if promoted.size:
            self.assign_rows(promoted, complete_row)
        return touched, promoted

    # ------------------------------------------------------------------ #
    # The saturation filter (shared by the exchange paths)
    # ------------------------------------------------------------------ #
    def _filter_exchange(
        self,
        callers: np.ndarray,
        targets: np.ndarray,
        complete: Optional[np.ndarray],
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Split an exchange round into push/pull edges plus direct promotions.

        Returns ``(push_s, push_r, pull_s, pull_r, promoted)``.  When
        ``complete`` is given (a boolean saturated-row mask), transmissions
        into saturated rows are dropped and receivers fed by a saturated
        sender are returned in ``promoted`` for direct assignment of the
        completion row — bit-exact provided every participating row is a
        subset of the completion row.
        """
        empty = np.zeros(0, dtype=np.int64)
        promoted = empty
        if complete is None:
            return callers, targets, targets, callers, promoted
        keep_push = ~complete[targets]
        keep_pull = ~complete[callers]
        sat_push = keep_push & complete[callers]
        sat_pull = keep_pull & complete[targets]
        if sat_push.any() or sat_pull.any():
            promoted = np.unique(
                np.concatenate([targets[sat_push], callers[sat_pull]])
            )
            is_promoted = np.zeros(self.n_nodes, dtype=bool)
            is_promoted[promoted] = True
            keep_push &= ~is_promoted[targets]
            keep_pull &= ~is_promoted[callers]
        self._note_filter(
            2 * callers.size,
            int(keep_push.sum()) + int(keep_pull.sum()),
            promoted.size,
        )
        return (
            callers[keep_push],
            targets[keep_push],
            targets[keep_pull],
            callers[keep_pull],
            promoted,
        )

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """SHA-256 over the row-major byte stream (storage-class independent).

        Two states with equal bits have equal fingerprints whatever their
        storage class, so this is the cheap bit-identity check at sizes
        where holding two matrices for ``__eq__`` would be wasteful.
        """
        digest = hashlib.sha256()
        digest.update(f"{self.n_nodes}:{self.n_messages}:".encode())
        digest.update(np.ascontiguousarray(self.data).data)
        return digest.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeMatrix):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and self.n_messages == other.n_messages
            and bool(np.array_equal(self.data, other.data))
        )

    __hash__ = None  # mutable container

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(n_nodes={self.n_nodes}, "
            f"n_messages={self.n_messages}, coverage={self.coverage():.3f})"
        )


#: Former name of :class:`KnowledgeMatrix`, kept only because the benchmark
#: tracer (``bench/trace.py``) walks ``KnowledgeStorage.__subclasses__()`` to
#: find the storage classes it wraps.
KnowledgeStorage = KnowledgeMatrix


#: Fraction of ``transmissions * words`` below which the frontier
#: (word-sparse) path is used; also sizes the per-row active-word capacity.
#: 0.125 won the crossover sweep at n=20000 (see docs/benchmarks.md): the
#: compiled pair pass costs ~4-6x more per word than the streaming dense
#: kernels, so the sparse path should stop well before nominal break-even.
_CROSSOVER = 0.125


class FrontierKnowledge(KnowledgeMatrix):
    """A :class:`KnowledgeMatrix` with a sparsity-aware (frontier) fast path.

    In early gossip rounds almost every row holds a handful of message bits,
    yet the dense kernels move full ``words``-wide rows per round.  This
    subclass tracks, for every row, the set of *active* (nonzero) 64-bit
    words as an index frontier and applies a sparse batch by scattering only
    ``(receiver, word)`` pairs drawn from the senders' frontiers — the cost
    of a round scales with the number of set words actually in flight, not
    with ``n_nodes * words``.

    The representation is adaptive with a one-way ratchet:

    * per batch, the estimated frontier cost (``sum`` of sender active-word
      counts, dense rows counted at full width) is compared against
      ``0.125 * transmissions * words``; at or past the threshold the
      batch takes the plain matrix's kernels;
    * per row, once more than ``word_cap`` words become active — or the row
      is written through a dense batch, an external-row scatter or
      assignment, or a saturation promotion — the row is flagged dense and is never
      enumerated again (knowledge only grows, so density never decreases).

    Both paths implement the identical snapshot-read / live-write round
    semantics (all gathers strictly precede all writes), so trajectories are
    bit-identical to a plain :class:`KnowledgeMatrix` at equal seeds; see
    ``tests/engine/test_frontier_knowledge.py``.
    """

    __slots__ = (
        "word_cap",
        "_nnz",
        "_active_words",
        "_word_active",
        "_dense_rows",
        "_val_buf",
        "_lin_buf",
        "_retired",
    )

    def __init__(
        self,
        n_nodes: int,
        n_messages: Optional[int] = None,
        *,
        initialize_own: bool = True,
    ) -> None:
        super().__init__(n_nodes, n_messages, initialize_own=initialize_own)
        #: Active words a row may list before it ratchets onto the dense path.
        self.word_cap = min(self.words, max(4, int(round(self.words * _CROSSOVER))))
        #: Rows permanently on the dense path (no frontier bookkeeping).
        self._dense_rows = np.zeros(self.n_nodes, dtype=bool)
        #: Number of active words listed per row.
        self._nnz = np.zeros(self.n_nodes, dtype=np.int64)
        #: Active word indices per row (first ``_nnz[i]`` entries valid,
        #: discovery order — order is irrelevant for an OR).
        self._active_words = np.zeros((self.n_nodes, self.word_cap), dtype=np.int32)
        #: Membership mask: ``_word_active[i, w]`` iff ``w`` is listed for
        #: row ``i`` (meaningless once a row is flagged dense).
        self._word_active = np.zeros((self.n_nodes, self.words), dtype=bool)
        #: Reusable pair buffers for the compiled frontier pass (grown on
        #: demand; avoids a multi-megabyte allocation per round).
        self._val_buf: Optional[np.ndarray] = None
        self._lin_buf: Optional[np.ndarray] = None
        #: Set once every row is dense-flagged; the wrappers then delegate
        #: to the parent kernels with zero bookkeeping overhead.
        self._retired = False
        if initialize_own:
            upto = min(self.n_nodes, self.n_messages)
            idx = np.arange(upto)
            own_word = idx // WORD_BITS
            self._active_words[idx, 0] = own_word
            self._nnz[:upto] = 1
            self._word_active[idx, own_word] = True

    def copy(self) -> "FrontierKnowledge":
        """Deep copy of the matrix and of its frontier bookkeeping."""
        clone = super().copy()
        clone._dense_rows[:] = self._dense_rows
        clone._nnz[:] = self._nnz
        clone._active_words[:] = self._active_words
        clone._word_active[:] = self._word_active
        clone._retired = self._retired
        return clone

    # ------------------------------------------------------------------ #
    # Batch entry points
    # ------------------------------------------------------------------ #
    def apply_transmissions(
        self, senders: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        senders, receivers = self._batch(senders, receivers, ("senders", "receivers"))
        if senders.size == 0:
            return np.zeros(0, dtype=np.int64)
        if self._retired:
            return super().apply_transmissions(senders, receivers)
        dense_sel, estimate = self._estimate(senders)
        if estimate < _CROSSOVER * senders.size * self.words:
            return self._sparse_apply(senders, receivers, dense_sel)
        touched = super().apply_transmissions(senders, receivers)
        self._mark_dense(receivers)
        return touched

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
        callers, targets = self._batch(callers, targets, ("callers", "targets"))
        complete, complete_row, deficit_mask, deficits_out = self._exchange_extras(
            complete, complete_row, deficit_mask, deficits_out
        )
        empty = np.zeros(0, dtype=np.int64)
        self.fused_deficits = False
        if callers.size == 0:
            return empty, empty
        if self._retired:
            return super().apply_exchange(
                callers,
                targets,
                complete=complete,
                complete_row=complete_row,
                deficit_mask=deficit_mask,
                deficits_out=deficits_out,
            )
        if complete is None or not complete.any():
            # Both directions of an exchange read the same start-of-step
            # state, so the round is exactly one combined transmission batch.
            senders = np.concatenate([callers, targets])
            receivers = np.concatenate([targets, callers])
            dense_sel, estimate = self._estimate(senders)
            if estimate < _CROSSOVER * senders.size * self.words:
                return self._sparse_apply(senders, receivers, dense_sel), empty
        # Dense (or saturation-filtered) rounds go through the parent kernel;
        # by the time rows saturate the matrix is dense anyway, so everything
        # the parent may have written simply ratchets to the dense path.
        touched, promoted = super().apply_exchange(
            callers,
            targets,
            complete=complete,
            complete_row=complete_row,
            deficit_mask=deficit_mask,
            deficits_out=deficits_out,
        )
        self._dense_rows[callers] = True
        self._mark_dense(targets)
        return touched, promoted

    # ------------------------------------------------------------------ #
    # The frontier path
    # ------------------------------------------------------------------ #
    def _mark_dense(self, rows: np.ndarray) -> None:
        """Ratchet ``rows`` to the dense path; retire once all rows are."""
        self._dense_rows[rows] = True
        if self._dense_rows.all():
            self._retired = True

    def _estimate(self, senders: np.ndarray) -> "tuple[np.ndarray, int]":
        """Dense-row selector and estimated word-pair cost of a batch."""
        dense_sel = self._dense_rows[senders]
        nnz = self._nnz[senders]
        if dense_sel.any():
            nnz = np.where(dense_sel, self.words, nnz)
        return dense_sel, int(nnz.sum())

    def _sparse_apply(
        self, senders: np.ndarray, receivers: np.ndarray, dense_sel: np.ndarray
    ) -> np.ndarray:
        """Apply one batch word-sparsely (snapshot semantics preserved).

        Transmissions from frontier rows contribute only their active
        ``(word, value)`` pairs; transmissions from dense-flagged rows go
        through the row-level scatter.  Every gather — sparse word values
        and dense source rows alike — happens strictly before any write, so
        the result is bit-identical to the dense one-batch kernel.
        """
        words = self.words
        if dense_sel.any():
            sparse_s = senders[~dense_sel]
            sparse_r = receivers[~dense_sel]
            dense_s = senders[dense_sel]
            dense_r = receivers[dense_sel]
        else:
            sparse_s, sparse_r = senders, receivers
            dense_s = dense_r = None
        # ---- dense sub-batch gather (before any write) ---------------- #
        if dense_s is not None:
            source, dense_idx = self._snapshot_sources(dense_s)
        total = int(self._nnz[sparse_s].sum()) if sparse_s.size else 0
        backend = backends.active()
        if total and backend.use_compiled():
            # One fused compiled pass: pair gather (still pre-write), scatter
            # and frontier bookkeeping.  Runs before the dense scatter so its
            # value gather also precedes every write of the batch.
            if self._val_buf is None or self._val_buf.size < total:
                # Double-up slack: pair counts roughly double per early round.
                self._val_buf = np.empty(2 * total, dtype=np.uint64)
                self._lin_buf = np.empty(2 * total, dtype=np.int64)
            backend.frontier_scatter(
                self.data,
                self._active_words,
                self._nnz,
                self._word_active,
                self._dense_rows,
                np.ascontiguousarray(sparse_s),
                np.ascontiguousarray(sparse_r),
                self._val_buf,
                self._lin_buf,
                total,
            )
        elif total:
            nnz = self._nnz[sparse_s]
            tx = np.repeat(np.arange(sparse_s.size, dtype=np.int64), nnz)
            ends = np.cumsum(nnz)
            rank = np.arange(total, dtype=np.int64) - np.repeat(ends - nnz, nnz)
            tx_senders = sparse_s[tx]
            wcols = self._active_words[tx_senders, rank].astype(np.int64)
            vals = self.data[tx_senders, wcols]
            pair_rows = sparse_r[tx]
            lin = pair_rows * words + wcols
            order = np.argsort(lin, kind="stable")
            lin_sorted = lin[order]
            vals_sorted = vals[order]
            bounds = np.flatnonzero(np.r_[True, lin_sorted[1:] != lin_sorted[:-1]])
            merged = np.bitwise_or.reduceat(vals_sorted, bounds)
            self.data.reshape(-1)[lin_sorted[bounds]] |= merged
            self._note_pairs(pair_rows, wcols, lin)
        # ---- dense sub-batch scatter ---------------------------------- #
        if dense_s is not None:
            self._scatter_or(source, dense_idx, dense_r)
            # A dense sender's words are a superset of the cap, so the
            # receiving row crosses it too.
            self._dense_rows[dense_r] = True
        return receivers

    def _note_pairs(
        self, rows: np.ndarray, wcols: np.ndarray, lin: np.ndarray
    ) -> None:
        """Record that words ``wcols`` were OR-written into ``rows``.

        Newly activated words are appended to each receiver's frontier;
        receivers whose count would exceed ``word_cap`` ratchet to dense.
        """
        fresh = ~self._word_active[rows, wcols] & ~self._dense_rows[rows]
        if not fresh.any():
            return
        unique_lin = np.unique(lin[fresh])
        r = unique_lin // self.words
        w = (unique_lin % self.words).astype(np.int32)
        self._word_active[r, w] = True
        # ``unique_lin`` is sorted, so rows arrive grouped.
        starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        counts = np.diff(np.r_[starts, r.size])
        unique_rows = r[starts]
        new_nnz = self._nnz[unique_rows] + counts
        overflow = new_nnz > self.word_cap
        within = np.arange(r.size) - np.repeat(starts, counts)
        positions = self._nnz[r] + within
        keep = ~np.repeat(overflow, counts)
        if keep.any():
            self._active_words[r[keep], positions[keep]] = w[keep]
            self._nnz[unique_rows[~overflow]] = new_nnz[~overflow]
        if overflow.any():
            self._dense_rows[unique_rows[overflow]] = True

    def _note_single_word(self, rows: np.ndarray, word: int) -> None:
        """Record that the single word ``word`` gained bits in ``rows``."""
        rows = rows[~self._dense_rows[rows] & ~self._word_active[rows, word]]
        if rows.size == 0:
            return
        # Duplicated rows read the same ``_nnz`` before any write, so every
        # copy writes the same slot with the same word: no dedup needed.
        self._word_active[rows, word] = True
        positions = self._nnz[rows]
        overflow = positions >= self.word_cap
        ok = rows[~overflow]
        self._active_words[ok, positions[~overflow]] = word
        self._nnz[ok] = positions[~overflow] + 1
        if overflow.any():
            self._dense_rows[rows[overflow]] = True

    # ------------------------------------------------------------------ #
    # Bookkeeping for the non-batch mutators
    # ------------------------------------------------------------------ #
    def add(self, node: int, message: int) -> None:
        super().add(node, message)
        self._note_single_word(
            np.asarray([node], dtype=np.int64), message // WORD_BITS
        )

    def add_many(self, nodes: np.ndarray, message: int) -> None:
        super().add_many(nodes, message)
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size:
            self._note_single_word(nodes, message // WORD_BITS)

    def scatter_rows(
        self, source: np.ndarray, src_idx: np.ndarray, receivers: np.ndarray
    ) -> None:
        super().scatter_rows(source, src_idx, receivers)
        # External rows carry unknown word sets; the receivers leave the
        # frontier rather than re-deriving their active words.
        self._mark_dense(np.asarray(receivers, dtype=np.int64))

    def assign_rows(self, nodes: np.ndarray, row: np.ndarray) -> None:
        super().assign_rows(nodes, row)
        self._mark_dense(np.asarray(nodes, dtype=np.int64))

    # ------------------------------------------------------------------ #
    # Frontier-aware recounts
    # ------------------------------------------------------------------ #
    def count_missing(self, mask: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Deficits from the active frontier words instead of full-row scans.

        For a frontier row every word outside its active set is zero, so
        ``popcount(mask & ~row) == popcount(mask) - sum_w popcount(mask[w] &
        row[w])`` over the row's active words only — exact, not an estimate.
        Dense-flagged rows fall back to the parent's scan (compiled when
        available).  Pinned bit-identical to the scan path by
        ``tests/engine/test_layouts.py``.
        """
        mask = self._word_row(mask, "mask")
        rows = _ids(rows, self.n_nodes, "rows")
        if rows.size == 0 or self._retired:
            return super().count_missing(mask, rows)
        dense_sel = self._dense_rows[rows]
        out = np.empty(rows.size, dtype=np.int64)
        if dense_sel.any():
            out[dense_sel] = super().count_missing(mask, rows[dense_sel])
        frontier_rows = rows[~dense_sel]
        if frontier_rows.size:
            total = int(np.bitwise_count(mask).sum())
            nnz = self._nnz[frontier_rows]
            pairs = int(nnz.sum())
            known = np.zeros(frontier_rows.size, dtype=np.int64)
            if pairs:
                tx = np.repeat(np.arange(frontier_rows.size, dtype=np.int64), nnz)
                ends = np.cumsum(nnz)
                rank = np.arange(pairs, dtype=np.int64) - np.repeat(ends - nnz, nnz)
                r = frontier_rows[tx]
                w = self._active_words[r, rank].astype(np.int64)
                got = np.bitwise_count(self.data[r, w] & mask[w]).astype(np.int64)
                np.add.at(known, tx, got)
            out[~dense_sel] = total - known
        return out

    # ------------------------------------------------------------------ #
    # Introspection (used by tests and the benchmark harness)
    # ------------------------------------------------------------------ #
    def frontier_fraction(self) -> float:
        """Fraction of rows still on the frontier (sparse) path."""
        return 1.0 - float(self._dense_rows.mean())

    def storage_nbytes(self) -> int:
        total = super().storage_nbytes()
        for buf in (
            self._nnz,
            self._active_words,
            self._word_active,
            self._dense_rows,
            self._val_buf,
            self._lin_buf,
        ):
            if buf is not None:
                total += buf.nbytes
        return total


#: Minimum row width (in 64-bit words) for the frontier representation to
#: pay for its bookkeeping; narrower matrices always use the dense kernels.
#: Re-measured after the SIMD kernels landed (they shifted the break-even
#: upward — vectorized dense passes got cheaper while the frontier's
#: per-row bookkeeping did not; sweep in docs/benchmarks.md): whole-protocol
#: push-pull is a wash at 64-79 words and only wins from ~96 words up.
_FRONTIER_MIN_WORDS = 96


def dense_knowledge(
    n_nodes: int, n_messages: Optional[int] = None
) -> KnowledgeMatrix:
    """The dense-family knowledge state for a problem size.

    Returns a :class:`FrontierKnowledge` (sparse/dense adaptive) for wide
    matrices (``>= 96`` words, i.e. ``n_messages >= 6081``); narrow rows are
    cheap to move whole — especially through the SIMD word-OR kernels — so
    smaller problems stay on the plain dense :class:`KnowledgeMatrix`.  Both
    produce bit-identical trajectories.
    """
    words = _n_words(n_nodes if n_messages is None else n_messages)
    if words < _FRONTIER_MIN_WORDS:
        return KnowledgeMatrix(n_nodes, n_messages)
    return FrontierKnowledge(n_nodes, n_messages)


def adaptive_knowledge(
    n_nodes: int, n_messages: Optional[int] = None
) -> KnowledgeMatrix:
    """The knowledge state protocols should instantiate.

    Delegates to the layout registry (:mod:`repro.engine.layouts`): the
    documented memory model picks dense storage while it fits the budget and
    the paged layout beyond, and ``REPRO_KNOWLEDGE_LAYOUT`` or a
    per-scope :func:`repro.engine.layouts.use` override forces a specific
    layout.  All layouts produce bit-identical trajectories.
    """
    from . import layouts

    return layouts.make_knowledge(n_nodes, n_messages)


class SingleMessageState:
    """Informed/uninformed state for single-message broadcasting baselines.

    Parameters
    ----------
    n_nodes:
        Number of nodes in the network.
    source:
        The initially informed node (defaults to node 0).
    """

    __slots__ = ("n_nodes", "informed", "informed_at")

    def __init__(self, n_nodes: int, source: int = 0) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if not 0 <= source < n_nodes:
            raise ValueError(f"source {source} out of range [0, {n_nodes})")
        self.n_nodes = int(n_nodes)
        self.informed = np.zeros(n_nodes, dtype=bool)
        self.informed[source] = True
        #: round index at which each node was first informed (-1 = never).
        self.informed_at = np.full(n_nodes, -1, dtype=np.int64)
        self.informed_at[source] = 0

    def num_informed(self) -> int:
        """Number of currently informed nodes."""
        return int(self.informed.sum())

    def is_complete(self) -> bool:
        """True when all nodes are informed."""
        return bool(self.informed.all())

    def inform(self, nodes: np.ndarray, round_index: int) -> int:
        """Mark ``nodes`` as informed during ``round_index``.

        Returns the number of *newly* informed nodes.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return 0
        fresh = nodes[~self.informed[nodes]]
        fresh = np.unique(fresh)
        self.informed[fresh] = True
        self.informed_at[fresh] = round_index
        return int(fresh.size)

    def uninformed_nodes(self) -> np.ndarray:
        """Array of nodes that are still uninformed."""
        return np.flatnonzero(~self.informed)

    def informed_nodes(self) -> np.ndarray:
        """Array of nodes that are informed."""
        return np.flatnonzero(self.informed)
