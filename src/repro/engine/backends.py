"""Kernel backend registry: one dispatch surface over interchangeable kernels.

The knowledge/completion hot paths, and the ``G(n, p)`` build and
connectivity check, run on one of two interchangeable implementations, and
protocols never see which one is active:

``numpy``
    Pure-NumPy kernels (the layered scatter-OR and ``reduceat`` merges
    implemented inside :mod:`repro.engine.knowledge`, the graph code in
    :mod:`repro.graphs`).  Always available; the fallback whenever the
    compiled library is missing.

``c``
    The compiled kernels from :mod:`repro.engine._ckernel` — swap-form
    exchange rounds, the scatter-OR from pre-gathered or external rows, the
    word-sparse frontier pass, and the mask-and-popcount deficit recount —
    with a thread budget, plus three serial kernels: the in-place push
    batch, which applies every push batch, and the two graph kernels (the
    CSR fill from sorted pair indices and a queue BFS).  Each sharded batch
    picks its own shard count from its word traffic, with a measured
    small-batch cutoff so small runs never pay pool-dispatch overhead.
    Receiver rows are partitioned into disjoint contiguous shards and all
    gathers precede all writes, so trajectories are **bit-identical at
    every thread count** (see ``docs/parallelism.md``).

Selection is environment driven and resolved once per process:

``REPRO_KERNEL_BACKEND``
    ``auto`` (default), ``numpy`` or ``c``.  ``auto`` picks ``c`` when the
    compiled library is available and ``numpy`` otherwise.

``REPRO_KERNEL_THREADS``
    Thread budget for ``c`` (default: the machine's CPU count).  ``1``
    runs every batch on the calling thread.

``REPRO_DISABLE_CKERNEL``
    Back-compat kill switch: prevents the compiled build entirely, so every
    backend resolves to NumPy behaviour.

Tests and benchmarks can override the process-wide choice with
:func:`use` (a context manager) or :func:`set_active`.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Type

import numpy as np

from . import _ckernel

__all__ = [
    "BACKENDS",
    "CBackend",
    "KernelBackend",
    "NumpyBackend",
    "active",
    "default_max_threads",
    "resolve",
    "set_active",
    "simd_info",
    "use",
]


def simd_info() -> Dict[str, object]:
    """The compiled library's SIMD dispatch state for report headers."""
    return {
        "active": _ckernel.simd_name(),
        "detected": _ckernel.simd_name(_ckernel.simd_detected()),
        "disabled": bool(os.environ.get("REPRO_DISABLE_SIMD")),
    }

#: Word-units (64-bit word OR-or-copy operations) of batch work per shard.
#: Measured on the committed baseline machine: pool dispatch costs ~5 us per
#: job and the serial kernels move ~1 word/ns, so a shard must carry roughly
#: 64Ki word-units (~60 us of serial work) before splitting it off pays.
#: Batches below twice this never thread — in particular a full n=1000
#: exchange round (~48k word-units) always stays serial.
WORDS_PER_SHARD = 1 << 16


def default_max_threads() -> int:
    """Thread budget for ``c``: ``REPRO_KERNEL_THREADS`` or CPU count."""
    env = os.environ.get("REPRO_KERNEL_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_KERNEL_THREADS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


class KernelBackend:
    """Interface every kernel backend implements.

    The knowledge-matrix code is structured as *"if the backend is compiled,
    hand it the batch; otherwise run the in-line NumPy kernels"* — so the one
    method every backend must answer is :meth:`use_compiled`.  Only
    :class:`CBackend` has batch methods, and callers reach them only after
    :meth:`use_compiled` returned true.
    """

    name = "abstract"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def use_compiled(self) -> bool:
        """Whether the compiled batch methods may be called."""
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """Backend identity for benchmark/report headers.

        ``ckernel`` is :func:`repro.engine._ckernel.status`: ``"loaded"``,
        or why the compiled kernels are unavailable.
        """
        return {
            "name": self.name,
            "compiled": self.use_compiled(),
            "max_threads": 1,
            "ckernel": _ckernel.status(),
        }


class NumpyBackend(KernelBackend):
    """Pure-NumPy execution: every call site takes its in-line NumPy path."""

    name = "numpy"

    def use_compiled(self) -> bool:
        return False


class CBackend(KernelBackend):
    """The compiled kernels, each batch sharded across up to ``max_threads``.

    Parameters
    ----------
    max_threads:
        Upper bound on shards per batch (default
        :func:`default_max_threads`); ``1`` runs every batch on the calling
        thread.
    shard_work:
        Word-units of batch work per shard (default
        :data:`WORDS_PER_SHARD`).  Tests force tiny values to exercise the
        sharded kernels on small batches; benchmarks may raise it to study
        the dispatch cutoff.
    """

    name = "c"

    def __init__(
        self,
        max_threads: Optional[int] = None,
        shard_work: Optional[int] = None,
    ) -> None:
        self.max_threads = (
            default_max_threads() if max_threads is None else max(1, int(max_threads))
        )
        self.shard_work = (
            WORDS_PER_SHARD if shard_work is None else max(1, int(shard_work))
        )

    def __repr__(self) -> str:
        return (
            f"CBackend(max_threads={self.max_threads}, "
            f"shard_work={self.shard_work})"
        )

    def use_compiled(self) -> bool:
        # Checked live (not cached) so tests may stub out the library.
        return _ckernel.available()

    def describe(self) -> Dict[str, object]:
        described = super().describe()
        described.update(
            max_threads=self.max_threads,
            simd=simd_info(),
            shard_work=self.shard_work,
        )
        return described

    def threads_for(self, work_units: int) -> int:
        """Shard count for a batch moving ``work_units`` 64-bit words.

        One shard per :attr:`shard_work` word-units, clamped to
        :attr:`max_threads`; batches under two shards' worth of work run
        on the calling thread (the measured small-batch cutoff — dispatching
        the pool for less work than it amortizes would *slow down* small n).
        """
        threads = min(self.max_threads, work_units // self.shard_work)
        return int(threads) if threads >= 2 else 1

    def _shards(self, work_units: int) -> int:
        return _ckernel.ensure_shards(self.threads_for(work_units))

    def scatter_or(self, data, source, senders, receivers) -> None:
        shards = self._shards(senders.size * data.shape[1])
        _ckernel.scatter_or(data, source, senders, receivers, shards)

    def exchange(
        self, data, scratch, callers, targets, off, adj,
        mask=None, deficits=None,
    ) -> None:
        """Swap-form round: writes the next state into ``scratch``; the
        caller swaps the buffers afterwards (see ``_ckernel.exchange``).
        ``mask``/``deficits`` opt into the fused completion recount."""
        # Every row is read and written once, plus a partner row per
        # channel direction.
        n, words = data.shape
        shards = self._shards((2 * n + 2 * callers.size) * words)
        _ckernel.exchange(
            data, scratch, callers, targets, off, adj, mask, deficits, shards
        )

    def exchange_filtered(
        self, data, scratch, callers, targets, off, adj,
        complete, promoted, full_row, mask=None, deficits=None,
    ) -> None:
        """Saturation-filtered swap-form round (see
        ``_ckernel.exchange_filtered``): complete receivers keep their
        rows, receivers of complete senders get one ``full_row`` memcpy
        (reported in ``promoted``)."""
        n, words = data.shape
        shards = self._shards((2 * n + 2 * callers.size) * words)
        _ckernel.exchange_filtered(
            data, scratch, callers, targets, off, adj,
            complete, promoted, full_row, mask, deficits, shards,
        )

    def frontier_scatter(
        self, data, active, nnz, word_active, dense_rows,
        senders, receivers, val_buf, lin_buf, total,
    ) -> None:
        # ``total`` word pairs are gathered and scattered once each.
        shards = self._shards(2 * total)
        _ckernel.frontier_scatter(
            data, active, nnz, word_active, dense_rows,
            senders, receivers, val_buf, lin_buf, shards,
        )

    def recount_deficits(self, data, mask, rows) -> np.ndarray:
        shards = self._shards(rows.size * data.shape[1])
        return _ckernel.recount_deficits(data, mask, rows, shards)

    # The in-place push and the graph kernels are serial: they never wake
    # the thread pool.
    def push_in_place(self, data, senders, receivers, plan) -> None:
        """Push batch applied straight into ``data``, each sender read
        before anything writes it (see ``_ckernel.push_in_place``)."""
        _ckernel.push_in_place(data, senders, receivers, plan)

    def pairs_csr(self, n, pairs):
        """CSR ``(indptr, indices)`` of ``G(n, p)`` from its sorted pair
        indices, with ``int32`` ids (see ``_ckernel.pairs_csr``)."""
        return _ckernel.pairs_csr(n, pairs)

    def is_connected(self, indptr, indices) -> bool:
        """Queue BFS from node 0 over a valid CSR graph, reading its
        ``int32`` ids in place."""
        return _ckernel.bfs_connected(indptr, indices)


#: Backend registry: name -> class.  ``auto`` is a resolution rule, not a
#: registry entry — see :func:`resolve`.
BACKENDS: Dict[str, Type[KernelBackend]] = {
    NumpyBackend.name: NumpyBackend,
    CBackend.name: CBackend,
}


def resolve(
    name: Optional[str] = None, *, max_threads: Optional[int] = None
) -> KernelBackend:
    """Construct the backend ``name`` (or the environment's choice).

    ``name=None`` reads ``REPRO_KERNEL_BACKEND`` (default ``auto``).
    ``auto`` picks the compiled kernels when the library is available and
    NumPy otherwise.  ``max_threads`` is the compiled backend's thread
    budget (default :func:`default_max_threads`).
    """
    if name is None:
        name = os.environ.get("REPRO_KERNEL_BACKEND", "").strip().lower() or "auto"
    if name == "auto":
        name = "c" if _ckernel.available() else "numpy"
    try:
        cls = BACKENDS[name]
    except KeyError:
        options = ", ".join(sorted(BACKENDS) + ["auto"])
        raise ValueError(
            f"unknown kernel backend {name!r} (choose from: {options})"
        ) from None
    if cls is NumpyBackend:
        return NumpyBackend()
    if not _ckernel.available():
        # An *explicit* request for the compiled backend that cannot run
        # compiled code must not degrade silently: every dispatch site
        # would quietly take the NumPy path, so e.g. a CI job meant to
        # exercise the sharded kernels would pass green without covering
        # them.  Warn loudly (the run is still correct, just not what was
        # asked for).
        warnings.warn(
            f"kernel backend {name!r} was requested but the compiled "
            "library is unavailable (no C compiler, failed build, or "
            "REPRO_DISABLE_CKERNEL set); kernels will run on NumPy",
            RuntimeWarning,
            stacklevel=2,
        )
    return CBackend(max_threads=max_threads)


_ACTIVE: Optional[KernelBackend] = None


def active() -> KernelBackend:
    """The process-wide backend (resolved from the environment on first use)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = resolve()
    return _ACTIVE


def set_active(backend: Optional[KernelBackend]) -> None:
    """Install ``backend`` process-wide; ``None`` re-resolves from the env."""
    global _ACTIVE
    _ACTIVE = backend


@contextmanager
def use(
    backend: "str | KernelBackend", **kwargs: object
) -> Iterator[KernelBackend]:
    """Temporarily switch the active backend (tests, benchmark A/B runs)."""
    if not isinstance(backend, KernelBackend):
        backend = resolve(backend, **kwargs)
    previous = _ACTIVE
    set_active(backend)
    try:
        yield backend
    finally:
        set_active(previous)
