"""Kernel backend registry: one dispatch surface over interchangeable kernels.

The knowledge/completion hot paths can run on three interchangeable
implementations, and protocols never see which one is active:

``numpy``
    Pure-NumPy kernels (the layered scatter-OR and ``reduceat`` merges
    implemented inside :mod:`repro.engine.knowledge`).  Always available;
    the fallback whenever the compiled library is missing.

``c``
    The serial compiled kernels from :mod:`repro.engine._ckernel` — fused
    snapshot + scatter-OR rounds, the word-sparse frontier pass, and the
    mask-and-popcount deficit recount.

``c-threads``
    The same compiled kernels, sharded across a persistent worker pool.
    Receiver rows are partitioned into disjoint contiguous shards and all
    gathers precede all writes, so trajectories are **bit-identical to the
    serial kernels for every thread count** (see ``docs/parallelism.md``).
    The per-batch thread count is chosen automatically from the batch's
    word traffic, with a measured small-batch cutoff so small runs never
    pay pool-dispatch overhead.

Selection is environment driven and resolved once per process:

``REPRO_KERNEL_BACKEND``
    ``auto`` (default), ``numpy``, ``c`` or ``c-threads``.  ``auto`` picks
    ``c-threads`` when the compiled library is available and more than one
    thread is allowed, ``c`` when compiled but single-threaded, and
    ``numpy`` otherwise.

``REPRO_KERNEL_THREADS``
    Maximum threads for ``c-threads`` (default: the machine's CPU count).
    ``1`` degenerates to serial dispatch.

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
    "CSerialBackend",
    "CThreadsBackend",
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
    """Thread budget for ``c-threads``: ``REPRO_KERNEL_THREADS`` or CPU count."""
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
    method every backend must answer is :meth:`use_compiled`.  The batch
    methods mirror the :mod:`repro.engine._ckernel` primitives and are only
    invoked when :meth:`use_compiled` returned true.
    """

    name = "abstract"

    def use_compiled(self) -> bool:
        """Whether the compiled batch methods below may be called."""
        raise NotImplementedError

    def threads_for(self, work_units: int) -> int:
        """Threads a batch of ``work_units`` word-units would be run on."""
        return 1

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

    # -- compiled batch primitives (only called when use_compiled()) ---- #
    def scatter_or(self, data, source, senders, receivers) -> None:
        raise NotImplementedError

    def exchange(
        self, data, scratch, callers, targets, off, adj,
        mask=None, deficits=None,
    ) -> None:
        """Swap-form round: writes the next state into ``scratch``; the
        caller swaps the buffers afterwards (see ``_ckernel.exchange``).
        ``mask``/``deficits`` opt into the fused completion recount."""
        raise NotImplementedError

    def exchange_filtered(
        self, data, scratch, callers, targets, off, adj,
        complete, promoted, full_row, mask=None, deficits=None,
    ) -> None:
        """Saturation-filtered swap-form round (see
        ``_ckernel.exchange_filtered``): complete receivers keep their
        rows, receivers of complete senders get one ``full_row`` memcpy
        (reported in ``promoted``)."""
        raise NotImplementedError

    def push_round(self, data, scratch, senders, receivers, off, adj) -> None:
        raise NotImplementedError

    def frontier_scatter(
        self, data, active, nnz, word_active, dense_rows,
        senders, receivers, val_buf, lin_buf, total,
    ) -> None:
        raise NotImplementedError

    def recount_deficits(self, data, mask, rows) -> np.ndarray:
        raise NotImplementedError


class NumpyBackend(KernelBackend):
    """Pure-NumPy execution: every call site takes its in-line NumPy path."""

    name = "numpy"

    def use_compiled(self) -> bool:
        return False


class CSerialBackend(KernelBackend):
    """Serial compiled kernels (the PR 1-3 behaviour)."""

    name = "c"

    def use_compiled(self) -> bool:
        # Checked live (not cached) so tests may stub out the library.
        return _ckernel.available()

    def describe(self) -> Dict[str, object]:
        return {**super().describe(), "simd": simd_info()}

    def scatter_or(self, data, source, senders, receivers) -> None:
        _ckernel.scatter_or(data, source, senders, receivers)

    def exchange(
        self, data, scratch, callers, targets, off, adj,
        mask=None, deficits=None,
    ) -> None:
        _ckernel.exchange(
            data, scratch, callers, targets, off, adj, mask, deficits
        )

    def exchange_filtered(
        self, data, scratch, callers, targets, off, adj,
        complete, promoted, full_row, mask=None, deficits=None,
    ) -> None:
        _ckernel.exchange_filtered(
            data, scratch, callers, targets, off, adj,
            complete, promoted, full_row, mask, deficits,
        )

    def push_round(self, data, scratch, senders, receivers, off, adj) -> None:
        _ckernel.push_round(data, scratch, senders, receivers, off, adj)

    def frontier_scatter(
        self, data, active, nnz, word_active, dense_rows,
        senders, receivers, val_buf, lin_buf, total,
    ) -> None:
        _ckernel.frontier_scatter(
            data, active, nnz, word_active, dense_rows,
            senders, receivers, val_buf, lin_buf,
        )

    def recount_deficits(self, data, mask, rows) -> np.ndarray:
        return _ckernel.recount_deficits(data, mask, rows)


class CThreadsBackend(CSerialBackend):
    """Compiled kernels sharded across the persistent worker pool.

    Parameters
    ----------
    max_threads:
        Upper bound on shards per batch (default
        :func:`default_max_threads`).
    shard_work:
        Word-units of batch work per shard (default
        :data:`WORDS_PER_SHARD`).  Tests force tiny values to exercise the
        threaded kernels on small batches; benchmarks may raise it to study
        the dispatch cutoff.
    """

    name = "c-threads"

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

    def describe(self) -> Dict[str, object]:
        described = super().describe()
        described.update(max_threads=self.max_threads, shard_work=self.shard_work)
        return described

    def threads_for(self, work_units: int) -> int:
        """Shard count for a batch moving ``work_units`` 64-bit words.

        One shard per :attr:`shard_work` word-units, clamped to
        :attr:`max_threads`; batches under two shards' worth of work run
        serial (the measured small-batch cutoff — dispatching the pool for
        less work than it amortizes would *slow down* small n).
        """
        threads = min(self.max_threads, work_units // self.shard_work)
        return int(threads) if threads >= 2 else 1

    def _shards(self, work_units: int) -> int:
        threads = self.threads_for(work_units)
        if threads <= 1:
            return 1
        return _ckernel.ensure_shards(threads)

    def scatter_or(self, data, source, senders, receivers) -> None:
        shards = self._shards(senders.size * data.shape[1])
        if shards > 1:
            _ckernel.scatter_or_mt(data, source, senders, receivers, shards)
        else:
            _ckernel.scatter_or(data, source, senders, receivers)

    def exchange(
        self, data, scratch, callers, targets, off, adj,
        mask=None, deficits=None,
    ) -> None:
        # Every row is read and written once, plus a partner row per
        # channel direction.
        n, words = data.shape
        shards = self._shards((2 * n + 2 * callers.size) * words)
        if shards > 1:
            _ckernel.exchange_mt(
                data, scratch, callers, targets, off, adj, shards,
                mask, deficits,
            )
        else:
            _ckernel.exchange(
                data, scratch, callers, targets, off, adj, mask, deficits
            )

    def exchange_filtered(
        self, data, scratch, callers, targets, off, adj,
        complete, promoted, full_row, mask=None, deficits=None,
    ) -> None:
        n, words = data.shape
        shards = self._shards((2 * n + 2 * callers.size) * words)
        if shards > 1:
            _ckernel.exchange_filtered_mt(
                data, scratch, callers, targets, off, adj,
                complete, promoted, full_row, shards, mask, deficits,
            )
        else:
            _ckernel.exchange_filtered(
                data, scratch, callers, targets, off, adj,
                complete, promoted, full_row, mask, deficits,
            )

    def push_round(self, data, scratch, senders, receivers, off, adj) -> None:
        n, words = data.shape
        shards = self._shards((2 * n + senders.size) * words)
        if shards > 1:
            _ckernel.push_round_mt(
                data, scratch, senders, receivers, off, adj, shards
            )
        else:
            _ckernel.push_round(data, scratch, senders, receivers, off, adj)

    def frontier_scatter(
        self, data, active, nnz, word_active, dense_rows,
        senders, receivers, val_buf, lin_buf, total,
    ) -> None:
        # ``total`` word pairs are gathered and scattered once each.
        shards = self._shards(2 * total)
        if shards > 1:
            _ckernel.frontier_scatter_mt(
                data, active, nnz, word_active, dense_rows,
                senders, receivers, val_buf, lin_buf, shards,
            )
        else:
            _ckernel.frontier_scatter(
                data, active, nnz, word_active, dense_rows,
                senders, receivers, val_buf, lin_buf,
            )

    def recount_deficits(self, data, mask, rows) -> np.ndarray:
        shards = self._shards(rows.size * data.shape[1])
        if shards > 1:
            return _ckernel.recount_deficits_mt(data, mask, rows, shards)
        return _ckernel.recount_deficits(data, mask, rows)


#: Backend registry: name -> class.  ``auto`` is a resolution rule, not a
#: registry entry — see :func:`resolve`.
BACKENDS: Dict[str, Type[KernelBackend]] = {
    NumpyBackend.name: NumpyBackend,
    CSerialBackend.name: CSerialBackend,
    CThreadsBackend.name: CThreadsBackend,
}


def resolve(
    name: Optional[str] = None, *, max_threads: Optional[int] = None
) -> KernelBackend:
    """Construct the backend ``name`` (or the environment's choice).

    ``name=None`` reads ``REPRO_KERNEL_BACKEND`` (default ``auto``).
    ``auto`` picks the fastest correct option for this process: the
    threaded compiled kernels when available and more than one thread is
    allowed, the serial compiled kernels when single-threaded, NumPy when
    there is no compiled library at all.
    """
    if name is None:
        name = os.environ.get("REPRO_KERNEL_BACKEND", "").strip().lower() or "auto"
    if name == "auto":
        if not _ckernel.available():
            return NumpyBackend()
        threads = default_max_threads() if max_threads is None else max_threads
        if threads > 1:
            return CThreadsBackend(max_threads=threads)
        return CSerialBackend()
    try:
        cls = BACKENDS[name]
    except KeyError:
        options = ", ".join(sorted(BACKENDS) + ["auto"])
        raise ValueError(
            f"unknown kernel backend {name!r} (choose from: {options})"
        ) from None
    if cls is not NumpyBackend and not _ckernel.available():
        # An *explicit* request for a compiled backend that cannot run
        # compiled code must not degrade silently: every dispatch site
        # would quietly take the NumPy path, so e.g. a CI job meant to
        # exercise the threaded kernels would pass green without covering
        # them.  Warn loudly (the run is still correct, just not what was
        # asked for).
        warnings.warn(
            f"kernel backend {name!r} was requested but the compiled "
            "library is unavailable (no C compiler, failed build, or "
            "REPRO_DISABLE_CKERNEL set); kernels will run on NumPy",
            RuntimeWarning,
            stacklevel=2,
        )
    if cls is CThreadsBackend:
        return CThreadsBackend(max_threads=max_threads)
    return cls()


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
