"""Optional compiled kernels for the packed-bitset hot path.

NumPy's fancy-indexing machinery moves every gathered row through fresh
temporaries, which caps the gossip kernel's throughput well below what the
hardware allows.  This module compiles a small C library once per machine
with the system C compiler and loads it through :mod:`ctypes`.  Its
knowledge primitives are the swap-form exchange kernel :func:`exchange`
(build the round's incoming-sender CSR, write each row's next state
exactly once into the spare buffer, caller swaps — about half the traffic
of snapshot + read-modify-write), the serial :func:`push_in_place`, which
applies every push batch straight into the matrix in an order that reads
every sender before anything writes it, the order-independent
:func:`scatter_or` from rows stored apart from the written ones, and the
fused mask-and-popcount deficit :func:`recount_deficits`.  Two serial graph
kernels sit beside them: :func:`pairs_csr` builds the CSR of ``G(n, p)``
straight from the sampler's sorted pair indices, and
:func:`bfs_connected` is the connectivity check.

Every other knowledge primitive takes a trailing ``shards`` count (the
serial kernels take none and never wake the pool).  One shard (the default)
runs inline on the calling thread, lock-free.  More partition the *receiver
rows* of a batch into disjoint contiguous shards across a persistent worker
pool; :func:`ensure_shards` grows the pool and returns the count to pass.
Because shards partition receivers and every gather still strictly precedes
every write, the results are bit-identical for any shard count; see
``docs/parallelism.md`` for the determinism argument.  Callers do not pick
a shard count here — the per-batch thread count lives in
:mod:`repro.engine.backends`.

All knowledge kernels run their word loops through three
runtime-dispatched row primitives (OR-2, OR-accumulate, masked popcount)
with scalar, AVX2 and AVX-512 variants selected per CPU at load time
(``repro_simd_set``).  The x86 variants are written with the compiler's
generic vector types and per-function ``target`` attributes, not an
intrinsics header, whose parsing alone would take most of the cold build.
``REPRO_DISABLE_SIMD`` pins the honest scalar forms, and
:func:`set_simd_level` / :func:`simd_active` expose the dispatch to
Python.  The swap-form kernel
additionally accepts a completion mask to fuse deficit recounts into the
round, and optional complete-row flags that drop edges into complete rows
and memcpy the full row into receivers of complete senders instead of
re-ORing them — see ``docs/architecture.md``.

The C lives in package files under ``kernels/``: ``simd.c`` holds the row
primitives, their dispatch pointers and the level selection; ``kernels.c``
holds everything else; ``simd.h`` declares the three pointers both units
share.  A build starts one ``cc -c`` per unit at once, so the two compile
in parallel on two cores, then links the objects into one shared library.

The build is strictly best-effort: if no compiler is present, the build
fails, or ``REPRO_DISABLE_CKERNEL`` is set in the environment, callers fall
back to the pure-NumPy implementations (which are semantically identical —
see ``tests/engine/test_kernel_equivalence.py``).  Both ``REPRO_DISABLE_*``
switches are read by :func:`env_flag`: a value that strips to empty or
``0`` leaves a switch unset.  A failure never breaks
the import: :func:`status` names its reason, the ``describe()`` of every
kernel backend carries it, and it is logged once at WARNING on this
module's logger.  The shared library is cached in a private per-user
directory keyed on the build flags, the bytes of every source file and the
CPU signature, so repeated imports pay nothing and heterogeneous machines
sharing a filesystem never load each other's tuned binaries.  A cached file
that does not load is removed and built again, once.  A build logs one INFO
record naming the compiler, its wall seconds and the library path.
"""

from __future__ import annotations

import contextlib
import ctypes
import getpass
import hashlib
import logging
import os
import platform
import shutil
import signal
import subprocess
import tempfile
import time
from typing import Optional, Tuple

import _ctypes
import numpy as np

_log = logging.getLogger(__name__)

__all__ = [
    "SIMD_LEVELS",
    "available",
    "bfs_connected",
    "ensure_shards",
    "env_flag",
    "exchange",
    "push_in_place",
    "library_path",
    "pairs_csr",
    "recount_deficits",
    "scatter_or",
    "set_simd_level",
    "simd_active",
    "simd_detected",
    "simd_name",
    "status",
]


def env_flag(name: str) -> bool:
    """Whether the on/off environment switch ``name`` is set.

    The value is stripped; empty or ``0`` means unset, anything else set.
    ``REPRO_DISABLE_CKERNEL`` and ``REPRO_DISABLE_SIMD`` are read through
    this one rule.
    """
    return os.environ.get(name, "").strip() not in ("", "0")


def _cpu_signature() -> str:
    """A machine identifier for the cache key.

    The SIMD code paths are selected at *runtime*, so the binary itself is
    portable across x86-64 machines — but it is tuned with ``-mtune=native``
    and the safest policy for a cache shared across heterogeneous CPUs
    (e.g. TMPDIR or HOME on a cluster filesystem) is still one binary per
    microarchitecture.  The CPU feature flags are the closest portable
    proxy.
    """
    parts = [platform.machine()]
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    parts.append(line)
                    break
    except OSError:
        parts.append(platform.processor())
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:8]


def _cache_dir(digest: str) -> str:
    """A private, user-owned directory to build and load the library from.

    ``ctypes.CDLL`` executes code from the returned path, so it must not be
    attacker-preparable: prefer ``~/.cache``, fall back to a per-user temp
    directory, create it ``0700``, and refuse paths not owned by us or
    writable by others.  Raises :class:`OSError` when the directory cannot
    be created or is refused.
    """
    try:
        user = getpass.getuser()
    except Exception:  # pragma: no cover - exotic environments
        user = f"uid{os.getuid()}" if hasattr(os, "getuid") else "unknown"
    home_cache = os.path.join(os.path.expanduser("~"), ".cache")
    base = home_cache if os.path.isdir(home_cache) else tempfile.gettempdir()
    cache_dir = os.path.join(base, f"repro-ckernel-{user}-{digest}")
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    if hasattr(os, "getuid"):
        st = os.stat(cache_dir)
        if st.st_uid != os.getuid() or (st.st_mode & 0o022):
            raise PermissionError(
                f"{cache_dir} is not owned by this user or is writable by others"
            )
    return cache_dir


#: The package directory holding the C sources, read at build time.
_KERNEL_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels")

#: The translation units, each compiled by its own compiler process.
_UNITS = ("simd.c", "kernels.c")

#: The header both units include; its bytes are part of the cache key.
_HEADERS = ("simd.h",)

#: Compile flags.  Deliberately NOT ``-march=native``: the command-line ISA
#: set is additive with per-function ``target`` attributes, so with
#: ``-march=native`` an "avx2" dispatch variant could legally be compiled
#: with AVX-512 instructions and the per-level timings (and the scalar
#: control) would lie.  ``-mtune=native`` keeps scheduling tuned for the
#: build host without widening any function's ISA.
_CFLAGS = ("-O3", "-mtune=native", "-pthread", "-fPIC")

#: Link flags for the one shared library.
_LDFLAGS = ("-shared", "-pthread")

#: Seconds that all of one build's compiles and its link share.
_TIMEOUT_S = 120


class _BuildError(Exception):
    """A compile or link that failed or timed out; the message is the reason."""


def _wait(procs, deadline: float) -> None:
    """Wait for every ``(name, process)`` in turn until ``deadline``.

    Raises :class:`_BuildError` naming the first that fails or is still
    running at the deadline.  A later process may block on a full stderr
    pipe meanwhile; it resumes when its turn comes.
    """
    for name, proc in procs:
        try:
            _, stderr = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise _BuildError(f"compiler timed out after {_TIMEOUT_S} s: {name}") from None
        if proc.returncode != 0:
            lines = stderr.decode(errors="replace").strip().splitlines()
            last = lines[-1] if lines else f"exit status {proc.returncode}"
            raise _BuildError(f"compiler error: {name}: {last}")


def _compile(compiler: str, lib_path: str) -> None:
    """Build the library at ``lib_path`` from :data:`_UNITS`.

    Every unit's compile starts at once; the link follows when all have
    succeeded.  Everything is written in a private build directory next to
    ``lib_path`` (also the compilers' ``TMPDIR``) and the library moved into
    place with one rename, so concurrent cold-cache imports never load a
    half-written file.  Each compiler runs in its own session; on any
    failure every one still running is killed with its whole process group
    (a hung ``cc1`` or ``as`` too) and reaped, and the build directory is
    removed.  :class:`_BuildError` names the unit (or ``link``).
    """
    build_dir = tempfile.mkdtemp(prefix=".build-", dir=os.path.dirname(lib_path))
    env = {**os.environ, "TMPDIR": build_dir}
    objects = [os.path.join(build_dir, f"{unit}.o") for unit in _UNITS]
    tmp_path = os.path.join(build_dir, os.path.basename(lib_path))
    deadline = time.monotonic() + _TIMEOUT_S
    procs = []

    def start(name, args):
        procs.append((name, subprocess.Popen(
            [compiler, *args], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=env, start_new_session=True,
        )))

    try:
        for unit, obj in zip(_UNITS, objects):
            start(unit, [*_CFLAGS, "-c", os.path.join(_KERNEL_DIR, unit), "-o", obj])
        _wait(procs, deadline)
        start("link", [*_LDFLAGS, *objects, "-o", tmp_path])
        _wait(procs[-1:], deadline)
        os.replace(tmp_path, lib_path)
    finally:
        for _, proc in procs:
            if proc.returncode is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
            proc.stderr.close()
        shutil.rmtree(build_dir, ignore_errors=True)


def _bind(lib: ctypes.CDLL) -> None:
    """Declare every exported symbol's signature (AttributeError if missing)."""
    u64p = ctypes.POINTER(ctypes.c_uint64)
    i64p = ctypes.POINTER(ctypes.c_int64)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    i32p = ctypes.POINTER(ctypes.c_int32)
    i64 = ctypes.c_int64
    # Every kernel's last argument is its shard count.
    kernels = {
        "repro_scatter_or": [u64p, u64p, i64p, i64p, i64, i64, i64],
        "repro_exchange": [
            u64p, u64p, i64p, i64p, i64, i64, i64, i64p, i64p,
            u8p, u8p, u64p, u64p, i64p,
        ],
        "repro_recount": [u64p, u64p, i64p, i64, i64, i64p],
    }
    for name, argtypes in kernels.items():
        kernel = getattr(lib, name)
        kernel.argtypes = argtypes + [i64]
        kernel.restype = None
    # The serial kernels return a status and take no shard count.
    lib.repro_push_in_place.argtypes = [u64p, i64p, i64p, i64, i64, i64, i64p]
    lib.repro_push_in_place.restype = i64
    lib.repro_pairs_csr.argtypes = [i64p, i64, i64, i64p, i32p]
    lib.repro_pairs_csr.restype = i64
    lib.repro_bfs_connected.argtypes = [i64p, i32p, i64, i64p, u8p]
    lib.repro_bfs_connected.restype = i64
    lib.repro_simd_detect.argtypes = []
    lib.repro_simd_detect.restype = ctypes.c_int
    lib.repro_simd_set.argtypes = [ctypes.c_int]
    lib.repro_simd_set.restype = ctypes.c_int
    lib.repro_simd_active.argtypes = []
    lib.repro_simd_active.restype = ctypes.c_int
    lib.repro_pool_ensure.argtypes = [i64]
    lib.repro_pool_ensure.restype = i64


def library_path() -> str:
    """Where the library built from the kernel sources and flags lives.

    The cache directory is keyed on a digest of the compile and link flags
    and of every unit's and header's name and bytes, and on the CPU
    signature; it is created if missing.  :func:`_build` loads the file
    there when it exists and loads, and compiles it otherwise, so a
    loadable library placed at this path beforehand (say, a sanitizer
    build) is the one loaded.
    Raises :class:`OSError` when a source file cannot be read or the
    directory is refused.
    """
    digest = hashlib.sha256(("|".join(_CFLAGS) + "\n" + "|".join(_LDFLAGS)).encode())
    for name in (*_UNITS, *_HEADERS):
        with open(os.path.join(_KERNEL_DIR, name), "rb") as fh:
            data = fh.read()
        digest.update(f"\n{name} {len(data)}\n".encode())
        digest.update(data)
    cache_dir = _cache_dir(f"{digest.hexdigest()[:16]}-{_cpu_signature()}")
    return os.path.join(cache_dir, "libreprokernel.so")


def _load(lib_path: str) -> ctypes.CDLL:
    """Load and bind the library at ``lib_path``.

    A library that loads but lacks a symbol is closed again: ``dlopen``
    hands out an already-loaded library by its path, so it would shadow a
    rebuild at the same path.
    """
    lib = ctypes.CDLL(lib_path)
    try:
        _bind(lib)
    except AttributeError:
        _ctypes.dlclose(lib._handle)
        raise
    return lib


def _build() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    """Build, load and bind the library: ``(lib, None)`` or ``(None, reason)``.

    Never raises.  The reason is ``"disabled"`` when ``REPRO_DISABLE_CKERNEL``
    is set, otherwise it names the failure: no compiler, an unreadable
    source file, a refused cache directory, a compiler error or timeout
    (naming the unit, or the link), or a library that does not load or
    lacks a symbol.  A cached library that does not load or bind is
    removed and compiled again, once; a library this call just compiled
    is not.  A compile logs one INFO record with the compiler, its wall
    seconds and the library path.
    """
    if env_flag("REPRO_DISABLE_CKERNEL"):
        return None, "disabled"
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None, "no C compiler (cc, gcc or clang) on PATH"
    try:
        lib_path = library_path()
    except OSError as exc:
        if exc.filename is not None and os.path.dirname(exc.filename) == _KERNEL_DIR:
            return None, f"kernel source unreadable: {exc}"
        return None, f"cache directory refused: {exc}"
    try:
        if os.path.exists(lib_path):
            try:
                return _load(lib_path), None
            except (AttributeError, OSError):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(lib_path)
        start = time.perf_counter()
        _compile(compiler, lib_path)
        _log.info(
            "compiled kernels with %s in %.2f s: %s",
            compiler, time.perf_counter() - start, lib_path,
        )
        return _load(lib_path), None
    except _BuildError as exc:
        return None, str(exc)
    except AttributeError as exc:
        return None, f"missing symbol: {exc}"
    except OSError as exc:
        return None, f"library not built or loaded: {exc}"


_LIB, _UNAVAILABLE = _build()

if _UNAVAILABLE is not None and _UNAVAILABLE != "disabled":
    _log.warning("compiled kernels unavailable, using NumPy: %s", _UNAVAILABLE)

if _LIB is not None and env_flag("REPRO_DISABLE_SIMD"):
    _LIB.repro_simd_set(0)

_U64P = ctypes.POINTER(ctypes.c_uint64)
_I64P = ctypes.POINTER(ctypes.c_int64)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_I32P = ctypes.POINTER(ctypes.c_int32)


def available() -> bool:
    """Whether the compiled kernels are usable on this machine."""
    return _LIB is not None


def status() -> str:
    """``"loaded"``, or why the compiled kernels are unavailable.

    ``"disabled"`` means ``REPRO_DISABLE_CKERNEL`` is set (see
    :func:`env_flag`); anything else is the build or load failure logged at
    import.
    """
    if _LIB is not None:
        return "loaded"
    return _UNAVAILABLE or "unavailable"


#: Dispatch level names, indexed by the C-side level integer.
SIMD_LEVELS = ("scalar", "avx2", "avx512")


def simd_detected() -> int:
    """The highest SIMD level this CPU supports (0 when no compiled lib)."""
    if _LIB is None:
        return 0
    return int(_LIB.repro_simd_detect())


def simd_active() -> int:
    """The SIMD level currently installed in the dispatch pointers."""
    if _LIB is None:
        return 0
    return int(_LIB.repro_simd_active())


def set_simd_level(level: int) -> int:
    """Install ``level`` (clamped to hardware support); return the result.

    Level 0 is the honest scalar control (the hardware-POPCNT deficit
    counter stays installed when the CPU has it — POPCNT is not a vector
    instruction).  Intended for tests and the SIMD micro-benchmarks; must
    not race in-flight sharded kernels.
    """
    if _LIB is None:
        return 0
    return int(_LIB.repro_simd_set(ctypes.c_int(int(level))))


def simd_name(level: Optional[int] = None) -> str:
    """Human-readable name of ``level`` (default: the active level)."""
    if level is None:
        level = simd_active()
    return SIMD_LEVELS[max(0, min(int(level), len(SIMD_LEVELS) - 1))]


def _u64(arr: np.ndarray):
    return arr.ctypes.data_as(_U64P)


def _i64(arr: np.ndarray):
    return arr.ctypes.data_as(_I64P)


#: Worker threads known to exist in the C pool (grown lazily, never shrunk),
#: together with the process that owns them — pool threads do not survive
#: ``fork``, so a child process must not trust the inherited count.
_POOL_WORKERS = 0
_POOL_PID: Optional[int] = None

#: Hard cap on shards per job — far above any sensible core count, it only
#: bounds runaway configuration values.
MAX_SHARDS = 64


def ensure_shards(shards: int) -> int:
    """Grow the worker pool for ``shards``-way jobs; return the usable count.

    The calling thread always executes shard 0 itself, so ``shards`` shards
    need ``shards - 1`` pool workers.  Thread creation is best-effort: the
    return value (possibly just 1, meaning "run on the calling thread") is
    the shard count to pass to the kernels.  Safe after ``fork`` (e.g.
    inside ``ProcessPoolExecutor`` workers): the cached count is per-process
    and the C pool re-spawns its threads in the child.
    """
    global _POOL_WORKERS, _POOL_PID
    if _LIB is None or shards <= 1:
        return 1
    pid = os.getpid()
    if pid != _POOL_PID:
        _POOL_WORKERS = 0
        _POOL_PID = pid
    shards = min(int(shards), MAX_SHARDS)
    if shards - 1 > _POOL_WORKERS:
        _POOL_WORKERS = int(_LIB.repro_pool_ensure(ctypes.c_int64(shards - 1)))
    return min(shards, _POOL_WORKERS + 1)


def scatter_or(
    data: np.ndarray,
    source: np.ndarray,
    senders: np.ndarray,
    receivers: np.ndarray,
    shards: int = 1,
) -> None:
    """OR ``source[senders[i]]`` into ``data[receivers[i]]`` for all ``i``.

    ``source`` must not share storage with the written rows of ``data`` (it
    is the start-of-step snapshot), all arrays must be C-contiguous, and the
    index arrays must be ``int64``.
    """
    _LIB.repro_scatter_or(
        _u64(data),
        _u64(source),
        _i64(senders),
        _i64(receivers),
        ctypes.c_int64(senders.size),
        ctypes.c_int64(data.shape[0]),
        ctypes.c_int64(data.shape[1]),
        ctypes.c_int64(shards),
    )


def exchange(
    data: np.ndarray,
    scratch: np.ndarray,
    callers: np.ndarray,
    targets: np.ndarray,
    off: np.ndarray,
    adj: np.ndarray,
    complete: Optional[np.ndarray] = None,
    promoted: Optional[np.ndarray] = None,
    full_row: Optional[np.ndarray] = None,
    mask: Optional[np.ndarray] = None,
    deficits: Optional[np.ndarray] = None,
    shards: int = 1,
) -> None:
    """Apply one push-pull round in swap form.

    Reads ``data`` (unchanged) and writes the complete end-of-round state
    into ``scratch`` — every row exactly once — using the caller-provided
    CSR buffers (``off``: ``n + 1`` int64 slots, ``adj``: at least
    ``2 * callers.size``).  **The caller must swap the two buffers
    afterwards**; this halves the memory traffic of snapshot + RMW.

    ``complete`` (an ``n`` uint8 array, or ``None``: no row is complete)
    flags rows that already hold every required bit; edges into them are
    dropped and edges from them promote their receiver to a single
    ``full_row`` memcpy.  With ``complete`` given, ``promoted`` (an ``n``
    uint8 output array the caller must zero beforehand) reports the rows
    assigned ``full_row`` this round, and both are required.  Bit-identical
    to ORing every channel under the subset invariant (every row ⊆
    ``full_row``, complete rows == ``full_row``).

    When ``mask``/``deficits`` are given (a ``words`` uint64 row and an
    ``n`` int64 array), the kernel fuses the completion recount into the
    round: every OR-updated row gets ``deficits[r] = popcount(mask &
    ~row)`` written while the row is hot, and every promoted row gets 0.
    Untouched rows keep their prior deficit values (which remain correct —
    the rows did not change), so ``deficits`` must already hold valid
    counts on entry.
    """
    if complete is not None and (promoted is None or full_row is None):
        raise ValueError("complete needs promoted and full_row")
    _LIB.repro_exchange(
        _u64(data),
        _u64(scratch),
        _i64(callers),
        _i64(targets),
        ctypes.c_int64(callers.size),
        ctypes.c_int64(data.shape[0]),
        ctypes.c_int64(data.shape[1]),
        _i64(off),
        _i64(adj),
        complete.ctypes.data_as(_U8P) if complete is not None else None,
        promoted.ctypes.data_as(_U8P) if promoted is not None else None,
        _u64(full_row) if full_row is not None else None,
        _u64(mask) if mask is not None else None,
        _i64(deficits) if deficits is not None else None,
        ctypes.c_int64(shards),
    )


def push_in_place(
    data: np.ndarray, senders: np.ndarray, receivers: np.ndarray, plan: np.ndarray
) -> None:
    """OR each sender's start-of-batch row into its receiver, in ``data`` itself.

    No sender rows are copied except the few that close a cycle in the
    batch's sender -> receiver graph: the kernel orders the writes so that
    every sender is read before anything writes it (see ``kernels/kernels.c``).
    Serial.  ``plan`` is caller-owned ``int64`` scratch of at least
    ``4 n + 2 k`` entries (``n`` rows, ``k`` transmissions) whose first
    ``4 n`` are zero; the kernel leaves them zero.  Index arrays must be
    C-contiguous ``int64``.  Raises :class:`IndexError` (nothing written)
    when an index lies outside ``[0, n)``, and :class:`MemoryError` (the
    batch partly applied) when the cycle rows cannot be allocated.
    """
    n, words = data.shape
    k = senders.size
    if receivers.size != k or plan.size < 4 * n + 2 * k:
        raise ValueError("receivers must match senders, and plan needs 4 n + 2 k slots")
    status = _LIB.repro_push_in_place(
        _u64(data),
        _i64(senders),
        _i64(receivers),
        ctypes.c_int64(k),
        ctypes.c_int64(n),
        ctypes.c_int64(words),
        _i64(plan),
    )
    if status == -2:
        raise IndexError(f"transmission endpoints must lie in [0, {n})")
    if status != 0:
        raise MemoryError("cannot allocate the snapshot rows of a push batch")


def recount_deficits(
    data: np.ndarray, mask: np.ndarray, rows: np.ndarray, shards: int = 1
) -> np.ndarray:
    """Per-row count of bits in ``mask`` missing from ``data[rows]``."""
    deficits = np.empty(rows.size, dtype=np.int64)
    _LIB.repro_recount(
        _u64(data),
        _u64(mask),
        _i64(rows),
        ctypes.c_int64(rows.size),
        ctypes.c_int64(data.shape[1]),
        _i64(deficits),
        ctypes.c_int64(shards),
    )
    return deficits


def pairs_csr(n: int, pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the ``n``-node graph with edge set ``pairs``.

    ``pairs`` holds strictly increasing indices into the row-major upper
    triangle (pair ``(r, c)``, ``r < c``, is ``r*n - r*(r+1)/2 + c - r - 1``),
    as :mod:`repro.graphs.erdos_renyi` samples them.  Two serial O(n + m)
    passes, no sort; the rows come out sorted.  ``indptr`` is ``int64`` and
    ``indices`` ``int32``, the dtypes :class:`~repro.graphs.adjacency.Adjacency`
    keeps.  Raises :class:`ValueError` when ``pairs`` is not strictly
    increasing or leaves ``[0, n(n-1)/2)``, or when ``n`` exceeds the
    ``int32`` range.
    """
    pairs = np.ascontiguousarray(pairs, dtype=np.int64)
    if pairs.ndim != 1:
        raise ValueError("pair indices must be one-dimensional")
    if not 0 <= n <= np.iinfo(np.int32).max:
        raise ValueError(f"n must lie in [0, 2**31 - 1], got {n}")
    indptr = np.empty(n + 1, dtype=np.int64)
    indices = np.empty(2 * pairs.size, dtype=np.int32)
    status = _LIB.repro_pairs_csr(
        _i64(pairs),
        ctypes.c_int64(pairs.size),
        ctypes.c_int64(n),
        _i64(indptr),
        indices.ctypes.data_as(_I32P),
    )
    if status != 0:
        raise ValueError(
            f"pair indices must be strictly increasing and in [0, {n * (n - 1) // 2})"
        )
    return indptr, indices


def bfs_connected(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether every node of a valid CSR graph is reachable from node 0.

    The caller guarantees the CSR invariants that
    :class:`~repro.graphs.adjacency.Adjacency` checks on construction:
    ``indptr`` non-decreasing from 0 to ``indices.size`` and every entry of
    ``indices`` in ``[0, n)``; the reads stay inside ``indices`` only then.
    ``indices`` is read in place, so it must be a C-contiguous ``int32``
    array (:class:`ValueError` otherwise).
    """
    if indices.dtype != np.int32 or not indices.flags.c_contiguous:
        raise ValueError("indices must be a C-contiguous int32 array")
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    n = indptr.size - 1
    queue = np.empty(max(n, 1), dtype=np.int64)
    seen = np.zeros(max(n, 1), dtype=np.uint8)
    return bool(
        _LIB.repro_bfs_connected(
            _i64(indptr),
            indices.ctypes.data_as(_I32P),
            ctypes.c_int64(n),
            _i64(queue),
            seen.ctypes.data_as(_U8P),
        )
    )
