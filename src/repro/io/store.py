"""Hardened on-disk result store: CRC-checked JSONL, one file per scenario.

The store is the persistence layer of the scenario sweep engine
(:mod:`repro.experiments.scenarios`).  Each scenario owns one append-only
JSONL file under the store directory; every line is a self-contained entry

.. code-block:: json

    {"config": "<16-hex config hash>", "crc": "<8-hex crc32>", "key": ...,
     "repetition": 0, "seed": 123, "record": {...}}

written atomically (single ``write`` of a full line, flushed and fsynced)
under an exclusive ``flock`` that is held only for the duration of the
append, so several *processes* may interleave appends to the same scenario
file safely.  Integrity guarantees:

* **Per-line CRC32.**  ``crc`` covers the canonical JSON of the rest of the
  entry; a bit-flipped or garbled line fails verification.  Lines written by
  older versions (no ``crc`` field) are still accepted on read.
* **Skip-and-report for mid-file corruption.**  A corrupt line *between*
  valid lines is skipped and reported via :meth:`ResultStore.corruption`
  instead of failing the scan (previously everything after the first bad
  line was dropped).
* **Tail repair.**  A partial or corrupt *trailing* region (a killed
  writer's unfinished write) is detected, ignored by readers, and truncated
  away before the next append.
* **Lock timeout.**  Lock acquisition waits up to ``lock_timeout`` seconds
  and then raises a clear diagnostic instead of blocking forever on a hung
  writer.

Besides ``record`` entries the store holds structured ``failure`` entries —
quarantined (configuration, repetition) pairs written by the supervised sweep
executor (:mod:`repro.analysis.supervisor`).  Failure entries never satisfy
the resume index (:meth:`ResultStore.completed`), so a resumed sweep retries
quarantined work; a later successful ``record`` entry for the same pair
supersedes the failure.

Records pass through :func:`repro.io.results.to_jsonable` on write and are
returned JSON-round-tripped on read, so the in-memory view of a freshly
computed record and of a record loaded during resume are literally equal.
``save_json`` / ``save_csv`` act as export views over the store via
:meth:`ResultStore.export`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

try:  # POSIX advisory locks serialize concurrent writers.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (no locking)
    fcntl = None  # type: ignore[assignment]

from .results import canonical_json, save_csv, save_json

__all__ = ["ResultStore", "StoreEntry", "StoreLockTimeout", "config_hash"]

#: Resume identity of one unit of work: (config hash, repetition index).
Pair = Tuple[str, int]


class StoreLockTimeout(RuntimeError):
    """Raised when the scenario file's write lock cannot be acquired in time."""


def config_hash(key: Any, params: Any) -> str:
    """Stable 16-hex-digit hash identifying one sweep configuration.

    Derived from the canonical JSON of the configuration key *and* its task
    parameters, so a configuration whose parameters changed (same key, new
    meaning) is not mistaken for already-completed work during resume.
    """
    payload = canonical_json({"key": key, "params": params})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _line_crc(payload: str) -> str:
    return format(zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF, "08x")


class StoreEntry(dict):
    """One parsed JSONL line; a dict with ``config/key/repetition/seed`` plus
    either a ``record`` (completed work) or a ``failure`` (quarantined work)."""

    @property
    def pair(self) -> Pair:
        return (self["config"], int(self["repetition"]))

    @property
    def kind(self) -> str:
        """``"record"`` or ``"failure"``."""
        return "record" if "record" in self else "failure"


def _parse_line(raw: bytes) -> StoreEntry:
    """Parse and validate one full JSONL line; raises ``ValueError`` family."""
    parsed = json.loads(raw.decode("utf-8"))
    if not isinstance(parsed, dict):
        raise ValueError("entry is not a JSON object")
    crc = parsed.pop("crc", None)
    if crc is not None:
        # canonical_json is stable under a JSON round-trip, so re-serializing
        # the parsed entry reproduces the writer's checksummed payload.
        if _line_crc(canonical_json(parsed)) != crc:
            raise ValueError("CRC mismatch (corrupted line)")
    entry = StoreEntry(parsed)
    entry.pair  # noqa: B018 - validates required fields
    if ("record" in entry) == ("failure" in entry):
        raise ValueError("entry must carry exactly one of record/failure")
    return entry


class ResultStore:
    """Append-only JSONL store of sweep records, one file per scenario.

    Parameters
    ----------
    directory:
        Store root; created on first use.  Files are named
        ``<scenario>.jsonl``.
    lock_timeout:
        Seconds to wait for the per-scenario write lock before raising
        :class:`StoreLockTimeout`.
    index:
        Whether to serve queries from the SQLite query index
        (:mod:`repro.io.index`) kept next to the JSONL files.  ``None`` (the
        default) enables it when ``sqlite3`` is importable and the
        ``REPRO_DISABLE_STORE_INDEX`` environment variable is unset.  The
        index is derived state, caught up on each read (appends never touch
        it): disabling it only routes reads through full JSONL scans.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        lock_timeout: float = 30.0,
        index: Optional[bool] = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.lock_timeout = float(lock_timeout)
        if index is None:
            index = not os.environ.get("REPRO_DISABLE_STORE_INDEX")
        self._index_enabled = bool(index)
        self._query_index: Optional[Any] = None
        # scenario -> {"entries", "pairs", "failures", "corrupt",
        #              "valid_end", "size", "truncated"}
        self._state: Dict[str, Dict[str, Any]] = {}
        self._handles: Dict[str, Any] = {}

    @property
    def query_index(self):
        """Lazily constructed :class:`repro.io.index.QueryIndex`, or ``None``
        when indexing is disabled (flag, env var or missing sqlite3)."""
        if not self._index_enabled:
            return None
        if self._query_index is None:
            from .index import QueryIndex, index_available

            if not index_available():  # pragma: no cover - sqlite-less build
                self._index_enabled = False
                return None
            self._query_index = QueryIndex(self)
        return self._query_index

    # ------------------------------------------------------------------ #
    # Layout and scanning
    # ------------------------------------------------------------------ #
    def path_for(self, scenario: str) -> Path:
        """Path of the scenario's JSONL file."""
        if not scenario or any(sep in scenario for sep in ("/", "\\", "..")):
            raise ValueError(f"invalid scenario name {scenario!r}")
        return self.directory / f"{scenario}.jsonl"

    def _apply_entry(self, state: Dict[str, Any], entry: StoreEntry) -> None:
        state["entries"].append(entry)
        if entry.kind == "record":
            state["pairs"][entry.pair] = entry
            state["failures"].pop(entry.pair, None)
        else:
            state["failures"][entry.pair] = entry

    def _scan(self, scenario: str) -> Dict[str, Any]:
        state = self._state.get(scenario)
        if state is not None:
            return state
        state = {
            "entries": [],
            "pairs": {},
            "failures": {},
            "corrupt": [],
            "valid_end": 0,
            "size": 0,
            "truncated": False,
        }
        path = self.path_for(scenario)
        if path.exists():
            offset = 0
            line_number = 0
            with path.open("rb") as handle:
                for raw in handle:
                    line_number += 1
                    if not raw.endswith(b"\n"):
                        # Interrupted mid-write: a partial trailing line.
                        state["corrupt"].append(
                            {
                                "line": line_number,
                                "offset": offset,
                                "length": len(raw),
                                "reason": "partial line (interrupted write)",
                            }
                        )
                        offset += len(raw)
                        break
                    try:
                        entry = _parse_line(raw)
                    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as error:
                        state["corrupt"].append(
                            {
                                "line": line_number,
                                "offset": offset,
                                "length": len(raw),
                                "reason": str(error) or type(error).__name__,
                            }
                        )
                    else:
                        self._apply_entry(state, entry)
                        state["valid_end"] = offset + len(raw)
                    offset += len(raw)
            state["size"] = offset
            # Corrupt lines after the last valid line form the repairable
            # tail; corrupt lines before it are mid-file damage (skipped and
            # reported, never truncated — valid data follows them).
            for item in state["corrupt"]:
                item["tail"] = item["offset"] >= state["valid_end"]
            state["truncated"] = any(item["tail"] for item in state["corrupt"])
        self._state[scenario] = state
        return state

    # ------------------------------------------------------------------ #
    # Read side (resume index and diagnostics)
    # ------------------------------------------------------------------ #
    def completed(self, scenario: str) -> Dict[Pair, Dict[str, Any]]:
        """Map of completed ``(config_hash, repetition)`` pairs to records.

        Quarantined pairs (failure entries without a later record) are *not*
        completed: a resumed sweep retries them.
        """
        state = self._scan(scenario)
        return {pair: entry["record"] for pair, entry in state["pairs"].items()}

    def completed_entries(self, scenario: str) -> Dict[Pair, StoreEntry]:
        """Map of completed pairs to full entries (record plus stored seed)."""
        return dict(self._scan(scenario)["pairs"])

    def failures(self, scenario: str) -> Dict[Pair, Dict[str, Any]]:
        """Quarantined pairs (structured failures not superseded by a record)."""
        state = self._scan(scenario)
        return {pair: entry["failure"] for pair, entry in state["failures"].items()}

    def entries(self, scenario: str) -> List[StoreEntry]:
        """All valid entries of a scenario, in file (append) order."""
        return list(self._scan(scenario)["entries"])

    def records(self, scenario: str) -> List[Dict[str, Any]]:
        """All stored records of a scenario, in file (append) order."""
        return [
            entry["record"]
            for entry in self._scan(scenario)["entries"]
            if entry.kind == "record"
        ]

    def had_truncated_tail(self, scenario: str) -> bool:
        """Whether the last scan found (and dropped) a partial/corrupt tail."""
        return bool(self._scan(scenario)["truncated"])

    def corruption(self, scenario: str) -> List[Dict[str, Any]]:
        """Skipped corrupt lines found by the last scan (diagnostics).

        Each item has ``line``, ``offset``, ``length``, ``reason`` and
        ``tail`` (True for the repairable trailing region, False for mid-file
        damage that is preserved on disk but ignored by readers).
        """
        return [dict(item) for item in self._scan(scenario)["corrupt"]]

    def index(self) -> Dict[str, Dict[str, Any]]:
        """Summary of every scenario file currently in the store directory."""
        summary: Dict[str, Dict[str, Any]] = {}
        for path in sorted(self.directory.glob("*.jsonl")):
            scenario = path.stem
            state = self._scan(scenario)
            records = [e for e in state["entries"] if e.kind == "record"]
            summary[scenario] = {
                "records": len(records),
                "configurations": len({e["config"] for e in records}),
                "failures": len(state["failures"]),
                "corrupt_lines": len(state["corrupt"]),
                "file": path.name,
            }
        return summary

    # ------------------------------------------------------------------ #
    # Write side
    # ------------------------------------------------------------------ #
    def _handle(self, scenario: str):
        handle = self._handles.get(scenario)
        if handle is None or handle.closed:
            handle = self.path_for(scenario).open("ab")
            self._handles[scenario] = handle
        return handle

    def _acquire_lock(self, handle, path: Path) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX
            return
        deadline = time.monotonic() + self.lock_timeout
        while True:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                return
            except OSError:
                if time.monotonic() >= deadline:
                    raise StoreLockTimeout(
                        f"could not lock {path} within {self.lock_timeout:.1f}s: "
                        "another writer is holding the lock (a hung or killed-"
                        "but-lingering sweep?); close it or raise lock_timeout"
                    ) from None
                time.sleep(0.02)

    def _release_lock(self, handle) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except OSError:  # pragma: no cover - nothing useful to do
            pass

    def _sync_under_lock(self, scenario: str, handle) -> Dict[str, Any]:
        """Bring the cached scan up to date and repair the tail, under lock."""
        size = os.fstat(handle.fileno()).st_size
        state = self._scan(scenario)
        if size != state["size"]:
            # Another writer appended (or the file changed) since our scan.
            self._state.pop(scenario, None)
            state = self._scan(scenario)
        if state["truncated"]:
            # Only the trailing garbage region (a killed writer's unfinished
            # write) is removed; mid-file corruption stays put and skipped.
            os.ftruncate(handle.fileno(), state["valid_end"])
            state["corrupt"] = [c for c in state["corrupt"] if not c["tail"]]
            state["truncated"] = False
            state["size"] = state["valid_end"]
        return state

    def _append_entry(self, scenario: str, entry: StoreEntry) -> StoreEntry:
        body = canonical_json(entry)
        checked = dict(json.loads(body))
        checked["crc"] = _line_crc(body)
        line = canonical_json(checked) + "\n"
        # Round-trip through JSON so the in-memory entry equals the on-disk
        # one (numpy scalars already became builtins in `body`).
        entry = StoreEntry({k: v for k, v in json.loads(line).items() if k != "crc"})
        handle = self._handle(scenario)
        path = self.path_for(scenario)
        self._acquire_lock(handle, path)
        try:
            state = self._sync_under_lock(scenario, handle)
            data = line.encode("utf-8")
            offset = state["size"]
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
            self._apply_entry(state, entry)
            state["valid_end"] = offset + len(data)
            state["size"] = offset + len(data)
        finally:
            self._release_lock(handle)
        return entry

    def append(
        self,
        scenario: str,
        *,
        key: Any,
        params: Any,
        repetition: int,
        seed: int,
        record: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Persist one record; returns its JSON-round-tripped form.

        The returned record is what a later resume would load from disk, so
        callers that keep records in memory should use it in place of the
        original (eliminating numpy-scalar vs builtin-float differences
        between fresh and resumed runs).
        """
        entry = StoreEntry(
            config=config_hash(key, params),
            key=key,
            repetition=int(repetition),
            seed=int(seed),
            record=record,
        )
        return self._append_entry(scenario, entry)["record"]

    def append_failure(
        self,
        scenario: str,
        *,
        key: Any,
        params: Any,
        repetition: int,
        seed: int,
        failure: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Persist a structured quarantine failure for one pair.

        Failure entries document *why* a pair is missing without blocking a
        later resume from retrying it; a subsequent successful record for the
        same pair supersedes the failure.
        """
        entry = StoreEntry(
            config=config_hash(key, params),
            key=key,
            repetition=int(repetition),
            seed=int(seed),
            failure=failure,
        )
        return self._append_entry(scenario, entry)["failure"]

    def close(self) -> None:
        """Flush, fsync and close any open append handles.

        Every append already fsyncs its own line, so this is belt-and-braces
        (the KeyboardInterrupt path calls it before printing the resume
        command); records already on disk stay valid either way.
        """
        for handle in self._handles.values():
            if not handle.closed:
                try:
                    handle.flush()
                    os.fsync(handle.fileno())
                except OSError:  # pragma: no cover - fd already unusable
                    pass
                handle.close()
        self._handles.clear()
        if self._query_index is not None:
            self._query_index.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Export views
    # ------------------------------------------------------------------ #
    def export(self, scenario: str, directory: Union[str, Path]) -> Dict[str, Path]:
        """Export a scenario's records as JSON and CSV next to the store.

        Records are ordered by ``(config_hash, repetition)``, so exports are
        byte-identical regardless of the completion (append) order.  The
        sweep engine's own exports (``ExperimentResult.save``) instead use
        deterministic task order.  Failure entries are not exported.

        When the query index is enabled the export is served from it (the
        differential harness pins byte-identity between the two paths).
        """
        query_index = self.query_index
        if query_index is not None:
            return query_index.export(scenario, directory)
        state = self._scan(scenario)
        pairs = state["pairs"]
        records = [pairs[pair]["record"] for pair in sorted(pairs)]
        directory = Path(directory)
        return {
            "records_json": save_json(records, directory / f"{scenario}_records.json"),
            "records_csv": save_csv(records, directory / f"{scenario}_records.csv"),
        }
