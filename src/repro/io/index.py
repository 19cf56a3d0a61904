"""SQLite query index over the JSONL result store.

This is the read side of a CQRS split.  The append-only JSONL files of
:class:`repro.io.store.ResultStore` remain the single source of truth; this
module maintains a derived ``index.sqlite`` next to them so that aggregate
queries — completed-pair views, percentile statistics, grouped means,
CSV/JSON exports — are served from indexed rows instead of re-parsing JSONL.

Consistency model
-----------------
* **Caught up on read.**  Appends never touch SQLite.  Every query first
  refreshes its scenario under the store's per-scenario ``flock``: the
  bytes appended since the last refresh are parsed and indexed in one
  transaction.
* **Prefix-CRC invalidation.**  For every scenario the index stores
  ``(indexed_end, prefix_crc)`` — the byte length of the indexed prefix and
  the rolling CRC32 of those bytes.  Every refresh re-checksums the
  prefix; a mismatch (in-place corruption, rewrite, truncation) drops the
  scenario's rows and rebuilds them from JSONL.  The index can therefore
  always be deleted or rebuilt with no data loss.
* **Same validity rules as the scanner.**  Lines are parsed with the store's
  own ``_parse_line``: CRC-corrupt and malformed lines are skipped (never
  indexed, never satisfy a query), crc-less legacy lines are accepted, and a
  partial trailing line stays unindexed until completed or repaired.
* **Failure entries are quarantined.**  ``failure`` rows are indexed (for
  diagnostics) but the completed view returns, for each
  ``(config, repetition)`` pair, only the *latest* ``record`` entry —
  mirroring ``ResultStore.completed`` exactly: a failure never satisfies a
  cache hit, and a later record supersedes an earlier failure.

Each entry is stored once, as canonical JSON.  Full records
(``query``/``export``) are decoded from it, so they are bit-identical to a
JSONL scan.  Statistics and grouped aggregates decode the same bodies and
use only their scalar fields (ints, floats, bools, strings, nulls); lists,
dicts and integers wider than 64 bits count as absent — the same behaviour
``aggregate_records`` has for missing metrics.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Union

try:  # stdlib, but some minimal builds omit it; the store degrades to scans.
    import sqlite3
except ImportError:  # pragma: no cover - sqlite-less python build
    sqlite3 = None  # type: ignore[assignment]

from .results import canonical_json, save_csv, save_json
from .store import Pair, ResultStore, StoreEntry, _parse_line

__all__ = ["QueryIndex", "index_available", "nearest_rank"]

#: Bump when the table layout changes; a mismatched on-disk index is dropped
#: and lazily rebuilt from JSONL (the index is always disposable).
_SCHEMA_VERSION = "2"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta(
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS files(
    scenario TEXT PRIMARY KEY,
    indexed_end INTEGER NOT NULL,
    prefix_crc INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS entries(
    scenario TEXT NOT NULL,
    seq INTEGER NOT NULL,
    config TEXT NOT NULL,
    repetition INTEGER NOT NULL,
    seed INTEGER NOT NULL,
    kind TEXT NOT NULL,
    key_json TEXT NOT NULL,
    body_json TEXT NOT NULL,
    PRIMARY KEY (scenario, seq)
);
CREATE INDEX IF NOT EXISTS entries_pair ON entries(scenario, config, repetition);
"""

#: Integers beyond a signed 64-bit word count as absent in aggregates.
_INT64_MAX = 2**63 - 1

#: Completed view: for each (config, repetition) pair the latest record
#: entry, in pair-sorted order (hex config hashes sort identically as TEXT
#: and as Python str).  Failure entries never appear here, and a record
#: always supersedes earlier failures for its pair — the scanner's rules.
_COMPLETED_SQL = """
SELECT config, repetition, seed, body_json FROM entries
WHERE scenario = :s AND kind = 'record' AND seq IN (
    SELECT MAX(seq) FROM entries
    WHERE scenario = :s AND kind = 'record'
    GROUP BY config, repetition
)
ORDER BY config, repetition
"""


def index_available() -> bool:
    """Whether the sqlite3 module is importable on this interpreter."""
    return sqlite3 is not None


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: smallest value with >= q% of mass at or below.

    ``sorted_values`` must be non-empty and ascending.  ``q`` is clamped to
    [0, 100]; q=0 returns the minimum, q=100 the maximum.
    """
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if q <= 0:
        return sorted_values[0]
    rank = math.ceil(min(q, 100.0) / 100.0 * len(sorted_values))
    return sorted_values[min(len(sorted_values), max(rank, 1)) - 1]


def _is_scalar(value: Any) -> bool:
    """Whether a decoded JSON value counts in statistics and aggregates:
    lists, dicts and integers wider than 64 bits count as absent."""
    if type(value) is int:
        return abs(value) <= _INT64_MAX
    return not isinstance(value, (list, dict))


def _entry_row(entry: StoreEntry) -> tuple:
    """The ``entries`` columns of one parsed store entry, after ``seq``."""
    kind = entry.kind
    return (
        entry["config"],
        int(entry["repetition"]),
        int(entry["seed"]),
        kind,
        canonical_json(entry["key"]),
        canonical_json(entry[kind]),
    )


def _metric_names(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Sorted names of the int and float (not bool) scalar fields."""
    return sorted(
        {
            name
            for record in records
            for name, value in record.items()
            if type(value) in (int, float) and _is_scalar(value)
        }
    )


@contextmanager
def _transaction(con: "sqlite3.Connection") -> Iterator[None]:
    """One write transaction: committed on success, rolled back on error."""
    con.execute("BEGIN IMMEDIATE")
    try:
        yield
        con.execute("COMMIT")
    except BaseException:
        con.execute("ROLLBACK")
        raise


class QueryIndex:
    """Derived SQLite index over one :class:`ResultStore` directory.

    Not usually constructed directly — use :attr:`ResultStore.query_index`,
    which shares the store's lock discipline.  All read methods refresh the
    scenario first (prefix-CRC check, catch-up parse of new bytes), so
    results always reflect the current JSONL contents, including external
    appends, corruption and truncation.
    """

    def __init__(self, store: ResultStore, path: Optional[Union[str, Path]] = None):
        if sqlite3 is None:  # pragma: no cover - sqlite-less python build
            raise RuntimeError("sqlite3 is unavailable; QueryIndex cannot be used")
        self.store = store
        # .sqlite, not .jsonl: invisible to the store's scenario-file glob.
        self.path = Path(path) if path is not None else store.directory / "index.sqlite"
        self._con: Optional["sqlite3.Connection"] = None

    # ------------------------------------------------------------------ #
    # Connection and schema
    # ------------------------------------------------------------------ #
    def _connect(self) -> "sqlite3.Connection":
        if self._con is not None:
            return self._con
        con = sqlite3.connect(str(self.path), isolation_level=None)
        con.execute("PRAGMA busy_timeout = 30000")
        con.execute("PRAGMA synchronous = NORMAL")
        con.executescript(_SCHEMA)
        row = con.execute("SELECT value FROM meta WHERE key = 'schema'").fetchone()
        if row is None:
            con.execute(
                "INSERT OR IGNORE INTO meta(key, value) VALUES ('schema', ?)",
                (_SCHEMA_VERSION,),
            )
        elif row[0] != _SCHEMA_VERSION:
            # Foreign schema version: drop the derived rows (and the
            # per-field table of schema 1); every scenario rebuilds from
            # JSONL on its next refresh.
            with _transaction(con):
                con.execute("DROP TABLE IF EXISTS fields")
                con.execute("DELETE FROM entries")
                con.execute("DELETE FROM files")
                con.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema'",
                    (_SCHEMA_VERSION,),
                )
        self._con = con
        return con

    def close(self) -> None:
        """Close the SQLite connection (reopened lazily on next use)."""
        if self._con is not None:
            self._con.close()
            self._con = None

    # ------------------------------------------------------------------ #
    # Maintenance: refresh and rebuild
    # ------------------------------------------------------------------ #
    def refresh(self, scenario: str) -> None:
        """Bring the scenario's index rows up to date with its JSONL file.

        Takes the store's per-scenario ``flock`` for the duration (shared
        lock discipline with appends), verifies the indexed prefix by CRC
        and parses only the bytes beyond it; on any mismatch the scenario
        is rebuilt from scratch.
        """
        con = self._connect()
        path = self.store.path_for(scenario)
        if not path.exists():
            with _transaction(con):
                self._delete_rows(con, scenario)
            return
        with path.open("rb") as handle:
            self.store._acquire_lock(handle, path)
            try:
                self._catch_up(con, scenario, handle)
            finally:
                self.store._release_lock(handle)

    def rebuild(self, scenario: Optional[str] = None) -> List[str]:
        """Drop and re-derive index rows from JSONL; returns scenarios done.

        With ``scenario=None`` every ``*.jsonl`` file in the store directory
        is rebuilt.  Safe at any time: the JSONL files are the source of
        truth and are only read.
        """
        names = [scenario] if scenario is not None else self.scenario_names()
        con = self._connect()
        for name in names:
            with _transaction(con):
                self._delete_rows(con, name)
            self.refresh(name)
        return names

    def scenario_names(self) -> List[str]:
        """Scenario names present as JSONL files in the store directory."""
        return sorted(path.stem for path in self.store.directory.glob("*.jsonl"))

    def _catch_up(self, con: "sqlite3.Connection", scenario: str, handle) -> None:
        """Parse bytes beyond the verified prefix into index rows.

        ``handle`` is an open binary read handle for the scenario file, on
        which the caller holds the store's flock.
        """
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        row = con.execute(
            "SELECT indexed_end, prefix_crc FROM files WHERE scenario = ?",
            (scenario,),
        ).fetchone()
        start, crc = 0, 0
        rebuild = False
        if row is not None:
            indexed_end, prefix_crc = int(row[0]), int(row[1])
            if indexed_end <= size and self._prefix_crc(handle, indexed_end) == prefix_crc:
                start, crc = indexed_end, prefix_crc
            else:
                # Shrunk, rewritten or garbled in place: the indexed rows can
                # no longer be trusted; re-derive the scenario from scratch.
                rebuild = True
        handle.seek(start)
        data = handle.read(size - start)
        new_rows: List[tuple] = []
        indexed_end, indexed_crc = start, crc
        running = crc
        pos = 0
        while True:
            newline = data.find(b"\n", pos)
            if newline < 0:
                break  # partial trailing line: stays unindexed for now
            raw = data[pos : newline + 1]
            running = zlib.crc32(raw, running) & 0xFFFFFFFF
            try:
                entry = _parse_line(raw)
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                # Corrupt line: skipped, exactly like the scanner.  Its bytes
                # only enter the indexed prefix if a later valid line lands
                # (mid-file damage); trailing garbage stays beyond
                # indexed_end so tail repair cannot invalidate the index.
                pass
            else:
                new_rows.append(_entry_row(entry))
                indexed_end = start + newline + 1
                indexed_crc = running
            pos = newline + 1
        with _transaction(con):
            if rebuild:
                self._delete_rows(con, scenario)
            (seq,) = con.execute(
                "SELECT COALESCE(MAX(seq), -1) + 1 FROM entries WHERE scenario = ?",
                (scenario,),
            ).fetchone()
            con.executemany(
                "INSERT INTO entries(scenario, seq, config, repetition, seed, kind, "
                "key_json, body_json) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                ((scenario, seq + i, *row) for i, row in enumerate(new_rows)),
            )
            con.execute(
                "INSERT INTO files(scenario, indexed_end, prefix_crc) VALUES (?, ?, ?) "
                "ON CONFLICT(scenario) DO UPDATE SET "
                "indexed_end = excluded.indexed_end, prefix_crc = excluded.prefix_crc",
                (scenario, indexed_end, indexed_crc),
            )

    @staticmethod
    def _prefix_crc(handle, end: int) -> int:
        """Rolling CRC32 of the file's first ``end`` bytes."""
        handle.seek(0)
        crc = 0
        remaining = end
        while remaining > 0:
            chunk = handle.read(min(1 << 20, remaining))
            if not chunk:  # pragma: no cover - file shrank under our feet
                return ~crc & 0xFFFFFFFF  # guaranteed mismatch
            crc = zlib.crc32(chunk, crc) & 0xFFFFFFFF
            remaining -= len(chunk)
        return crc

    @staticmethod
    def _delete_rows(con: "sqlite3.Connection", scenario: str) -> None:
        con.execute("DELETE FROM entries WHERE scenario = ?", (scenario,))
        con.execute("DELETE FROM files WHERE scenario = ?", (scenario,))

    # ------------------------------------------------------------------ #
    # Query surface (each method refreshes first)
    # ------------------------------------------------------------------ #
    def _completed_rows(self, scenario: str) -> "sqlite3.Cursor":
        """Refresh, then the completed view's ``(config, repetition, seed,
        body_json)`` rows in pair-sorted order."""
        self.refresh(scenario)
        return self._connect().execute(_COMPLETED_SQL, {"s": scenario})

    def _completed_objects(self, scenario: str) -> Iterator[Dict[str, Any]]:
        """Completed records for field access, decoded one at a time; a
        non-object record reads as ``{}``."""
        for _config, _rep, _seed, body in self._completed_rows(scenario):
            record = json.loads(body)
            yield record if isinstance(record, dict) else {}

    def completed(self, scenario: str) -> Dict[Pair, Dict[str, Any]]:
        """Index-served equivalent of :meth:`ResultStore.completed`."""
        return {
            (config, int(repetition)): json.loads(body)
            for config, repetition, _seed, body in self._completed_rows(scenario)
        }

    def records(self, scenario: str) -> List[Dict[str, Any]]:
        """Index-served equivalent of :meth:`ResultStore.records`."""
        self.refresh(scenario)
        con = self._connect()
        return [
            json.loads(body)
            for (body,) in con.execute(
                "SELECT body_json FROM entries "
                "WHERE scenario = ? AND kind = 'record' ORDER BY seq",
                (scenario,),
            )
        ]

    def failures(self, scenario: str) -> Dict[Pair, Dict[str, Any]]:
        """Index-served equivalent of :meth:`ResultStore.failures`."""
        self.refresh(scenario)
        return self._failures(self._connect(), scenario)

    @staticmethod
    def _failures(con: "sqlite3.Connection", scenario: str) -> Dict[Pair, Dict[str, Any]]:
        out: Dict[Pair, Dict[str, Any]] = {}
        for config, repetition, body in con.execute(
            """
            SELECT e.config, e.repetition, e.body_json FROM entries e
            JOIN (
                SELECT config, repetition,
                       MAX(CASE WHEN kind = 'failure' THEN seq END) AS fseq,
                       MAX(CASE WHEN kind = 'record' THEN seq END) AS rseq
                FROM entries WHERE scenario = ?
                GROUP BY config, repetition
            ) last ON e.scenario = ? AND e.seq = last.fseq
            WHERE last.fseq IS NOT NULL
              AND (last.rseq IS NULL OR last.fseq > last.rseq)
            """,
            (scenario, scenario),
        ):
            out[(config, int(repetition))] = json.loads(body)
        return out

    def counts(self, scenario: str) -> Dict[str, int]:
        """Record/configuration/failure counts for one scenario."""
        self.refresh(scenario)
        con = self._connect()
        records, configurations = con.execute(
            "SELECT COUNT(*), COUNT(DISTINCT config) FROM entries "
            "WHERE scenario = ? AND kind = 'record'",
            (scenario,),
        ).fetchone()
        return {
            "records": int(records),
            "configurations": int(configurations),
            "failures": len(self._failures(con, scenario)),
        }

    def query(
        self,
        scenario: str,
        *,
        where: Optional[Mapping[str, Any]] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Completed records with identity columns, filtered by equality.

        Each row is ``{"config", "repetition", "seed", **record}`` in
        pair-sorted order.  ``where`` matches on any column by equality.
        """
        rows: List[Dict[str, Any]] = []
        for config, repetition, seed, body in self._completed_rows(scenario):
            row = {"config": config, "repetition": int(repetition), "seed": int(seed)}
            row.update(json.loads(body))
            if where and any(row.get(name) != value for name, value in where.items()):
                continue
            rows.append(row)
            if limit is not None and len(rows) >= limit:
                break
        return rows

    def metric_names(self, scenario: str) -> List[str]:
        """Numeric field names present in the completed view, sorted."""
        return _metric_names(self._completed_objects(scenario))

    def stats(
        self,
        scenario: str,
        metrics: Optional[Sequence[str]] = None,
        *,
        percentiles: Sequence[float] = (50, 90, 99),
    ) -> List[Dict[str, Any]]:
        """Per-metric statistics over the completed view.

        Returns one row per metric with count/mean/std/min/max plus
        nearest-rank percentile columns (``p50`` etc).  Values are the
        ascending-sorted floats of the metric's scalar numbers (bools count
        as 0/1) over completed records; mean and std use
        :func:`repro.analysis.statistics.summarize` on that sorted
        sequence, so the result is reproducible bit-for-bit from a scan
        that sorts the same way.
        """
        records = list(self._completed_objects(scenario))
        if metrics is None:
            metrics = _metric_names(records)
        from ..analysis.statistics import summarize  # lazy: io must not need analysis at import

        rows: List[Dict[str, Any]] = []
        for name in metrics:
            values = sorted(
                float(record[name])
                for record in records
                if type(record.get(name)) in (int, float, bool) and _is_scalar(record[name])
            )
            if not values:
                continue
            stats = summarize(values)
            row: Dict[str, Any] = {
                "metric": name,
                "count": stats.count,
                "mean": stats.mean,
                "std": stats.std,
                "min": stats.minimum,
                "max": stats.maximum,
            }
            for q in percentiles:
                row[f"p{q:g}"] = nearest_rank(values, q)
            rows.append(row)
        return rows

    def aggregate(
        self,
        scenario: str,
        group_by: Sequence[str],
        metrics: Sequence[str],
    ) -> List[Dict[str, Any]]:
        """Grouped mean/std aggregate over the completed view.

        Reduces each completed record, in pair-sorted order, to the scalar
        fields among ``group_by`` and ``metrics`` and feeds them to
        :func:`repro.analysis.statistics.aggregate_records` — the same
        function the scan path uses, so results are bit-identical to a full
        JSONL-scan recompute by construction.
        """
        names = list(dict.fromkeys([*group_by, *metrics]))
        records = [
            {name: record[name] for name in names if name in record and _is_scalar(record[name])}
            for record in self._completed_objects(scenario)
        ]
        from ..analysis.statistics import aggregate_records  # lazy, see stats()

        return aggregate_records(records, group_by=group_by, metrics=metrics)

    def export(self, scenario: str, directory: Union[str, Path]) -> Dict[str, Path]:
        """Index-served equivalent of :meth:`ResultStore.export`.

        Same filenames, same pair-sorted order, same canonical records —
        exports are byte-identical to the scan path.
        """
        records = [json.loads(body) for _config, _rep, _seed, body in self._completed_rows(scenario)]
        directory = Path(directory)
        return {
            "records_json": save_json(records, directory / f"{scenario}_records.json"),
            "records_csv": save_csv(records, directory / f"{scenario}_records.csv"),
        }
