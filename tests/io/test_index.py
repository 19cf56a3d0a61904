"""Tests for the SQLite query index (repro.io.index).

The load-bearing guarantees:

* every index-served view (completed / records / failures / query / stats /
  aggregate / export) equals a fresh full-JSONL-scan recompute,
* appends never touch SQLite; the first read catches the index up,
* the index follows external appends, in-place corruption (prefix-CRC
  mismatch -> rebuild) and truncation without ever serving stale rows,
* CRC-skipped lines and quarantined ``failure`` entries never satisfy an
  index-served query (the PR 6 resume-index rules),
* two processes appending under the per-append flock plus a concurrent
  reader leave an index state equal to a from-scratch rebuild.
"""

from __future__ import annotations

import json
import os
import zlib

import pytest

sqlite3 = pytest.importorskip("sqlite3")

import repro.io.index
from repro.analysis.statistics import aggregate_records, summarize
from repro.io import ResultStore, index_available
from repro.io.index import QueryIndex, nearest_rank
from repro.io.store import config_hash


def _populate(directory, configs=3, reps=2):
    store = ResultStore(directory)
    for c in range(configs):
        for r in range(reps):
            store.append(
                "demo",
                key=["cfg", c],
                params={"c": c},
                repetition=r,
                seed=c * 100 + r,
                record={
                    "n": 64 * (c + 1),
                    "rounds": float(10 * c + r),
                    "proto": ("push", "pull")[c % 2],
                    "ok": bool(r % 2),
                    "series": [c, r],
                },
            )
    return store


def _scan(directory):
    return ResultStore(directory, index=False)


#: Group keys, aggregate metrics and stats metrics the compared views use.
_GROUP_BY, _METRICS, _STATS = ["n", "proto"], ["rounds", "ok"], ["n", "rounds", "ok"]


def _index_views(index, out):
    """Every index-served answer for the "demo" scenario."""
    index.export("demo", out)
    return {
        "completed": index.completed("demo"),
        "records": index.records("demo"),
        "failures": index.failures("demo"),
        "counts": index.counts("demo"),
        "query": index.query("demo"),
        "metric_names": index.metric_names("demo"),
        "aggregate": index.aggregate("demo", _GROUP_BY, _METRICS),
        "stats": index.stats("demo", _STATS),
        "export": {path.name: path.read_bytes() for path in sorted(out.iterdir())},
    }


def _scan_views(directory, out):
    """The same answers recomputed from a full JSONL scan."""
    scan = _scan(directory)
    pairs = scan.completed_entries("demo")
    records = [pairs[pair]["record"] for pair in sorted(pairs)]
    stats = []
    for name in _STATS:
        values = sorted(float(record[name]) for record in records)
        summary = summarize(values)
        stats.append(
            {
                "metric": name,
                "count": summary.count,
                "mean": summary.mean,
                "std": summary.std,
                "min": summary.minimum,
                "max": summary.maximum,
                **{f"p{q}": nearest_rank(values, q) for q in (50, 90, 99)},
            }
        )
    scan.export("demo", out)
    return {
        "completed": scan.completed("demo"),
        "records": scan.records("demo"),
        "failures": scan.failures("demo"),
        "counts": {
            "records": len(scan.records("demo")),
            "configurations": len({e["config"] for e in scan.entries("demo") if e.kind == "record"}),
            "failures": len(scan.failures("demo")),
        },
        "query": [
            {"config": config, "repetition": rep, "seed": pairs[(config, rep)]["seed"], **record}
            for (config, rep), record in zip(sorted(pairs), records)
        ],
        "metric_names": sorted(
            {name for record in records for name, value in record.items() if type(value) in (int, float)}
        ),
        "aggregate": aggregate_records(records, group_by=_GROUP_BY, metrics=_METRICS),
        "stats": stats,
        "export": {path.name: path.read_bytes() for path in sorted(out.iterdir())},
    }


#: The table layout of schema "1", which also kept every scalar record
#: field in a ``fields`` table.
_SCHEMA_1 = """
CREATE TABLE meta(key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE files(
    scenario TEXT PRIMARY KEY, indexed_end INTEGER NOT NULL, prefix_crc INTEGER NOT NULL
);
CREATE TABLE entries(
    scenario TEXT NOT NULL, seq INTEGER NOT NULL, config TEXT NOT NULL,
    repetition INTEGER NOT NULL, seed INTEGER NOT NULL, kind TEXT NOT NULL,
    key_json TEXT NOT NULL, body_json TEXT NOT NULL, PRIMARY KEY (scenario, seq)
);
CREATE INDEX entries_pair ON entries(scenario, config, repetition);
CREATE TABLE fields(
    scenario TEXT NOT NULL, seq INTEGER NOT NULL, name TEXT NOT NULL, kind TEXT NOT NULL,
    ival INTEGER, rval REAL, tval TEXT, PRIMARY KEY (scenario, seq, name)
);
CREATE INDEX fields_name ON fields(scenario, name);
"""


class TestAvailability:
    def test_index_available_here(self):
        assert index_available()

    def test_default_index_is_off_without_sqlite(self, tmp_path, monkeypatch):
        """``index=None`` turns the index on only when sqlite3 imports."""
        monkeypatch.setattr(repro.io.index, "index_available", lambda: False)
        store = _populate(tmp_path)
        assert store.query_index is None
        # Export still works through the scan path; no sqlite file appears.
        store.export("demo", tmp_path / "out")
        store.close()
        assert not (tmp_path / "index.sqlite").exists()

    def test_explicit_flag_disables_index(self, tmp_path):
        store = ResultStore(tmp_path, index=False)
        store.append("demo", key="k", params={}, repetition=0, seed=1, record={"v": 1})
        store.close()
        assert not (tmp_path / "index.sqlite").exists()

    def test_index_file_is_invisible_to_scenario_glob(self, tmp_path):
        store = _populate(tmp_path)
        assert store.query_index is not None
        store.query_index.refresh("demo")
        store.close()
        assert (tmp_path / "index.sqlite").exists()
        assert list(ResultStore(tmp_path).index()) == ["demo"]


class TestCatchUpOnRead:
    def test_appends_leave_sqlite_alone_and_first_read_catches_up(self, tmp_path):
        store = _populate(tmp_path, configs=4, reps=3)
        store.append_failure(
            "demo", key=["cfg", 9], params={"c": 9}, repetition=0, seed=900,
            failure={"kind": "error", "message": "boom"},
        )
        assert not (tmp_path / "index.sqlite").exists()
        first = store.query_index.aggregate("demo", ["n"], ["rounds"])
        pairs = _scan(tmp_path).completed_entries("demo")
        records = [pairs[pair]["record"] for pair in sorted(pairs)]
        assert first == aggregate_records(records, group_by=["n"], metrics=["rounds"])
        store.close()

    def test_index_file_unchanged_by_appends_until_the_next_read(self, tmp_path):
        store = _populate(tmp_path)
        index = store.query_index
        assert len(index.records("demo")) == 6
        before = (tmp_path / "index.sqlite").read_bytes()
        for repetition in range(3):
            store.append(
                "demo", key=["cfg", 7], params={"c": 7}, repetition=repetition,
                seed=700 + repetition, record={"n": 512, "rounds": 1.5},
            )
        assert (tmp_path / "index.sqlite").read_bytes() == before
        assert index.records("demo") == _scan(tmp_path).records("demo")
        assert index.counts("demo")["records"] == 9
        store.close()


class TestIndexMatchesScan:
    def test_completed_records_failures(self, tmp_path):
        store = _populate(tmp_path)
        store.append_failure(
            "demo",
            key=["cfg", 9],
            params={"c": 9},
            repetition=0,
            seed=900,
            failure={"kind": "error", "message": "boom"},
        )
        index = store.query_index
        scan = _scan(tmp_path)
        assert index.completed("demo") == scan.completed("demo")
        assert index.records("demo") == scan.records("demo")
        assert index.failures("demo") == scan.failures("demo")
        store.close()

    def test_record_supersedes_failure_and_vice_versa(self, tmp_path):
        store = ResultStore(tmp_path)
        kwargs = dict(key=["cfg", 0], params={"c": 0}, repetition=0, seed=5)
        store.append_failure("demo", failure={"kind": "error", "message": "x"}, **kwargs)
        store.append("demo", record={"v": 1}, **kwargs)
        index = store.query_index
        assert index.failures("demo") == {}
        assert list(index.completed("demo").values()) == [{"v": 1}]
        # A failure after a record leaves the pair completed (scanner rule:
        # failures never pop completed pairs) but also listed as failed.
        store.append_failure("demo", failure={"kind": "error", "message": "y"}, **kwargs)
        scan = _scan(tmp_path)
        assert index.completed("demo") == scan.completed("demo") != {}
        assert index.failures("demo") == scan.failures("demo") != {}
        store.close()

    def test_export_byte_identical_to_scan_export(self, tmp_path):
        store = _populate(tmp_path / "store")
        store.query_index.export("demo", tmp_path / "via_index")
        _scan(tmp_path / "store").export("demo", tmp_path / "via_scan")
        store.close()
        for name in ("demo_records.json", "demo_records.csv"):
            assert (tmp_path / "via_index" / name).read_bytes() == (
                tmp_path / "via_scan" / name
            ).read_bytes()

    def test_aggregate_matches_shared_aggregator_on_scan(self, tmp_path):
        store = _populate(tmp_path, configs=4, reps=3)
        pairs = _scan(tmp_path).completed_entries("demo")
        records = [pairs[pair]["record"] for pair in sorted(pairs)]
        expected = aggregate_records(records, group_by=["n"], metrics=["rounds"])
        assert store.query_index.aggregate("demo", ["n"], ["rounds"]) == expected
        store.close()

    def test_stats_pinned_to_sorted_scan_values(self, tmp_path):
        store = _populate(tmp_path, configs=4, reps=3)
        pairs = _scan(tmp_path).completed_entries("demo")
        values = sorted(
            float(pairs[pair]["record"]["rounds"]) for pair in sorted(pairs)
        )
        stats = summarize(values)
        (row,) = store.query_index.stats("demo", ["rounds"], percentiles=(50, 90))
        store.close()
        assert row == {
            "metric": "rounds",
            "count": stats.count,
            "mean": stats.mean,
            "std": stats.std,
            "min": stats.minimum,
            "max": stats.maximum,
            "p50": nearest_rank(values, 50),
            "p90": nearest_rank(values, 90),
        }

    def test_query_filters_and_limit(self, tmp_path):
        store = _populate(tmp_path)
        index = store.query_index
        rows = index.query("demo", where={"proto": "push"})
        assert rows and all(row["proto"] == "push" for row in rows)
        assert {"config", "repetition", "seed"} <= set(rows[0])
        assert len(index.query("demo", limit=2)) == 2
        assert index.query("demo", where={"n": 9999}) == []
        store.close()

    def test_metric_names_are_numeric_non_bool_fields(self, tmp_path):
        store = _populate(tmp_path)
        assert store.query_index.metric_names("demo") == ["n", "rounds"]
        store.close()

    def test_counts(self, tmp_path):
        store = _populate(tmp_path, configs=3, reps=2)
        assert store.query_index.counts("demo") == {
            "records": 6,
            "configurations": 3,
            "failures": 0,
        }
        store.close()


class TestInvalidation:
    def test_external_append_is_picked_up(self, tmp_path):
        writer_a = _populate(tmp_path)
        index = writer_a.query_index
        assert len(index.records("demo")) == 6
        writer_b = ResultStore(tmp_path)
        writer_b.append(
            "demo", key=["cfg", 9], params={"c": 9}, repetition=0, seed=9, record={"n": 1}
        )
        writer_b.close()
        assert len(index.records("demo")) == 7
        writer_a.close()

    def test_in_place_garble_invalidates_via_prefix_crc(self, tmp_path):
        store = _populate(tmp_path)
        index = store.query_index
        index.refresh("demo")  # fully indexed, CRC chained over all lines
        path = tmp_path / "demo.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        # Same-length in-place tamper: file size unchanged, only the CRC
        # chain can notice.  Keeps valid JSON so the line CRC must catch it.
        assert b'"rounds":1.0' in lines[1]
        lines[1] = lines[1].replace(b'"rounds":1.0', b'"rounds":7.0')
        path.write_bytes(b"".join(lines))
        scan = _scan(tmp_path)
        assert index.completed("demo") == scan.completed("demo")
        assert len(index.records("demo")) == 5  # corrupt line never served
        assert len(scan.corruption("demo")) == 1
        store.close()

    def test_truncation_invalidates(self, tmp_path):
        store = _populate(tmp_path)
        index = store.query_index
        index.refresh("demo")
        path = tmp_path / "demo.jsonl"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - len(data.splitlines(keepends=True)[-1]) - 3])
        scan = _scan(tmp_path)
        assert index.completed("demo") == scan.completed("demo")
        assert index.records("demo") == scan.records("demo")
        store.close()

    def test_append_after_external_truncation_reindexes(self, tmp_path):
        store = _populate(tmp_path)
        store.query_index.refresh("demo")
        path = tmp_path / "demo.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:3]))
        # The next read finds the indexed prefix gone (CRC mismatch) and
        # re-derives the scenario, appended line included.
        store.append(
            "demo", key=["cfg", 9], params={"c": 9}, repetition=0, seed=9, record={"n": 5}
        )
        scan = _scan(tmp_path)
        assert store.query_index.records("demo") == scan.records("demo")
        assert len(scan.records("demo")) == 4
        store.close()

    def test_legacy_crc_less_lines_are_indexed(self, tmp_path):
        from repro.io.results import canonical_json

        path = tmp_path / "demo.jsonl"
        legacy = {
            "config": config_hash(["k", 0], {"x": 0}),
            "key": ["k", 0],
            "repetition": 0,
            "seed": 5,
            "record": {"value": 41},
        }
        path.write_text(canonical_json(legacy) + "\n")
        store = ResultStore(tmp_path)
        assert store.query_index.records("demo") == [{"value": 41}]
        store.close()

    def test_deleted_scenario_file_clears_rows(self, tmp_path):
        store = _populate(tmp_path)
        index = store.query_index
        index.refresh("demo")
        store.close()
        (tmp_path / "demo.jsonl").unlink()
        assert index.records("demo") == []
        assert index.counts("demo") == {"records": 0, "configurations": 0, "failures": 0}
        index.close()

    def test_rebuild_equals_incremental_state(self, tmp_path):
        store = _populate(tmp_path)
        store.append_failure(
            "demo",
            key=["cfg", 0],
            params={"c": 0},
            repetition=0,
            seed=0,
            failure={"kind": "error", "message": "x"},
        )
        index = store.query_index
        before = (index.completed("demo"), index.records("demo"), index.failures("demo"))
        assert index.rebuild() == ["demo"]
        after = (index.completed("demo"), index.records("demo"), index.failures("demo"))
        assert before == after
        store.close()

    def test_schema_version_mismatch_drops_and_rebuilds(self, tmp_path):
        store = _populate(tmp_path)
        index = store.query_index
        index.refresh("demo")
        con = index._connect()
        con.execute("UPDATE meta SET value = '0' WHERE key = 'schema'")
        index.close()
        fresh = ResultStore(tmp_path)
        assert fresh.query_index.records("demo") == _scan(tmp_path).records("demo")
        fresh.close()
        store.close()

    def test_schema_1_index_is_rebuilt_without_fields_table(self, tmp_path):
        store = _populate(tmp_path)
        store.append_failure(
            "demo", key=["cfg", 9], params={"c": 9}, repetition=0, seed=900,
            failure={"kind": "error", "message": "boom"},
        )
        store.close()
        data = (tmp_path / "demo.jsonl").read_bytes()
        con = sqlite3.connect(str(tmp_path / "index.sqlite"))
        con.executescript(_SCHEMA_1)
        con.execute("INSERT INTO meta VALUES ('schema', '1')")
        # A prefix that verifies against the file, over stale rows: only the
        # schema version can tell the index to rebuild.
        con.execute(
            "INSERT INTO files VALUES ('demo', ?, ?)", (len(data), zlib.crc32(data) & 0xFFFFFFFF)
        )
        for seq, line in enumerate(data.splitlines()):
            entry = json.loads(line)
            con.execute(
                "INSERT INTO entries VALUES ('demo', ?, ?, ?, ?, 'record', ?, ?)",
                (seq, entry["config"], entry["repetition"], entry["seed"], "[]", '{"n":1}'),
            )
            con.execute("INSERT INTO fields VALUES ('demo', ?, 'n', 'i', 1, NULL, NULL)", (seq,))
        con.commit()
        con.close()

        fresh = ResultStore(tmp_path)
        views = _index_views(fresh.query_index, tmp_path / "via_index")
        assert views == _scan_views(tmp_path, tmp_path / "via_scan")
        assert views["failures"] and views["aggregate"]
        tables = fresh.query_index._connect().execute(
            "SELECT name FROM sqlite_master WHERE name LIKE 'fields%'"
        )
        assert tables.fetchall() == []
        fresh.close()

    def test_wide_ints_survive_via_json_body(self, tmp_path):
        store = ResultStore(tmp_path)
        huge = 2**70  # wider than 64 bits: kept in the body, absent from stats
        big = 2**62  # fits 64 bits: counts in stats, decoded exactly
        store.append(
            "demo", key="k", params={}, repetition=0, seed=1,
            record={"huge": huge, "big": big},
        )
        index = store.query_index
        assert list(index.completed("demo").values()) == [{"huge": huge, "big": big}]
        (row,) = index.stats("demo", ["big"])
        assert row["min"] == float(big)
        assert index.stats("demo", ["huge"]) == []  # absent from stats, not lost
        store.close()


def _indexed_writer(directory: str, writer: int, count: int) -> None:
    """Module-level multiprocessing target: append with the index enabled."""
    store = ResultStore(directory)
    for index in range(count):
        store.append(
            "demo",
            key=["w", writer],
            params={"writer": writer},
            repetition=index,
            seed=writer * 1000 + index,
            record={"writer": writer, "index": index, "cost": float(index)},
        )
    store.close()


class TestConcurrency:
    def test_two_writers_one_reader_end_in_rebuild_equal_state(self, tmp_path):
        pytest.importorskip("fcntl")
        import multiprocessing

        count = 20
        context = multiprocessing.get_context("spawn")
        workers = [
            context.Process(target=_indexed_writer, args=(str(tmp_path), w, count))
            for w in (0, 1)
        ]
        for worker in workers:
            worker.start()
        # Read-through queries while both writers are appending: every call
        # must return a consistent prefix of the final state, never error.
        reader = ResultStore(tmp_path)
        seen = 0
        while any(worker.is_alive() for worker in workers):
            completed = reader.query_index.completed("demo")
            assert len(completed) >= seen  # monotone: the store only grows
            seen = len(completed)
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        scan = _scan(tmp_path)
        final = reader.query_index.completed("demo")
        assert len(final) == 2 * count
        assert final == scan.completed("demo")
        # The incrementally-built index equals a from-scratch rebuild.
        records_before = reader.query_index.records("demo")
        reader.query_index.rebuild("demo")
        assert reader.query_index.records("demo") == records_before == scan.records("demo")
        assert reader.query_index.failures("demo") == {}
        assert not scan.corruption("demo")
        reader.close()
