"""Tests for repro.io (persistence and table rendering)."""

from __future__ import annotations

import enum
import json
from types import MappingProxyType

import numpy as np
import pytest

from repro.io import (
    StoreEntry,
    canonical_json,
    format_records,
    format_table,
    format_value,
    load_csv,
    load_json,
    save_csv,
    save_json,
    to_jsonable,
)


class _Level(enum.IntEnum):
    HIGH = 2


class _Tree:
    def __str__(self):
        return "tree(3)"


class TestToJsonable:
    def test_numpy_scalars(self):
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.float64(2.5)) == 2.5
        assert to_jsonable(np.bool_(True)) is True

    def test_numpy_array(self):
        assert to_jsonable(np.asarray([1, 2, 3])) == [1, 2, 3]

    def test_nested_structures(self):
        data = {"a": np.asarray([1]), "b": [np.int64(2), {"c": np.float32(1.5)}]}
        out = to_jsonable(data)
        json.dumps(out)  # must be JSON-serialisable
        assert out["a"] == [1]
        assert out["b"][1]["c"] == 1.5

    def test_exotic_objects_stringified(self):
        class Weird:
            def __repr__(self):
                return "weird!"

        assert to_jsonable(Weird()) == "weird!"

    def test_passthrough(self):
        assert to_jsonable("x") == "x"
        assert to_jsonable(None) is None

    def test_numpy_scalars_nested_in_plain_containers(self):
        out = to_jsonable({"a": [np.int64(1), {"b": np.float32(0.5)}], "c": np.bool_(False)})
        assert out == {"a": [1, {"b": 0.5}], "c": False}
        assert type(out["a"][0]) is int
        assert type(out["a"][1]["b"]) is float
        assert out["c"] is False
        assert type(to_jsonable([np.float64(2.5)])[0]) is float

    def test_dict_subclass_and_mapping_proxy(self):
        class Sub(dict):
            pass

        for mapping in (Sub({1: np.int64(4)}), MappingProxyType({1: np.int64(4)})):
            out = to_jsonable(mapping)
            assert out == {"1": 4}
            assert type(out) is dict and type(out["1"]) is int
        entry = to_jsonable(StoreEntry(config="c", record={"n": np.int64(8)}))
        assert entry == {"config": "c", "record": {"n": 8}} and type(entry) is dict

    def test_tuples_and_sets(self):
        assert to_jsonable((1, (2, np.int64(3)))) == [1, [2, 3]]
        assert to_jsonable({3, 1, 2}) == [1, 2, 3]
        assert to_jsonable(frozenset({"b", "a"})) == ["a", "b"]
        assert to_jsonable({1, "a"}) == ["a", 1]  # unorderable: sorted by repr

    def test_true_stays_bool(self):
        assert to_jsonable(True) is True
        assert to_jsonable([True, False]) == [True, False]
        assert to_jsonable([True])[0] is True
        assert to_jsonable({"ok": False})["ok"] is False
        assert to_jsonable(np.array([True]))[0] is True

    def test_canonical_json_of_mixed_corpus_is_pinned(self):
        corpus = {
            "ints": [0, -7, 2**70, np.int64(-5), np.uint8(200), _Level.HIGH],
            "floats": [1.5, -0.0, float("inf"), np.float64(2.25), np.float32(0.1)],
            "flags": [True, False, np.bool_(True)],
            "none": None,
            "text": "gossip \u00fc",
            "nested": {"b": (1, (2, 3)), "a": [{"x": np.int32(3)}], 7: "int key"},
            "sets": [{3, 1, 2}, frozenset({"b", "a"}), {1, "a"}],
            "arrays": [np.arange(3), np.array([[1.5, 2.0]]), np.array([True])],
            "proxy": MappingProxyType({"z": np.float64(0.5)}),
            "entry": StoreEntry(config="c0", repetition=np.int64(1), record={"n": 64}),
            "object": _Tree(),
        }
        assert canonical_json(corpus) == (
            '{"arrays":[[0,1,2],[[1.5,2.0]],[true]],'
            '"entry":{"config":"c0","record":{"n":64},"repetition":1},'
            '"flags":[true,false,true],'
            '"floats":[1.5,-0.0,Infinity,2.25,0.10000000149011612],'
            '"ints":[0,-7,1180591620717411303424,-5,200,2],'
            '"nested":{"7":"int key","a":[{"x":3}],"b":[1,[2,3]]},'
            '"none":null,"object":"tree(3)","proxy":{"z":0.5},'
            '"sets":[[1,2,3],["a","b"],["a",1]],'
            '"text":"gossip \\u00fc"}'
        )


class TestJsonRoundtrip:
    def test_save_and_load(self, tmp_path):
        records = [{"n": 10, "value": 1.5}, {"n": 20, "value": np.float64(2.5)}]
        path = save_json(records, tmp_path / "sub" / "data.json")
        assert path.exists()
        loaded = load_json(path)
        assert loaded[1]["value"] == 2.5


class TestCsvRoundtrip:
    def test_save_and_load(self, tmp_path):
        records = [{"a": 1, "b": "x"}, {"a": 2, "b": "y", "c": 3.0}]
        path = save_csv(records, tmp_path / "data.csv")
        loaded = load_csv(path)
        assert loaded[0]["a"] == "1"
        assert loaded[1]["c"] == "3.0"
        assert set(loaded[0].keys()) == {"a", "b", "c"}

    def test_explicit_columns(self, tmp_path):
        records = [{"a": 1, "b": 2}]
        path = save_csv(records, tmp_path / "cols.csv", columns=["b"])
        loaded = load_csv(path)
        assert list(loaded[0].keys()) == ["b"]


class TestTables:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(1.23456) == "1.235"
        assert format_value(1e9) == "1.00e+09"
        assert format_value(float("nan")) == "nan"
        assert format_value("abc") == "abc"

    def test_format_table_alignment(self):
        table = format_table(["col", "x"], [["a", 1], ["bbbb", 22]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[1] and "x" in lines[1]
        assert len(lines) == 5
        # All data rows have the same width.
        assert len(lines[3]) == len(lines[4])

    def test_format_records(self):
        records = [{"a": 1, "b": 2.0}, {"a": 3, "b": 4.0}]
        table = format_records(records, ["b", "a"])
        header = table.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_missing_column_shows_dash(self):
        table = format_records([{"a": 1}], ["a", "missing"])
        assert "-" in table.splitlines()[-1]
