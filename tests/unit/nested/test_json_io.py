"""Unit tests for JSON / JSONL (de)serialisation."""

import json

import pytest

from repro.errors import DataModelError
from repro.nested.json_io import (
    _jsonable,
    item_from_json,
    item_to_json,
    json_default,
    items_from_jsonl,
    items_to_jsonl,
    read_jsonl,
    write_jsonl,
)
from repro.nested.values import Bag, DataItem, NestedSet
import repro.warehouse.format as wf
from repro.workloads.twitter import generate_tweets


class TestJson:
    def test_parse_object(self):
        item = item_from_json('{"a": 1, "b": [1, 2]}')
        assert item["a"] == 1
        assert isinstance(item["b"], Bag)

    def test_parse_non_object_rejected(self):
        with pytest.raises(DataModelError, match="must be an object"):
            item_from_json("[1, 2]")

    def test_roundtrip(self):
        raw = {"text": "hi", "user": {"id_str": "lp"}, "tags": ["a", "b"], "n": None}
        item = DataItem(raw)
        assert item_from_json(item_to_json(item)) == item

    def test_unicode_preserved(self):
        item = DataItem(text="héllo ümläut")
        assert item_from_json(item_to_json(item)) == item


    def test_the_default_hook_writes_the_text_the_plain_tree_writes(self):
        """``item_to_json`` and the warehouse's item encoder hand the model
        to ``json`` through one hook; the text is that of the plain tree."""
        raws = generate_tweets(scale=0.05, seed=3, payload_width=40)
        raws.append({"set": NestedSet(["b", "a", "b"]), "bags": [[], [[1.5, None, True]]], "e": {}})
        for raw in raws:
            item = DataItem(raw)
            plain = _jsonable(item)
            for indent in (None, 2):
                assert item_to_json(item, indent=indent) == json.dumps(plain, indent=indent)
            assert wf._item_json(item) == json.dumps(plain).encode("utf-8")

    def test_the_default_hook_rejects_what_json_rejects(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps({"a": object()}, default=json_default)


class TestJsonl:
    def test_blank_lines_skipped(self):
        items = list(items_from_jsonl(['{"a": 1}', "", "   ", '{"a": 2}']))
        assert [item["a"] for item in items] == [1, 2]

    def test_lines_roundtrip(self):
        items = [DataItem(a=1), DataItem(a=2, b={"c": [3]})]
        lines = list(items_to_jsonl(items))
        assert list(items_from_jsonl(lines)) == items

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        items = [DataItem(a=index) for index in range(5)]
        count = write_jsonl(path, items)
        assert count == 5
        assert read_jsonl(path) == items

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_jsonl(tmp_path / "missing.jsonl")
