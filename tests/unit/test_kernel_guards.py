"""Guards on the three value-model walks, and on the write path, that do
not use a clock.

Construct, match and infer run under every provenance answer, and their cost
is what they allocate or walk.  With ``Path`` / ``Step`` construction
counted, a non-matching item costs the matcher no ``Path`` at all and a
matching one no more than it reports.  With reads of a value's children
counted, typing a typed item walks nothing and typing a new item over typed
children walks only the new item; with type minting counted, a sample of
same-shaped items mints types for the first item only.
Construction itself must accept and reject exactly what it always did,
whichever route (exact-type dispatch or the ``isinstance`` chain) a value takes.

Recording is one pass over what the writer holds: with file opens, decodes,
parses and encoder calls counted, a ``record`` or an ``append_epoch`` reads
nothing it wrote, writes each footer once, and encodes an item object once
however many read operators hold it -- collecting its index terms in that
same encoder pass, never in a second walk -- and compresses a frame of them
once too.  A part is one file: a record
writes ``part.seg``, its manifest and ``metrics.json`` into the one
directory it makes, an ingest ``part.seg`` and ``part.json`` into its
epoch directory plus the head.
"""

from __future__ import annotations

import builtins
import io
import json
import os
from collections import Counter, OrderedDict
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.paths import Path, Step
from repro.core.treepattern.matcher import match_item
from repro.core.treepattern.parser import parse_pattern
from repro.errors import DataModelError
from repro.nested.json_io import item_from_json
from repro.nested.schema import infer_schema
from repro.nested.types import BOOLEAN, INT, NULL, STRING, BagType, fold_type, infer_type
import repro.nested.types as types
from repro.nested.values import Bag, DataItem, NestedSet, _Collection, coerce_value
from repro.engine.expressions import col
from repro.stream import StreamSession
from repro.warehouse import Warehouse
import repro.warehouse.format as wf
import repro.warehouse.index as index
import repro.warehouse.writer as writer
from repro.workloads import scenario
from repro.workloads.twitter import generate_tweets


@pytest.fixture
def built(monkeypatch):
    """Count constructions of the two allocation-heavy path types."""
    counts = {Path: 0, Step: 0}
    for cls in counts:
        original = cls.__init__

        def counting(self, *args, _cls=cls, _original=original, **kwargs):
            counts[_cls] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.fixture
def walked(monkeypatch):
    """Count, per value object, reads of the slot that holds its children
    (``DataItem._pairs``, ``Bag`` / ``NestedSet`` ``_items``): any walk that
    descends into a value reads it."""
    reads: Counter = Counter()
    for owner, name in ((DataItem, "_pairs"), (_Collection, "_items")):
        slot = owner.__dict__[name]

        def read(self, _slot=slot):
            reads[id(self)] += 1
            return _slot.__get__(self, type(self))

        monkeypatch.setattr(owner, name, property(read, slot.__set__))
    return reads


@pytest.fixture(scope="module")
def tweets():
    return [item_from_json(json.dumps(raw)) for raw in generate_tweets(scale=0.05, seed=3, payload_width=40)]


def _leaves(value) -> int:
    if isinstance(value, DataItem):
        return sum(_leaves(inner) for inner in value.values())
    if isinstance(value, (Bag, NestedSet)):
        return sum(_leaves(inner) for inner in value)
    return 1


class TestMatchAllocatesOnlyWhatItReports:
    def test_a_non_matching_tweet_constructs_no_path(self, tweets, built):
        tweet = max(tweets, key=_leaves)
        assert _leaves(tweet) >= 200
        for pattern in ('root{//*="no-such-subject"}', 'root{/user{/id_str="nobody"}}'):
            assert match_item(parse_pattern(pattern), tweet) is None
        assert built[Path] == 0 and built[Step] == 0

    def test_a_matching_tweet_constructs_the_paths_it_reports(self, tweets, built):
        tweet = tweets[0]
        subject = tweet["user"]["id_str"]
        pattern = parse_pattern(f'root{{//*="{subject}"}}')
        paths = match_item(pattern, tweet)
        assert paths and built[Path] == len(paths)
        assert built[Step] == sum(len(path) for path in paths)

    def test_failed_branches_and_count_contexts_construct_nothing(self, tweets, built):
        tweet = tweets[0]
        subject = tweet["user"]["id_str"]
        # The first branch matches many attributes; the second sinks the item.
        sunk = parse_pattern(f'root{{//*="{subject}", /lang="no-such-language"}}')
        assert match_item(sunk, tweet) is None
        assert built[Path] == 0
        counted = parse_pattern(f'root{{//*="{subject}"[1,*], //indices[0,4]}}')
        paths = match_item(counted, tweet)
        assert paths and built[Path] == len(paths)


class TestInferBuildsOneTypeTree:
    def test_typing_a_typed_item_walks_no_child(self, tweets, walked):
        tweet = max(tweets, key=_leaves)
        typ = infer_type(tweet)
        walked.clear()
        assert infer_type(tweet) is typ and fold_type(typ, tweet) is typ
        assert infer_schema([tweet] * 3).struct is typ
        assert not walked

    def test_fresh_same_shaped_items_mint_types_for_the_first_only(self, tweets, monkeypatch):
        minted: list[type] = []
        mint = types._mint
        monkeypatch.setattr(types, "_mint", lambda cls, key: minted.append(cls) or mint(cls, key))
        raw = tweets[0].to_python()
        # A field no other test uses: the first item's struct is a new type.
        sample = [DataItem(dict(raw, id_str=f"t{position}", mint_guard=position)) for position in range(200)]
        after_first: list[int] = []

        def feed():
            for position, item in enumerate(sample):
                if position == 1:
                    after_first.append(len(minted))
                yield item

        schema = infer_schema(feed())
        assert after_first[0] > 0 and len(minted) == after_first[0]
        assert all(infer_type(item) is schema.struct for item in sample)

    def test_a_new_item_over_typed_children_walks_only_itself(self, tweets, walked):
        item, element = tweets[0], tweets[1]["user"]
        item_type, element_type = infer_type(item), infer_type(element)
        flat = item.replace(tag=element)
        walked.clear()
        typ = infer_type(flat)
        assert walked == Counter({id(flat): 1})
        assert typ.fields == item_type.fields + (("tag", element_type),)

    def test_the_accumulator_object_itself_comes_back(self, tweets):
        accumulated = fold_type(NULL, tweets[0])
        assert fold_type(accumulated, tweets[0]) is accumulated
        # Nulls, missing fields and empty bags are covered by what is there.
        sparse = tweets[0].without("lang").replace(user_mentions=[], text=None)
        assert fold_type(accumulated, sparse) is accumulated
        # A new field is not: a new struct, the old one left as it was.
        before = str(accumulated)
        grown = fold_type(accumulated, tweets[0].replace(extra=1))
        assert grown is not accumulated and grown.field_names()[-1] == "extra"
        assert str(accumulated) == before


_names = st.text(alphabet="abcdefgh_", min_size=1, max_size=5)
_constants = st.one_of(st.none(), st.booleans(), st.integers(-9, 9), st.floats(allow_nan=False), st.text(max_size=6))


def _raw(depth: int = 2):
    if depth == 0:
        return _constants
    inner = _raw(depth - 1)
    return st.one_of(_constants, st.lists(inner, max_size=3), st.dictionaries(_names, inner, max_size=3))


class TestConstructionFidelity:
    @given(st.dictionaries(_names, _raw(), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_a_dict_and_its_pairs_build_the_same_item(self, raw):
        item = DataItem(raw)
        assert item == DataItem(list(raw.items()))
        assert item == DataItem(iter(raw.items())) == DataItem(**raw)
        assert item.attributes() == tuple(raw)
        assert [item[name] for name in raw] == [coerce_value(value) for value in raw.values()]

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DataItem({"": 1}), "attribute name must be a non-empty string, got ''"),
            (lambda: DataItem({1: 2}), "attribute name must be a non-empty string, got 1"),
            (lambda: DataItem([(None, 2)]), "attribute name must be a non-empty string, got None"),
            (lambda: DataItem({"a": {"b": [{"": 1}]}}), "attribute name must be a non-empty string, got ''"),
            (lambda: DataItem([("a", 1), ("a", 2)]), "duplicate attribute name 'a' in data item"),
            (lambda: DataItem({"a": 1}, a=2), "duplicate attribute name 'a' in data item"),
            (lambda: DataItem({"a": object()}), "value of type 'object' does not fit the nested data model"),
            (lambda: DataItem({"a": [1, {"b": b"raw"}]}), "value of type 'bytes' does not fit the nested data model"),
            (lambda: Bag([1, 2j]), "value of type 'complex' does not fit the nested data model"),
            (lambda: coerce_value(range(3)), "value of type 'range' does not fit the nested data model"),
        ],
    )
    def test_rejections_keep_their_messages(self, build, message):
        with pytest.raises(DataModelError) as caught:
            build()
        assert str(caught.value) == message

    def test_the_first_fault_in_pair_order_is_the_one_reported(self):
        with pytest.raises(DataModelError, match="does not fit"):
            DataItem([("a", object()), ("", 1)])
        with pytest.raises(DataModelError, match="non-empty string"):
            DataItem([("", 1), ("a", object())])

    def test_subclasses_and_other_mappings_are_accepted_as_before(self):
        class Row(dict):
            pass

        class Name(str):
            pass

        class Count(int):
            pass

        plain = DataItem({"user": {"id": 7, "name": "lp"}, "tags": ["a", "b"]})
        assert DataItem(OrderedDict(user=OrderedDict(id=7, name="lp"), tags=["a", "b"])) == plain
        assert DataItem(Row(user=Row(id=7, name="lp"), tags=("a", "b"))) == plain
        assert DataItem(MappingProxyType({"user": MappingProxyType({"id": 7, "name": "lp"}), "tags": ["a", "b"]})) == plain
        assert DataItem({Name("user"): {"id": Count(7), "name": Name("lp")}, "tags": [Name("a"), "b"]}) == plain
        assert infer_type(DataItem({"n": Count(7), "s": Name("x")})).fields == (("n", INT), ("s", STRING))

    def test_model_values_pass_through_untouched(self):
        inner = DataItem({"k": 1})
        bag = Bag([inner])
        unique = NestedSet(["x", "x", "y"])
        outer = DataItem({"inner": inner, "bag": bag, "set": unique, "plain": {"k": 1}})
        assert outer["inner"] is inner and outer["bag"] is bag and outer["set"] is unique
        assert outer["plain"] == inner and bag[0] is inner
        assert coerce_value({"x", "y"}) == NestedSet(["x", "y"]) == coerce_value(frozenset({"x", "y"}))

    def test_true_stays_a_boolean(self):
        item = DataItem({"flag": True, "flags": [True, False], "n": 1})
        assert item["flag"] is True
        assert infer_type(item).fields == (
            ("flag", BOOLEAN),
            ("flags", BagType(BOOLEAN)),
            ("n", INT),
        )


@pytest.fixture
def write_path(monkeypatch):
    """Count what a write does: files opened (by mode), directories created,
    operator decodes, JSON parses, manifest writes, item-encoder calls,
    frame compressions and string-leaf walks."""
    counts: Counter = Counter()
    opened: list[tuple[str, str]] = []
    made: list[str] = []
    real_open, real_mkdir = io.open, os.mkdir

    def recording_open(file, mode="r", *args, **kwargs):
        opened.append((str(file), mode))
        return real_open(file, mode, *args, **kwargs)

    def recording_mkdir(path, *args, **kwargs):
        real_mkdir(path, *args, **kwargs)
        made.append(str(path))  # only a directory that was created

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    # ``Path.read_bytes`` / ``write_bytes`` / ``write_text`` go through io.open,
    # ``Path.mkdir`` through os.mkdir.
    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(os, "mkdir", recording_mkdir)
    counting(wf, "decode_operator")
    counting(wf, "_item_json")
    counting(wf, "_item_json_and_leaves")
    counting(wf.zlib, "compress")
    counting(json, "loads")
    counting(writer, "write_manifest")
    counting(index, "walk_string_leaves")
    # The backfill path calls it through its own import: same counter.
    monkeypatch.setattr(index, "write_manifest", writer.write_manifest)
    return counts, opened, made


def _written_under(directory, opened) -> list[str]:
    """The files opened for writing under *directory*, relative, sorted."""
    prefix = str(directory) + "/"
    return sorted(name[len(prefix):] for name, mode in opened if "w" in mode and name.startswith(prefix))


def _feed(tmp_path) -> StreamSession:
    stream = StreamSession(warehouse=tmp_path / "wh", name="feed")
    stream.open(stream.dataset().filter(col("id") >= 1).select(col("user"), col("id")))
    return stream


_FEED_ROWS = [{"id": i, "user": f"u{i % 2}", "ts": float(i)} for i in range(12)]


class TestRecordIsOnePass:
    def test_a_record_reads_nothing_back_and_encodes_an_item_object_once(
        self, tmp_path, write_path
    ):
        counts, opened, _ = write_path
        execution = scenario("T3").instantiate(scale=0.1).execute(capture=True)
        store = execution.store
        held = [
            item
            for provenance in store.operators()
            if store.is_source(provenance.oid)
            for item in store.source_items(provenance.oid).values()
        ]
        distinct = len({id(item) for item in held})
        assert (len(held), distinct) == (80, 40)  # T3 reads its input twice
        warehouse = Warehouse.open(tmp_path / "wh")
        counts.clear(), opened.clear()
        record = warehouse.record(execution, name="T3", index=True)
        run_dir = str(warehouse.run_dir(record.run_id))
        assert (run_dir + "/part.seg", "wb") in opened
        assert [name for name, mode in opened if name.startswith(run_dir) and "r" in mode] == []
        assert counts["decode_operator"] == 0 and counts["loads"] == 0
        assert counts["write_manifest"] == 1
        assert counts["_item_json_and_leaves"] == distinct
        assert counts["_item_json"] == len(execution.rows())
        # The two reads' frames hold the same payload objects: compressed once.
        assert counts["compress"] == -(-distinct // wf.FRAME_ITEMS)

    def test_an_append_writes_its_footer_once_and_reads_no_segment(self, tmp_path, write_path):
        counts, opened, _ = write_path
        stream = _feed(tmp_path)
        stream.ingest(_FEED_ROWS[:6])
        counts.clear(), opened.clear()
        stream.ingest(_FEED_ROWS[6:])
        assert [mode for name, mode in opened if name.endswith("part.json")] == ["w"]
        assert (str(stream.warehouse.run_dir(stream.run_id) / "batches/epoch-0002/part.seg"), "wb") in opened
        assert [name for name, mode in opened if name.endswith(".seg") and "r" in mode] == []
        assert counts["decode_operator"] == 0
        assert counts["_item_json_and_leaves"] == 6 and counts["_item_json"] == 6  # items, rows


class TestAPartIsOneFile:
    """A batch run or an epoch is one ``part.seg`` beside its footer, and
    its index terms come from the walk that encoded its items."""

    def test_a_record_writes_its_part_manifest_and_metrics_in_one_new_directory(
        self, tmp_path, write_path
    ):
        counts, opened, made = write_path
        execution = scenario("T1").instantiate(scale=0.05).execute(capture=True)
        warehouse = Warehouse.open(tmp_path / "wh")
        warehouse.record(execution, name="first")  # ``runs/`` exists from here on
        counts.clear(), opened.clear(), made.clear()
        run_dir = warehouse.run_dir(warehouse.record(execution, name="T1").run_id)
        assert counts["walk_string_leaves"] == 0
        assert _written_under(run_dir, opened) == ["manifest.json.tmp", "metrics.json", "part.seg"]
        assert made == [str(run_dir)]

    def test_an_ingest_writes_its_part_and_footer_and_the_head(self, tmp_path, write_path):
        counts, opened, made = write_path
        stream = _feed(tmp_path)
        stream.ingest(_FEED_ROWS[:6])
        counts.clear(), opened.clear(), made.clear()
        stream.ingest(_FEED_ROWS[6:])
        run_dir = stream.warehouse.run_dir(stream.run_id)
        epoch = "batches/epoch-0002/"
        assert counts["walk_string_leaves"] == 0
        assert _written_under(run_dir, opened) == [
            epoch + "part.json", epoch + "part.seg", "manifest.json.tmp"
        ]
        assert made == [str(run_dir / epoch.rstrip("/"))]
