"""The persisted per-run index: build, round-trip, manifest wiring, probes."""

from __future__ import annotations

import json
import tempfile
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.expressions import col
from repro.engine.session import Session
from repro.errors import ProvenanceError
from repro.nested.json_io import item_to_json
from repro.nested.values import Bag, DataItem
import repro.warehouse.format as wf
from repro.warehouse import RunIndex, Warehouse, ensure_index
from repro.warehouse.index import INDEX_SEGMENT, MAX_TERM_LEN, walk_string_leaves
from repro.warehouse.reader import load_manifest, read_range
from repro.warehouse.writer import PART_SEGMENT
from repro.workloads.scenarios import SCENARIOS


@pytest.fixture
def recorded(captured_example, tmp_path):
    """The running example recorded (indexed); returns (warehouse, record)."""
    warehouse = Warehouse.open(tmp_path / "wh")
    record = warehouse.record(captured_example, name="example")
    return warehouse, record


def _index_bytes(run_dir) -> bytes:
    """The index segment a run's manifest locates (in ``part.seg`` when
    recorded with it, in ``index.seg`` when backfilled)."""
    return read_range(run_dir, load_manifest(run_dir)["index"])


def _both_feeders(warehouse, execution) -> tuple[bytes, bytes]:
    """The index as the writer feeds it (in the recording pass, the last
    segment of ``part.seg``) and as the disk feeder derives it from a run
    recorded without one (``index.seg``)."""
    at_record = warehouse.record(execution, name="indexed", index=True)
    backfilled = warehouse.record(execution, name="plain", index=False)
    assert at_record.indexed and not backfilled.indexed
    warehouse.build_index(backfilled.run_id)
    assert warehouse.resolve(backfilled.run_id).indexed
    assert not (warehouse.run_dir(at_record.run_id) / INDEX_SEGMENT).exists()
    assert (warehouse.run_dir(backfilled.run_id) / INDEX_SEGMENT).exists()
    return tuple(
        _index_bytes(warehouse.run_dir(record.run_id)) for record in (at_record, backfilled)
    )


#: Leaves the two feeders could disagree on: what JSON escapes, what UTF-8
#: widens, the empty string, and both sides of the term cap.
_leaves = st.one_of(
    st.sampled_from(
        ["", '"', "\\", 'a"b\\c', "\n\t\x00\x1f", "\u2028", "é", "日本", "😀"]
        + ["x" * MAX_TERM_LEN, "y" * (MAX_TERM_LEN + 1)]
    ),
    st.text(max_size=5),
)
_raw_items = st.fixed_dictionaries(
    {
        "s": _leaves,
        "tags": st.lists(_leaves, max_size=3),
        "nest": st.lists(st.lists(_leaves, max_size=2), max_size=2),
        "deep": st.fixed_dictionaries(
            {"bag": st.lists(st.lists(st.fixed_dictionaries({"t": _leaves}), max_size=2), max_size=2)}
        ),
    }
)


class TestBuildAndRoundTrip:
    def test_record_builds_and_catalogues_the_index(self, recorded):
        warehouse, record = recorded
        assert record.indexed
        run_dir = warehouse.run_dir(record.run_id)
        assert not (run_dir / INDEX_SEGMENT).exists()
        manifest = load_manifest(run_dir)
        entry = manifest["index"]
        assert entry["segment"] == PART_SEGMENT
        # The index is the part's last segment.
        assert entry["offset"] + entry["segment_bytes"] == (run_dir / PART_SEGMENT).stat().st_size
        assert entry["inputs"] > 0 and entry["terms"] > 0 and entry["items"] > 0

    def test_encode_decode_round_trip(self, recorded):
        warehouse, record = recorded
        run_dir = warehouse.run_dir(record.run_id)
        index = RunIndex.load(run_dir, load_manifest(run_dir))
        clone = RunIndex.decode(index.encode())
        assert clone.inputs == index.inputs
        assert clone.terms == index.terms
        assert clone.item_count == index.item_count
        assert clone.accessed == index.accessed
        assert clone.manipulated == index.manipulated

    def test_backfill_produces_identical_bytes(self, captured_example, tmp_path):
        """`repro index build` after the fact == index built at record time."""
        first, second = _both_feeders(Warehouse.open(tmp_path / "wh"), captured_example)
        assert first == second

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_both_feeders_agree_on_every_scenario(self, name, tmp_path):
        execution = SCENARIOS[name].instantiate(scale=0.05, num_partitions=2).execute(capture=True)
        first, second = _both_feeders(Warehouse.open(tmp_path / "wh"), execution)
        assert first == second

    @given(st.lists(_raw_items, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_both_feeders_agree_on_generated_items(self, raws):
        """One item list under two reads, leaves in a bag of bags."""
        items = [DataItem(dict(raw, k=position)) for position, raw in enumerate(raws)]
        for item in items:  # the model walk sees what the parsed JSON shows
            parsed = json.loads(item_to_json(item))
            assert sorted(walk_string_leaves(item)) == sorted(walk_string_leaves(parsed))
        session = Session(num_partitions=2)
        reads = [session.create_dataset(items, "in.json") for _ in range(2)]
        execution = reads[0].union(reads[1]).filter(col("k") >= 0).execute(capture=True)
        store = execution.store
        sources = [p.oid for p in store.operators() if store.is_source(p.oid)]
        assert len(sources) == 2 and all(
            one is other
            for one, other in zip(*(store.source_items(oid).values() for oid in sources))
        )
        with tempfile.TemporaryDirectory() as root:
            warehouse = Warehouse.open(root)
            first, second = _both_feeders(warehouse, execution)
            index = warehouse.load_index("indexed")
        assert first == second
        for raw in raws:
            if len(raw["s"]) <= MAX_TERM_LEN:
                assert index.candidates(raw["s"])

    def test_load_returns_none_when_unindexed(self, captured_example, tmp_path):
        warehouse = Warehouse.open(tmp_path / "wh")
        record = warehouse.record(captured_example, name="plain", index=False)
        run_dir = warehouse.run_dir(record.run_id)
        assert RunIndex.load(run_dir, load_manifest(run_dir)) is None
        assert warehouse.load_index(record.run_id) is None

    def test_build_index_is_idempotent(self, recorded):
        warehouse, record = recorded
        run_dir = warehouse.run_dir(record.run_id)
        before = _index_bytes(run_dir)
        warehouse.build_index(record.run_id)
        assert _index_bytes(run_dir) == before
        warehouse.build_index(record.run_id, force=True)  # re-derived into index.seg
        assert (run_dir / INDEX_SEGMENT).read_bytes() == _index_bytes(run_dir) == before

    @given(_raw_items)
    @settings(max_examples=60, deadline=None)
    def test_the_encoder_pass_collects_every_string_leaf(self, raw):
        """The writer's terms come from the pass that encodes the item: the
        same bytes as the plain encoder and the same multiset of leaves as
        the model walk, model subclasses included."""

        class Row(DataItem):
            __slots__ = ()

        class Tags(Bag):
            __slots__ = ()

        item = Row(dict(raw, sub=Row(tags=Tags(raw["tags"]), s=raw["s"])))
        encoded, leaves = wf._item_json_and_leaves(item)
        assert encoded == wf._item_json(item)
        assert sorted(leaves) == sorted(walk_string_leaves(item))


class TestProbes:
    @pytest.fixture
    def loaded(self, recorded):
        warehouse, record = recorded
        run_dir = warehouse.run_dir(record.run_id)
        manifest = load_manifest(run_dir)
        store = warehouse.load(record.run_id).store
        return RunIndex.load(run_dir, manifest), store, run_dir, manifest

    def test_inputs_cover_every_consumed_id(self, loaded):
        """Every id an operator's associations consume maps back to it."""
        index, store, _, _ = loaded
        for provenance in store.operators():
            oid = provenance.oid
            if store.is_source(oid):
                continue
            for ids in _input_sides(provenance):
                for item_id in ids:
                    assert oid in index.consumers(item_id)

    def test_term_postings_locate_the_item(self, loaded):
        index, store, _, _ = loaded
        postings = index.candidates("lp")
        assert postings, "sentinel id_str 'lp' must be indexed"
        for oid, item_id in postings:
            item = store.source_item(oid, item_id)
            from repro.nested.json_io import _jsonable

            assert "lp" in set(walk_string_leaves(_jsonable(item)))

    def test_over_cap_term_probe_raises(self, loaded):
        index, _, _, _ = loaded
        with pytest.raises(ProvenanceError):
            index.candidates("x" * (MAX_TERM_LEN + 1))

    def test_each_item_ids_frame_slot_holds_exactly_that_item(self, loaded):
        """Slot ``i`` of a block's id column is item ``i % FRAME_ITEMS`` of
        frame ``i // FRAME_ITEMS``: cut each block out of ``part.seg``,
        inflate its frames by hand and compare with the store's item."""
        from repro.nested.json_io import item_from_json

        index, store, run_dir, manifest = loaded
        part = (run_dir / PART_SEGMENT).read_bytes()
        checked = 0
        for oid_text, entry in manifest["operators"].items():
            if "items_offset" not in entry:
                continue
            start = entry["items_offset"]
            cursor = wf.Cursor(part[start : start + entry["items_length"]])
            assert cursor.string() == entry["source_name"]
            count = cursor.u64()
            ids = [cursor.u64() for _ in range(count)]
            lengths = [cursor.u32() for _ in range(-(-count // wf.FRAME_ITEMS))]
            frames = []
            for length in lengths:
                frame = cursor.buffer[cursor.offset : cursor.offset + length]
                plain = wf.Cursor(zlib.decompress(frame))
                cursor.offset += length
                frames.append([])
                while plain.offset < len(plain.buffer):
                    frames[-1].append(plain.raw())
            assert cursor.offset == len(cursor.buffer)
            assert [len(frame) for frame in frames[:-1]] == [wf.FRAME_ITEMS] * (len(frames) - 1)
            for slot, item_id in enumerate(ids):
                raw = frames[slot // wf.FRAME_ITEMS][slot % wf.FRAME_ITEMS]
                assert repr(item_from_json(raw)) == repr(store.source_item(int(oid_text), item_id))
                checked += 1
        assert checked == index.item_count > 0

    def test_paths_index_lists_accessed_operators(self, loaded):
        index, store, _, _ = loaded
        for path, oids in index.accessed.items():
            for oid in oids:
                provenance = store.get(oid)
                accessed = {
                    str(p)
                    for ref in provenance.inputs
                    for p in ref.accessed_or_empty()
                }
                assert path in accessed

    def test_unknown_probes_are_empty(self, loaded):
        index, _, _, _ = loaded
        assert index.consumers(10**12) == ()
        assert index.candidates("no-such-term-anywhere") == ()
        assert index.operators_touching("no.such.path") == {
            "accessed": (),
            "manipulated": (),
        }


class TestManifestWiring:
    def test_ensure_index_rewrites_manifest_atomically(
        self, captured_example, tmp_path, monkeypatch
    ):
        def assert_clean(run_dir):
            """One writer for every manifest: nothing left behind, and the
            bytes are the compact dump the C encoder produces."""
            assert not (run_dir / "manifest.json.tmp").exists()
            raw = (run_dir / "manifest.json").read_text()
            assert raw == json.dumps(json.loads(raw))

        warehouse = Warehouse.open(tmp_path / "wh")
        record = warehouse.record(captured_example, name="plain", index=False)
        run_dir = warehouse.run_dir(record.run_id)
        assert_clean(run_dir)  # write_run
        assert "index" not in load_manifest(run_dir)
        entry = ensure_index(run_dir)
        assert_clean(run_dir)
        manifest = load_manifest(run_dir)
        assert manifest["index"] == entry
        # The rewritten manifest still loads the run.
        assert warehouse.load(record.run_id).store is not None

        # A write torn mid-dump never shows up under the manifest's name --
        # not for a rewrite (the old manifest survives) and not for write_run.
        def torn(path, text, **kwargs):
            with open(path, "w") as handle:
                handle.write(text[:22])
            raise OSError("disk full")

        monkeypatch.setattr(type(run_dir), "write_text", torn)
        with pytest.raises(OSError):
            ensure_index(run_dir, dict(manifest))
        with pytest.raises(OSError):
            warehouse.record(captured_example, name="torn", index=False)
        monkeypatch.undo()
        assert load_manifest(run_dir) == manifest
        (torn_dir,) = [
            path for path in run_dir.parent.iterdir() if path.name.endswith("torn")
        ]
        assert not (torn_dir / "manifest.json").exists()

    def test_catalog_round_trips_indexed_flag(self, recorded):
        warehouse, record = recorded
        reopened = Warehouse.open(warehouse.root)
        assert reopened.resolve(record.run_id).indexed

    def test_pre_index_catalogs_still_load(self, recorded):
        """Catalogs written before 1.3 carry no 'indexed' key."""
        warehouse, record = recorded
        path = warehouse.root / "catalog.json"
        document = json.loads(path.read_text())
        for entry in document["runs"]:
            del entry["indexed"]
        path.write_text(json.dumps(document))
        reopened = Warehouse.open(warehouse.root)
        assert reopened.resolve(record.run_id).indexed is False
        # The index itself is still discovered via the manifest.
        assert reopened.load_index(record.run_id) is not None


def _input_sides(provenance):
    """Consumed-id groups per association record, mirroring the index build."""
    from repro.core.operator_provenance import (
        AggregationAssociations,
        BinaryAssociations,
        FlattenAssociations,
        UnaryAssociations,
    )

    associations = provenance.associations
    if isinstance(associations, UnaryAssociations):
        return [[id_in] for id_in, _ in associations.records]
    if isinstance(associations, FlattenAssociations):
        return [[id_in] for id_in, _, _ in associations.records]
    if isinstance(associations, BinaryAssociations):
        return [
            [side for side in (id_in1, id_in2) if side is not None]
            for id_in1, id_in2, _ in associations.records
        ]
    if isinstance(associations, AggregationAssociations):
        return [list(members) for members, _ in associations.records]
    return []
