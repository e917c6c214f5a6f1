"""The streaming write path costs O(batch), survives a crashed append, and
reads the same whichever manifest shape holds an epoch's footer.

Three contracts, none of them timed:

* **O(batch).**  An append reads and rewrites the head and touches nothing
  of any earlier epoch; the head grows by one slim line per epoch; and
  compaction moves source items and sink rows as stored bytes -- it parses
  none.
* **Crash safety.**  An append that dies after its ``part.seg``, after its
  ``part.json`` or before the head rename leaves exactly the pre-state, and
  the next append goes through; so does a ``record`` that dies after its
  ``part.seg``, after the manifest rename or before the catalog rename.
* **One reader for both shapes.**  A head written by <= 2.3 carries each
  epoch's footer inline (and each segment in its own file); ``run_parts``
  takes it as it is, so inspect, pinned backtrace, retention and compaction
  agree with the ``part.json`` shape.
"""

from __future__ import annotations

import builtins
import io
import json
import shutil
from pathlib import Path

import pytest

import repro.warehouse.format as wf
import repro.warehouse.live as live
import repro.warehouse.writer as writer
from repro.engine.expressions import col, collect_list, count
from repro.engine.metrics import ExecutionMetrics
from repro.engine.session import Session
from repro.nested.values import DataItem
from repro.pebble.query import query_provenance
from repro.stream import StreamSession, TumblingWindow, window_by
from repro.warehouse import RunIndex, Warehouse
from repro.warehouse.catalog import Catalog
from repro.warehouse.reader import (
    LazyProvenanceStore,
    StoredRun,
    load_manifest,
    read_range,
    run_parts,
)
from repro.workloads import scenario
from repro.workloads.scenarios import load_workload

PATTERN = 'root{/user="u1", /ids}'


def _rows(lo: int, hi: int) -> list[dict]:
    return [{"id": i, "user": f"u{i % 2}", "ts": float(i)} for i in range(lo, hi)]


def _plan(dataset):
    return window_by(dataset, col("ts"), TumblingWindow(4.0), col("user")).agg(
        collect_list(col("id")).alias("ids"), count().alias("n")
    )


def _open_stream(root: Path) -> StreamSession:
    stream = StreamSession(warehouse=root, name="feed")
    stream.open(_plan(stream.dataset()))
    return stream


def _segments(run_dir: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*.seg"))
    }


def _tree(run_dir: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


def _assert_indexed_like_the_disk_feeder(run_dir: Path) -> int:
    """Every part's index segment -- fed by the writer from what it held --
    is what ``RunIndex.build`` derives from the part's segments; returns the
    number of parts checked."""
    parts = run_parts(run_dir, load_manifest(run_dir))
    for part in parts:
        assert read_range(part.directory, part.index) == RunIndex.build(part).encode()
    return len(parts)


def _record_batch(warehouse: Warehouse, rows: list[dict]) -> Path:
    session = Session()
    dataset = session.create_dataset([DataItem(row) for row in rows], "stream")
    batch = _plan(dataset).execute(capture=True)
    return warehouse.run_dir(warehouse.record(batch, name="batch").run_id)


def _narrow(dataset):
    return dataset.filter(col("id") >= 1).select(col("user"), col("id"))


class TestCrashedAppend:
    """The writer dies after the epoch's ``part.seg``, after its
    ``part.json``, or with the new head written but not renamed; each test
    walks all three points.  The plan is windowless, so re-ingesting the
    batch that never committed is the whole recovery (at-least-once
    delivery)."""

    CRASH_POINTS = {
        "after-part.seg": (live, "write_part_footer"),
        "after-part.json": (live, "write_manifest"),
        "before-the-head-rename": (Path, "replace"),
    }

    @pytest.fixture()
    def crash(self, tmp_path, monkeypatch):
        """``crash(point)`` -> (stream, run dir) of a stream, under its own
        root, whose second ingest died at *point*."""

        def die(*args, **kwargs):
            raise OSError("killed mid-append")

        def crashed(point: str):
            stream = StreamSession(warehouse=tmp_path / point, name="feed")
            stream.open(_narrow(stream.dataset()))
            stream.ingest(_rows(0, 6))
            with monkeypatch.context() as patch:
                patch.setattr(*self.CRASH_POINTS[point], die)
                with pytest.raises(OSError):
                    stream.ingest(_rows(6, 10))
            return stream, stream.warehouse.run_dir(stream.run_id)

        return crashed

    def test_reopen_shows_exactly_the_pre_state(self, tmp_path, crash):
        for point in self.CRASH_POINTS:
            stream, run_dir = crash(point)
            # The epoch's part landed; the head never moved.
            assert (run_dir / "batches" / "epoch-0002" / "part.seg").exists(), point
            head = load_manifest(run_dir)
            assert head["segment_epoch"] == 1 and len(head["epochs"]) == 1, point
            reopened = Warehouse.open(tmp_path / point)
            summary = reopened.inspect(stream.run_id)
            assert [entry["epoch"] for entry in summary["epochs"]] == [1]
            assert summary["rows"] == 5 and reopened.resolve(stream.run_id).segment_epoch == 1
            answer, _ = reopened.backtrace(stream.run_id, 'root{/user="u1"}')
            assert sorted(answer.all_ids()) and len(answer.matched_output_ids) == 3

    def test_the_next_ingest_succeeds_and_compacts_to_the_batch_bytes(self, crash):
        session = Session()
        rows = [DataItem(row) for row in _rows(0, 10)]
        batch = _narrow(session.create_dataset(rows, "stream")).execute(capture=True)
        for point in self.CRASH_POINTS:
            stream, run_dir = crash(point)
            garbage = run_dir / "batches" / "epoch-0002"
            _half_write(garbage / "part.seg")
            (garbage / "stale.seg").write_bytes(b"left by the dead writer")
            entry = stream.ingest(_rows(6, 10))  # used to raise FileExistsError
            assert entry["epoch"] == 2 and entry["rows"] == 4
            assert not (garbage / "stale.seg").exists(), point  # cleared, not merged
            record = stream.finish(compact=True)
            warehouse = stream.warehouse
            batch_dir = warehouse.run_dir(warehouse.record(batch, name="batch").run_id)
            assert _segments(warehouse.run_dir(record.run_id)) == _segments(batch_dir), point


class TestCrashedRecord:
    """``record`` dies after its ``part.seg``, after the manifest rename (in
    ``metrics.json``) or before the catalog rename.  ``next_seq`` is
    persisted by that rename, so a reopened warehouse mints the crashed
    run's id again and finds its directory."""

    PATTERN = 'root{/user="u1"}'

    @pytest.fixture(
        params=[(writer, "write_manifest"), (ExecutionMetrics, "to_json"), (Catalog, "save")],
        ids=["after-part.seg", "after-the-manifest-rename", "before-the-catalog-rename"],
    )
    def crashed(self, request, tmp_path, monkeypatch):
        warehouse = Warehouse.open(tmp_path / "wh")
        session = Session()
        rows = [DataItem(row) for row in _rows(0, 10)]
        batch = _narrow(session.create_dataset(rows, "stream")).execute(capture=True)
        kept = warehouse.record(batch, name="kept")
        before = _tree(tmp_path / "wh")

        def die(*args, **kwargs):
            raise OSError("killed mid-record")

        monkeypatch.setattr(*request.param, die)
        with pytest.raises(OSError):
            warehouse.record(batch, name="t1")
        monkeypatch.undo()
        return tmp_path / "wh", batch, kept, before

    def test_reopen_shows_exactly_the_pre_state(self, crashed):
        root, batch, kept, before = crashed
        left = root / "runs" / "run-0002-t1"
        assert (left / "part.seg").exists()  # the dead writer got that far
        after = _tree(root)
        assert {name: after[name] for name in before} == before
        reopened = Warehouse.open(root)
        assert [record.run_id for record in reopened.runs()] == [kept.run_id]
        answer, _ = reopened.backtrace(None, self.PATTERN)
        assert answer.render() == query_provenance(batch, self.PATTERN).render()

    def test_the_retry_succeeds_and_answers_like_the_capture(self, crashed):
        root, batch, kept, _ = crashed
        left = root / "runs" / "run-0002-t1"
        _half_write(left / "part.seg")
        (left / "stale.seg").write_bytes(b"left by the dead writer")
        for _ in range(2):  # a directory left behind used to wedge the name for good
            reopened = Warehouse.open(root)
            record = reopened.record(batch, name="t1")
        assert record.run_id == "run-0003-t1"
        assert not (left / "stale.seg").exists()  # cleared, not merged
        assert _segments(left) == _segments(reopened.run_dir(kept.run_id))
        answer, _ = Warehouse.open(root).backtrace("run-0002-t1", self.PATTERN)
        assert answer.matched_output_ids
        assert answer.render() == query_provenance(batch, self.PATTERN).render()


class TestCostFollowsTheBatch:
    EPOCHS = 120

    @pytest.fixture()
    def long_stream(self, tmp_path):
        stream = _open_stream(tmp_path / "wh")
        run_dir = stream.warehouse.run_dir(stream.run_id)
        sizes = []
        for epoch in range(self.EPOCHS):
            stream.ingest(_rows(epoch * 3, epoch * 3 + 3))
            sizes.append((run_dir / "manifest.json").stat().st_size)
        return stream, run_dir, sizes

    def test_head_grows_by_one_slim_line_per_epoch(self, long_stream):
        _, run_dir, sizes = long_stream
        growth = [after - before for before, after in zip(sizes, sizes[1:])]
        assert max(growth) <= 256, max(growth)
        assert sizes[-1] <= 256 * self.EPOCHS
        head = load_manifest(run_dir)
        assert len(head["epochs"]) == self.EPOCHS
        assert all("operators" not in entry for entry in head["epochs"])
        assert head["operator_count"] == len(
            json.loads((run_dir / head["epochs"][-1]["dir"] / "part.json").read_text())[
                "operators"
            ]
        )

    def test_an_append_opens_nothing_of_an_earlier_epoch(self, long_stream, monkeypatch):
        stream, run_dir, _ = long_stream
        opened: list[str] = []
        real_open = io.open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        # ``Path.read_bytes`` / ``write_bytes`` / ``open`` all go through io.open.
        monkeypatch.setattr(io, "open", recording_open)
        monkeypatch.setattr(builtins, "open", recording_open)
        stream.ingest(_rows(1000, 1003))
        monkeypatch.undo()

        batches = str(run_dir / "batches")
        own = str(run_dir / "batches" / f"epoch-{self.EPOCHS + 1:04d}")
        touched = [name for name in opened if name.startswith(batches)]
        assert touched, "the recorder saw no epoch file at all"
        assert all(name.startswith(own) for name in touched), touched
        assert str(run_dir / "manifest.json") in opened  # the head is re-read
        assert _assert_indexed_like_the_disk_feeder(run_dir) == self.EPOCHS + 1

    def test_compaction_parses_no_item_and_no_row(self, long_stream, monkeypatch):
        stream, run_dir, _ = long_stream
        rows = [row for epoch in range(self.EPOCHS) for row in _rows(epoch * 3, epoch * 3 + 3)]
        stores = []

        class Watched(live.LazyProvenanceStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stores.append(self)

        def no_parse(raw):
            raise AssertionError("compaction parsed an item")

        monkeypatch.setattr(live, "LazyProvenanceStore", Watched)
        monkeypatch.setattr(wf, "item_from_json", no_parse)
        record = stream.finish(compact=True)
        monkeypatch.undo()

        (store,) = stores
        assert store.metrics.items_decoded == 0
        assert store.metrics.rows_decoded == 0
        assert store.metrics.item_misses == 1  # the blocks were read, header-hopped
        assert not (run_dir / "batches").exists()
        assert _segments(stream.warehouse.run_dir(record.run_id)) == _segments(
            _record_batch(stream.warehouse, rows)
        )
        assert _assert_indexed_like_the_disk_feeder(run_dir) == 1

    def test_a_streamed_s1_is_indexed_like_the_disk_feeder_would(self, tmp_path):
        """Nested tweets, per epoch (the writer holds item objects) and
        compacted (it holds only their stored bytes)."""
        spec = scenario("S1")
        tweets = load_workload("twitter", 0.05)
        stream = StreamSession(warehouse=tmp_path / "wh", name="s1")
        stream.open(spec.build(stream.session, stream.dataset(stream.source("tweets.json"))))
        for low in range(0, len(tweets), 5):
            stream.ingest(tweets[low : low + 5])
        run_dir = stream.warehouse.run_dir(stream.run_id)
        assert _assert_indexed_like_the_disk_feeder(run_dir) == stream.epochs == 4
        stream.finish(compact=True)
        assert _assert_indexed_like_the_disk_feeder(run_dir) == 1
        answer, _ = stream.warehouse.backtrace(stream.run_id, spec.pattern)
        assert answer.matched_output_ids


def _half_write(path: Path) -> None:
    """Leave *path* as a writer that died halfway through it would."""
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _slice(blob: bytes, location: dict) -> bytes:
    return blob[location["offset"] : location["offset"] + location["segment_bytes"]]


def _inline_footers(run_dir: Path) -> None:
    """Rewrite *run_dir* the way <= 2.3 wrote it: every epoch's segments in
    their own files (``ops/op-<oid>.seg``, ``rows.seg``, ``index.seg``),
    source items as raw JSON records instead of frames, and its footer
    inline in the (indented, layout-2) manifest, no ``part.json``."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest.pop("operator_count")
    manifest["format"] = 2
    for entry in manifest["epochs"]:
        part_dir = run_dir / entry["dir"]
        footer = json.loads((part_dir / "part.json").read_text())
        blob = (part_dir / "part.seg").read_bytes()
        (part_dir / "ops").mkdir()
        entry["operators"] = {}
        for oid, op in footer["operators"].items():
            start = op["offset"] - wf.PREAMBLE
            name = f"op-{int(oid):06d}.seg"
            segment = blob[start : op["offset"] + op["record_length"]]
            sizes = {}
            if "items_offset" in op:
                start_items = op["items_offset"]
                block = wf.open_source_items(blob[start_items : start_items + op["items_length"]])
                raw = [wf._string(block.name), wf._u64(len(block.ids()))]
                raw += [
                    wf._u64(item_id) + wf._u32(len(payload)) + payload
                    for item_id, payload in block.encoded()
                ]
                sizes["items_length"] = len(b"".join(raw))
                segment += b"".join(raw)
            (part_dir / "ops" / name).write_bytes(segment)
            moved = {key: op[key] - start for key in ("offset", "items_offset") if key in op}
            entry["operators"][oid] = dict(
                op, segment=name, segment_bytes=len(segment), **moved, **sizes
            )
        (part_dir / "rows.seg").write_bytes(_slice(blob, footer["rows"]))
        if footer["index"] is not None:
            (part_dir / "index.seg").write_bytes(_slice(blob, footer["index"]))
            entry["index"] = dict(footer["index"], segment="index.seg")
            del entry["index"]["offset"]
        entry["rows_bytes"] = footer["rows"]["segment_bytes"]
        (part_dir / "part.json").unlink()
        (part_dir / "part.seg").unlink()
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _unsized(summary: dict) -> dict:
    """An inspect summary without the read operator's segment size and the
    ledger's item bytes, which the old shape's raw item block makes larger."""
    del summary["bytes"]["items"]
    for op in summary["operators"]:
        if op["kind"] == "read":
            del op["segment_bytes"]
    return summary


class TestBothShapesReadTheSame:
    @pytest.fixture()
    def pair(self, tmp_path):
        """The same sealed three-epoch run twice: as written now, and
        hand-converted to the inline-``operators`` shape."""
        stream = _open_stream(tmp_path / "new")
        stream.ingest(_rows(0, 6))
        stream.ingest(_rows(6, 10))
        stream.finish(compact=False)
        shutil.copytree(tmp_path / "new", tmp_path / "old")
        new, old = Warehouse.open(tmp_path / "new"), Warehouse.open(tmp_path / "old")
        _inline_footers(old.run_dir(stream.run_id))
        assert not list(old.run_dir(stream.run_id).rglob("part.json"))
        return new, old, stream.run_id

    def test_inspect_and_index(self, pair):
        """Alike but for the sizes of the read operator's segment: the old
        shape keeps its items as raw JSON."""
        new, old, run_id = pair
        assert _unsized(old.inspect(run_id)) == _unsized(new.inspect(run_id))
        assert len(new.inspect(run_id)["epochs"]) == 3
        assert old.load_index(run_id).summary() == new.load_index(run_id).summary()

    def test_backtrace_pinned_to_an_admission_epoch(self, pair):
        new, old, run_id = pair
        for max_epoch in (1, 2, 3):
            answers = [
                StoredRun(
                    LazyProvenanceStore(warehouse.run_dir(run_id), max_epoch=max_epoch)
                ).backtrace(PATTERN)
                for warehouse in (new, old)
            ]
            assert answers[0].render() == answers[1].render(), max_epoch
            assert answers[0].all_ids() == answers[1].all_ids(), max_epoch
        assert answers[0].matched_output_ids

    def test_retain_expires_the_footer_with_its_directory(self, pair):
        new, old, run_id = pair
        created = load_manifest(new.run_dir(run_id))["epochs"][0]["created"]
        receipts = []
        for warehouse in (new, old):
            assert (warehouse.run_dir(run_id) / "batches" / "epoch-0001").exists()
            # TTL and clock chosen so only the first epoch is past the horizon.
            report = warehouse.retain(1.0, run_id, now=created + 1.0)
            (receipt,) = report["receipts"]
            assert receipt["verified"] == {"sink_ids_absent": True, "source_ids_absent": True}
            assert [record["epoch"] for record in receipt["expired_epochs"]] == [1]
            assert not (warehouse.run_dir(run_id) / "batches" / "epoch-0001").exists()
            receipts.append(receipt)
        assert receipts[0] == receipts[1]  # digest included
        assert _unsized(new.inspect(run_id)) == _unsized(old.inspect(run_id))
        expired = load_manifest(old.run_dir(run_id))["epochs"][0]
        assert expired["expired"] and "operators" not in expired
        after = [warehouse.backtrace(run_id, PATTERN)[0].render() for warehouse in (new, old)]
        assert after[0] == after[1]

    def test_compact_gives_the_same_run(self, pair):
        new, old, run_id = pair
        for warehouse in (new, old):
            warehouse.seal_live_run(run_id, compact=True)
        assert _tree(new.run_dir(run_id)) == _tree(old.run_dir(run_id))
        assert _segments(new.run_dir(run_id)) == _segments(
            _record_batch(new, _rows(0, 10))
        )

    def test_an_old_live_head_keeps_growing(self, tmp_path):
        """A <= 2.3 run that is still live takes new-shape epochs after its
        inline ones; the reader sees both."""
        stream = _open_stream(tmp_path / "wh")
        stream.ingest(_rows(0, 6))
        run_dir = stream.warehouse.run_dir(stream.run_id)
        _inline_footers(run_dir)
        stream.ingest(_rows(6, 10))
        head = load_manifest(run_dir)
        assert ["operators" in entry for entry in head["epochs"]] == [True, False]
        record = stream.finish(compact=True)
        assert record.operator_count == head["operator_count"]
        assert _segments(run_dir) == _segments(_record_batch(stream.warehouse, _rows(0, 10)))
