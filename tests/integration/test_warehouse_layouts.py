"""Run layouts: layout 4 writes each part as one ``part.seg`` with its
source items in compressed frames; layout 3 (raw item JSON) and layout 2 (a
file per segment) are no longer written and still read.  Nor are storage
shards: runs a pre-3.6 writer put under ``shards/<name>/runs/`` still read.

The layout-2 side is the committed ``tests/fixtures/warehouse_v2`` warehouse
(a batch run, a sub-sharded batch run, a sealed epoch run and a live head),
written by the last layout-2 writer together with the digests of its
backtrace, forward and SAR answers.  Over a temporary copy of it:

* every answer digest is still the one recorded;
* ``repro index build`` re-derives what the recorded ``index.seg`` says;
* the live head takes current-layout epochs after its layout-2 ones,
  answers over both, and compacts to the bytes of a one-shot record of the
  same rows.

The layout-3 side is the committed ``tests/fixtures/warehouse_v3`` (a batch
run and a two-epoch live run), held to the same three promises.

The sharded side is the committed ``tests/fixtures/warehouse_sharded``
(two runs, one per shard, with the digests of their answers).  Over a copy,
every answer digest is still the one recorded; a new run lands flat under
``runs/``; and a save drops the catalog's old ``"shards"`` / ``"epoch"``
keys but keeps each run's ``"shard"``.

And one meaning of ``total_bytes`` for every run shape: the size of the
run's ``part.seg`` files.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.engine.executor import Executor
from repro.engine.session import Session
from repro.nested.values import DataItem
from repro.pebble.query import query_provenance
from repro.serve.service import result_to_json
from repro.stream import StreamSession
from repro.warehouse import Warehouse
from repro.warehouse.catalog import Catalog
from repro.warehouse.format import LAYOUT_VERSION
from repro.warehouse.index import INDEX_VERSION, RunIndex
from repro.warehouse.reader import load_manifest
from tests.fixtures.make_warehouse_v2 import LIVE_BATCHES, answer_digests, narrow, stream_rows
from tests.oracle.full_parse import full_parse_backtrace

PATTERN = 'root{/user="u1"}'


def _batch(rows: list[dict]):
    session = Session(num_partitions=2)
    return narrow(session.create_dataset([DataItem(row) for row in rows], "stream")).execute(
        capture=True
    )


def _append(warehouse: Warehouse, run_id: str, rows: list[dict]) -> None:
    """One micro-batch onto a live run, run the way ``StreamSession`` runs it."""
    session = Session(num_partitions=2)
    executor = Executor(capture=True, config=session.config)
    executor._next_id = load_manifest(warehouse.run_dir(run_id))["next_pid"]
    dataset = narrow(session.create_dataset([DataItem(row) for row in rows], "stream"))
    execution = executor.execute(dataset.plan)
    warehouse.append_live_epoch(run_id, execution, next_pid=executor._next_id)


def _answer(warehouse: Warehouse, run_id: str, pattern: str) -> str:
    return json.dumps(
        result_to_json(full_parse_backtrace(warehouse.load(run_id).store, pattern)),
        sort_keys=True,
    )


def _traced_ids(result) -> list[int]:
    """The ``id`` of every input row an answer traces back to."""
    return sorted(entry.item["id"] for source in result.sources for entry in source)


class TestLayout2StillReads:
    def test_answers_match_the_ones_recorded_when_it_was_written(self, warehouse_v2):
        warehouse = Warehouse.open(warehouse_v2)
        recorded = json.loads((warehouse_v2 / "answers.json").read_text())
        assert [record.name for record in warehouse.runs()] == [
            "example", "example-ranged", "sealed", "live"
        ]
        assert {
            record.name: answer_digests(warehouse, record.run_id, record.name)
            for record in warehouse.runs()
        } == recorded

    @pytest.mark.parametrize("run_id", ["run-0001-example", "run-0002-example-ranged"])
    def test_index_build_rederives_the_recorded_index(self, warehouse_v2, run_id, capsys):
        run_dir = warehouse_v2 / "runs" / run_id
        recorded = (run_dir / "index.seg").read_bytes()
        (run_dir / "index.seg").unlink()
        assert Warehouse.open(warehouse_v2).load_index(run_id) is None  # scans meanwhile
        assert main(["index", "build", run_id, "--root", str(warehouse_v2)]) == 0
        assert "input ids" in capsys.readouterr().out
        # The rebuilt bytes are INDEX_VERSION 2 (ITEMS is a count); what
        # they say is what the recorded version-1 index said.
        old, rebuilt = (
            RunIndex.decode(raw) for raw in (recorded, (run_dir / "index.seg").read_bytes())
        )
        for section in ("inputs", "terms", "item_count", "accessed", "manipulated"):
            assert getattr(rebuilt, section) == getattr(old, section), section
        assert rebuilt.summary() == dict(old.summary(), version=INDEX_VERSION)
        assert load_manifest(run_dir)["format"] == 2  # a backfill rewrites no segment

    def test_a_live_head_grows_by_new_layout_epochs_and_compacts_to_a_one_shot_record(
        self, warehouse_v2
    ):
        warehouse = Warehouse.open(warehouse_v2)
        run_id = "run-0004-live"
        grown = ((10, 14), (14, 18))
        for lo, hi in grown:
            _append(warehouse, run_id, stream_rows(lo, hi))
        run_dir = warehouse.run_dir(run_id)
        head = load_manifest(run_dir)
        assert head["format"] == 2 and [entry["epoch"] for entry in head["epochs"]] == [1, 2, 3, 4]
        assert (run_dir / "batches" / "epoch-0002" / "ops").is_dir()
        assert sorted(path.name for path in (run_dir / "batches" / "epoch-0003").iterdir()) == [
            "part.json", "part.seg"
        ]
        assert json.loads((run_dir / "batches" / "epoch-0003" / "part.json").read_text())[
            "format"
        ] == LAYOUT_VERSION

        rows = [row for lo, hi in LIVE_BATCHES + grown for row in stream_rows(lo, hi)]
        batch = _batch(rows)
        expected = query_provenance(batch, PATTERN)
        live, _ = warehouse.backtrace(run_id, PATTERN)
        assert len(live.matched_output_ids) == len(expected.matched_output_ids) == 9
        assert _traced_ids(live) == _traced_ids(expected) == list(range(1, 18, 2))
        assert warehouse.load_index(run_id).candidates("u1")  # both layouts' index parts

        warehouse.seal_live_run(run_id, compact=True)
        assert sorted(path.name for path in run_dir.iterdir()) == ["manifest.json", "part.seg"]
        batch_dir = warehouse.run_dir(warehouse.record(batch, name="batch").run_id)
        assert (run_dir / "part.seg").read_bytes() == (batch_dir / "part.seg").read_bytes()
        compacted, _ = warehouse.backtrace(run_id, PATTERN)
        assert compacted.render() == expected.render()

    RANGED = "run-0002-example-ranged"

    def test_ranged_run_answers_alike(self, warehouse_v2, example_pattern):
        """Layout 3 writes a run as one ``part.seg``, so there is nothing left
        to spread over ``ops/range-NNNN/``; a layout-2 run that was spread
        (``sub_shard_span=2``) still reads."""
        warehouse = Warehouse.open(warehouse_v2)
        ops = warehouse.run_dir(self.RANGED) / "ops"
        ranges = sorted(path.name for path in ops.iterdir() if path.is_dir())
        assert ranges and all(name.startswith("range-") for name in ranges)
        assert _answer(warehouse, "run-0001-example", example_pattern) == _answer(
            warehouse, self.RANGED, example_pattern
        )

    def test_manifest_records_the_span(self, warehouse_v2, captured_example):
        warehouse = Warehouse.open(warehouse_v2)
        manifest = json.loads((warehouse.run_dir(self.RANGED) / "manifest.json").read_text())
        assert manifest["sub_shards"]["span"] == 2
        assert manifest["sub_shards"]["ranges"]
        with pytest.raises(TypeError):
            warehouse.record(captured_example, name="example", sub_shard_span=2)
        fresh = warehouse.run_dir(warehouse.record(captured_example, name="fresh").run_id)
        assert sorted(path.name for path in fresh.iterdir()) == [
            "manifest.json", "metrics.json", "part.seg"
        ]
        assert "sub_shards" not in json.loads((fresh / "manifest.json").read_text())


class TestLayout3StillReads:
    """The committed ``tests/fixtures/warehouse_v3``: a batch run and a live
    run whose item blocks are raw JSON."""

    def test_answers_match_the_ones_recorded_when_it_was_written(self, warehouse_v3):
        warehouse = Warehouse.open(warehouse_v3)
        recorded = json.loads((warehouse_v3 / "answers.json").read_text())
        assert [record.name for record in warehouse.runs()] == ["example", "live"]
        assert load_manifest(warehouse.run_dir("run-0001-example"))["format"] == 3
        assert {
            record.name: answer_digests(warehouse, record.run_id, record.name)
            for record in warehouse.runs()
        } == recorded

    def test_the_live_run_grows_by_new_layout_epochs_and_answers_like_a_one_shot_batch(
        self, warehouse_v3
    ):
        warehouse = Warehouse.open(warehouse_v3)
        run_id = "run-0002-live"
        grown = ((10, 14), (14, 18))
        for lo, hi in grown:
            _append(warehouse, run_id, stream_rows(lo, hi))
        run_dir = warehouse.run_dir(run_id)
        head = load_manifest(run_dir)
        assert head["format"] == 3 and [entry["epoch"] for entry in head["epochs"]] == [1, 2, 3, 4]
        layouts = [
            json.loads((run_dir / entry["dir"] / "part.json").read_text())["format"]
            for entry in head["epochs"]
        ]
        assert layouts == [3, 3, LAYOUT_VERSION, LAYOUT_VERSION]

        rows = [row for lo, hi in LIVE_BATCHES + grown for row in stream_rows(lo, hi)]
        batch = _batch(rows)
        expected = query_provenance(batch, PATTERN)
        live, _ = warehouse.backtrace(run_id, PATTERN)
        assert len(live.matched_output_ids) == len(expected.matched_output_ids) == 9
        assert _traced_ids(live) == _traced_ids(expected) == list(range(1, 18, 2))
        index = warehouse.load_index(run_id)  # version-1 and version-2 parts, unioned
        assert index.candidates("u1") and index.item_count == len(rows)

    def test_sealing_the_live_run_compacts_it_to_a_one_shot_records_bytes(self, warehouse_v3):
        warehouse = Warehouse.open(warehouse_v3)
        run_id = "run-0002-live"
        _append(warehouse, run_id, stream_rows(10, 14))
        warehouse.seal_live_run(run_id, compact=True)
        run_dir = warehouse.run_dir(run_id)
        assert sorted(path.name for path in run_dir.iterdir()) == ["manifest.json", "part.seg"]
        assert load_manifest(run_dir)["format"] == LAYOUT_VERSION
        rows = [row for lo, hi in LIVE_BATCHES + ((10, 14),) for row in stream_rows(lo, hi)]
        batch_dir = warehouse.run_dir(warehouse.record(_batch(rows), name="batch").run_id)
        assert (run_dir / "part.seg").read_bytes() == (batch_dir / "part.seg").read_bytes()
        compacted, _ = warehouse.backtrace(run_id, PATTERN)
        assert compacted.render() == query_provenance(_batch(rows), PATTERN).render()


class TestShardedRootStillReads:
    SHARDS = {"run-0001-example": "shard-00", "run-0002-example": "shard-01"}

    def test_answers_match_the_ones_recorded_when_it_was_written(self, warehouse_sharded):
        warehouse = Warehouse.open(warehouse_sharded)
        recorded = json.loads((warehouse_sharded / "answers.json").read_text())
        assert {record.run_id: record.shard for record in warehouse.runs()} == self.SHARDS
        for run_id, shard in self.SHARDS.items():
            run_dir = warehouse_sharded / "shards" / shard / "runs" / run_id
            assert warehouse.run_dir(run_id) == run_dir
        assert {
            record.run_id: answer_digests(warehouse, record.run_id, record.name)
            for record in warehouse.runs()
        } == recorded
        assert warehouse.resolve("example").run_id == "run-0002-example"

    def test_new_runs_land_flat(self, warehouse_sharded, captured_example, example_pattern):
        warehouse = Warehouse.open(warehouse_sharded)
        record = warehouse.record(captured_example, name="fresh")
        assert record.shard is None
        run_dir = warehouse_sharded / "runs" / record.run_id
        assert warehouse.run_dir(record.run_id) == run_dir
        assert sorted(path.name for path in run_dir.iterdir()) == [
            "manifest.json", "metrics.json", "part.seg"
        ]
        assert _answer(warehouse, record.run_id, example_pattern) == _answer(
            warehouse, "run-0001-example", example_pattern
        )

    def test_a_save_drops_the_shard_keys(self, warehouse_sharded):
        path = warehouse_sharded / "catalog.json"
        before = json.loads(path.read_text())
        assert {"shards", "epoch"} <= set(before)
        Catalog.load(warehouse_sharded).save()
        after = json.loads(path.read_text())
        assert "shards" not in after and "epoch" not in after
        assert after["runs"] == before["runs"]
        assert {
            record.run_id: record.shard for record in Catalog.load(warehouse_sharded).runs()
        } == self.SHARDS


class TestTotalBytes:
    def test_total_bytes_is_the_size_of_the_runs_part_files(self, tmp_path):
        """Batch, live and compacted alike, in the manifest and the catalog;
        so a compacted stream is catalogued at the size of the batch run of
        its rows."""
        stream = StreamSession(warehouse=tmp_path / "wh", name="feed", num_partitions=2)
        stream.open(narrow(stream.dataset()))
        for lo, hi in LIVE_BATCHES:
            stream.ingest(stream_rows(lo, hi))
        warehouse = stream.warehouse

        def assert_part_sized(record) -> int:
            run_dir = warehouse.run_dir(record.run_id)
            size = sum(path.stat().st_size for path in run_dir.rglob("part.seg"))
            assert record.total_bytes == load_manifest(run_dir)["total_bytes"] == size
            assert Warehouse.open(warehouse.root).resolve(record.run_id).total_bytes == size
            return size

        batch = warehouse.record(_batch(stream_rows(0, 10)), name="batch")
        assert_part_sized(batch)
        assert assert_part_sized(warehouse.resolve(stream.run_id)) > 0
        assert assert_part_sized(stream.finish(compact=True)) == batch.total_bytes
