"""Sharded warehouse storage: manifest, placement, epochs, rebalance.

The shard layer must never change an answer: runs live under
``shards/<name>/runs/`` instead of ``runs/``, a layout-2 run's sub-sharded
operator segments under ``ops/range-NNNN/``, and every reader resolves
through the catalog record -- so these tests repeatedly pin "same backtrace
before and after" alongside the layout assertions.
"""

import json
import subprocess
import sys

import pytest

from repro.core.ring import HashRing
from repro.errors import ProvenanceError
from repro.pebble.query import query_provenance
from repro.serve.service import result_to_json
from repro.warehouse import Warehouse
from repro.warehouse.catalog import Catalog, LEGACY_SHARD, ShardManifest


def _answer(root, run_id, pattern):
    return json.dumps(
        result_to_json(query_provenance(Warehouse.open(root).load(run_id), pattern)),
        sort_keys=True,
    )


class TestShardManifest:
    def test_round_trips_through_the_catalog_file(self, tmp_path):
        warehouse = Warehouse.open(tmp_path)
        names = warehouse.init_shards(3)
        assert names == ["shard-00", "shard-01", "shard-02"]
        reopened = Catalog.load(tmp_path)
        assert reopened.manifest is not None
        assert reopened.manifest.shards == names
        assert reopened.manifest.epochs == {name: 0 for name in names}
        assert reopened.epoch_vector() == {
            LEGACY_SHARD: 0, "shard-00": 0, "shard-01": 0, "shard-02": 0,
        }

    def test_manifest_obj_round_trip(self):
        manifest = ShardManifest(["a", "b"], 16, {"a": 3, "b": 0})
        assert ShardManifest.from_obj(manifest.to_obj()).to_obj() == manifest.to_obj()

    def test_init_is_idempotent_and_grow_only(self, tmp_path):
        warehouse = Warehouse.open(tmp_path)
        warehouse.init_shards(2)
        assert warehouse.init_shards(2) == ["shard-00", "shard-01"]
        grown = warehouse.init_shards(4)
        assert grown[:2] == ["shard-00", "shard-01"]  # existing names keep ids
        with pytest.raises(ProvenanceError):
            warehouse.init_shards(3)  # shrinking would orphan directories

    def test_legacy_catalog_without_shard_keys_still_loads(self, tmp_path):
        Catalog(tmp_path).save()  # a fresh catalog document on disk
        path = tmp_path / "catalog.json"
        document = json.loads(path.read_text())
        document.pop("shards", None)
        document.pop("epoch", None)
        path.write_text(json.dumps(document))
        catalog = Catalog.load(tmp_path)
        assert catalog.manifest is None
        assert catalog.epoch_vector() == {LEGACY_SHARD: 0}


class TestPlacement:
    def test_record_lands_on_its_ring_shard(self, captured_example, tmp_path):
        warehouse = Warehouse.open(tmp_path)
        warehouse.init_shards(4)
        record = warehouse.record(captured_example, name="example")
        ring = HashRing(["shard-00", "shard-01", "shard-02", "shard-03"])
        assert record.shard == ring.assign(record.run_id)
        run_dir = tmp_path / "shards" / record.shard / "runs" / record.run_id
        assert run_dir.is_dir()
        assert warehouse.run_dir(record.run_id) == run_dir

    def test_unsharded_warehouse_keeps_the_flat_layout(
        self, captured_example, tmp_path
    ):
        warehouse = Warehouse.open(tmp_path)
        record = warehouse.record(captured_example, name="example")
        assert record.shard is None
        assert (tmp_path / "runs" / record.run_id).is_dir()

    def test_placement_survives_reopen_and_hash_seed(
        self, captured_example, tmp_path
    ):
        warehouse = Warehouse.open(tmp_path)
        warehouse.init_shards(4)
        record = warehouse.record(captured_example, name="example")
        assert Warehouse.open(tmp_path).shard_for(record.run_id) == record.shard
        script = (
            "import sys\n"
            "sys.path.insert(0, 'src')\n"
            "from repro.warehouse import Warehouse\n"
            f"print(Warehouse.open({str(tmp_path)!r}).shard_for({record.run_id!r}))\n"
        )
        for seed in ("0", "7"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"}, cwd=".",
            )
            assert result.stdout.strip() == record.shard


class TestEpochs:
    def test_record_bumps_only_its_own_shard(self, captured_example, tmp_path):
        warehouse = Warehouse.open(tmp_path)
        warehouse.init_shards(3)
        before = warehouse.epoch_vector()
        record = warehouse.record(captured_example, name="example")
        after = warehouse.epoch_vector()
        assert after[record.shard] == before[record.shard] + 1
        assert {
            shard: epoch for shard, epoch in after.items() if shard != record.shard
        } == {
            shard: epoch for shard, epoch in before.items() if shard != record.shard
        }

    def test_legacy_record_bumps_the_pseudo_shard(self, captured_example, tmp_path):
        warehouse = Warehouse.open(tmp_path)
        warehouse.record(captured_example, name="example")
        assert warehouse.epoch_vector() == {LEGACY_SHARD: 1}


class TestRebalance:
    def test_moves_runs_and_keeps_answers(
        self, captured_example, example_pattern, tmp_path
    ):
        warehouse = Warehouse.open(tmp_path)
        record = warehouse.record(captured_example, name="example")
        before = _answer(tmp_path, record.run_id, example_pattern)
        outcome = warehouse.rebalance(count=5)
        assert [move["run_id"] for move in outcome["moved"]] == [record.run_id]
        moved = outcome["moved"][0]
        assert moved["from"] is None and moved["to"].startswith("shard-")
        assert not (tmp_path / "runs" / record.run_id).exists()
        assert _answer(tmp_path, record.run_id, example_pattern) == before
        # Forward/audit queries resolve through the same record.
        report = Warehouse.open(tmp_path).forward(record.run_id, 'root{//id_str="lp"}')
        assert report.output_ids

    def test_rebalance_bumps_source_and_target_epochs(
        self, captured_example, tmp_path
    ):
        warehouse = Warehouse.open(tmp_path)
        warehouse.init_shards(2)
        record = warehouse.record(captured_example, name="example")
        before = warehouse.epoch_vector()
        outcome = warehouse.rebalance(count=6)
        moves = {move["run_id"]: move for move in outcome["moved"]}
        after = warehouse.epoch_vector()
        if record.run_id in moves:
            move = moves[record.run_id]
            assert after[move["from"]] == before[move["from"]] + 1
            assert after[move["to"]] == before.get(move["to"], 0) + 1
        else:
            assert after == {**{name: 0 for name in after}, **before}

    def test_rebalance_is_idempotent(self, captured_example, tmp_path):
        warehouse = Warehouse.open(tmp_path)
        warehouse.init_shards(4)
        warehouse.record(captured_example, name="example")
        warehouse.rebalance()
        again = warehouse.rebalance()
        assert again["moved"] == []
        assert again["unmoved"] == 1


class TestSubSharding:
    """Layout 3 writes a run as one ``part.seg``, so there is nothing left to
    spread over ``ops/range-NNNN/``; a layout-2 run that was sub-sharded
    (``sub_shard_span=2``, the committed fixture) still reads."""

    RANGED = "run-0002-example-ranged"

    def test_segment_ranges_do_not_change_answers(self, warehouse_v2, example_pattern):
        ops = Warehouse.open(warehouse_v2).run_dir(self.RANGED) / "ops"
        ranges = sorted(path.name for path in ops.iterdir() if path.is_dir())
        assert ranges and all(name.startswith("range-") for name in ranges)
        assert _answer(warehouse_v2, "run-0001-example", example_pattern) == _answer(
            warehouse_v2, self.RANGED, example_pattern
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


class TestShardSummary:
    def test_summary_totals_match_the_catalog(self, captured_example, tmp_path):
        warehouse = Warehouse.open(tmp_path)
        warehouse.init_shards(2)
        record = warehouse.record(captured_example, name="example")
        summary = {entry["shard"]: entry for entry in warehouse.shard_summary()}
        assert summary[record.shard]["runs"] == 1
        assert summary[record.shard]["rows"] == record.row_count
        assert summary[record.shard]["run_ids"] == [record.run_id]
        # The legacy pseudo-shard is hidden once everything is sharded.
        assert LEGACY_SHARD not in summary
