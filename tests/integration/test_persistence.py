"""Integration tests for provenance persistence (capture once, query later).

The warehouse is the one store provenance is read back from:
``CapturedExecution.save`` records into a warehouse root directory and
``Warehouse.open(root).load()`` opens its newest run for querying.
"""

import pytest

from repro.errors import ProvenanceError
from repro.pebble.api import CapturedExecution
from repro.warehouse import Warehouse
from repro.workloads.scenarios import (
    RUNNING_EXAMPLE_PATTERN,
    build_running_example,
    load_workload,
    scenario,
)


class TestSaveLoadRoundtrip:
    def test_running_example_queries_agree(self, pebble, example_tweets, tmp_path):
        pipeline = build_running_example(pebble.session, example_tweets)
        captured = pebble.run(pipeline)
        before = captured.backtrace(RUNNING_EXAMPLE_PATTERN)

        root = tmp_path / "wh"
        record = captured.save(root, name="example")
        assert record.name == "example"
        assert record.row_count == len(captured.rows())
        restored = Warehouse.open(root).load()
        after = restored.backtrace(RUNNING_EXAMPLE_PATTERN)

        assert after.all_ids() == before.all_ids()
        assert after.sources[0].entries[0].tree.render() == (
            before.sources[0].entries[0].tree.render()
        )

    def test_rows_and_sizes_preserved(self, pebble, example_tweets, tmp_path):
        pipeline = build_running_example(pebble.session, example_tweets)
        captured = pebble.run(pipeline)
        root = tmp_path / "wh"
        captured.save(root)
        restored = Warehouse.open(root).load()
        assert sorted(map(repr, (item for _, item in restored.rows()))) == sorted(
            map(repr, captured.items())
        )
        sizes = restored.store.size_report()
        assert sizes.lineage_bytes == captured.size_report().lineage_bytes
        assert sizes.structural_bytes == captured.size_report().structural_bytes

    @pytest.mark.parametrize("name", ["T1", "D4", "D5"])
    def test_scenarios_roundtrip(self, name, tmp_path):
        from repro.engine.session import Session

        spec = scenario(name)
        data = load_workload(spec.kind, 0.1)
        captured = CapturedExecution(spec.build(Session(2), data).execute(capture=True))
        before = captured.backtrace(spec.pattern)
        root = tmp_path / "wh"
        captured.save(root, name=name)
        after = Warehouse.open(root).load().backtrace(spec.pattern)
        assert after.all_ids() == before.all_ids()

    def test_plain_execution_rejected(self, pebble, example_tweets, tmp_path):
        pipeline = build_running_example(pebble.session, example_tweets)
        execution = pebble.run_plain(pipeline)
        with pytest.raises(ProvenanceError):
            CapturedExecution(execution).save(tmp_path / "wh")
        assert not (tmp_path / "wh").exists()

    def test_load_needs_a_warehouse_directory(self, pebble, example_tweets, tmp_path):
        path = tmp_path / "capture.json"
        pebble.run(build_running_example(pebble.session, example_tweets)).export_json(path)
        with pytest.raises(ProvenanceError, match="not a directory"):
            Warehouse.open(path)
