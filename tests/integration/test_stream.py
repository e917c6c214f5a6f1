"""Streaming capture end to end: live runs through the serve tier.

The contract pinned here spans the three layers the stream subsystem
touches.  Capture: micro-batches append epochs to a live run that stays
queryable throughout.  Serve: a live run's cached answers drop exactly
when *its* segment epoch moves (append, seal, retention) while batch
runs' answers stay resident, and ``GET /v1/runs/<id>`` reports liveness
and the watermark.  Retention: a TTL sweep expires old epochs, writes a
verified receipt, and the swept run keeps answering (empty once fully
erased) instead of failing.
"""

from __future__ import annotations

import json
import time

import pytest

import repro
from repro.engine.expressions import col, collect_list, count
from repro.obs.metrics import MetricsRegistry
from repro.serve import ProvenanceServer, QueryService, ServeConfig
from repro.stream import StreamSession, TumblingWindow, window_by
from repro.warehouse import Warehouse
from tests.oracle.full_parse import full_parse_backtrace

PATTERN = 'root{/user="u1", /ids}'


def _rows(lo: int, hi: int) -> list[dict]:
    return [{"id": i, "user": f"u{i % 2}", "ts": float(i)} for i in range(lo, hi)]


def _open_stream(warehouse, name: str = "feed") -> StreamSession:
    stream = StreamSession(warehouse=warehouse, name=name)
    windowed = window_by(
        stream.dataset(), col("ts"), TumblingWindow(4.0), col("user")
    ).agg(collect_list(col("id")).alias("ids"), count().alias("n"))
    stream.open(windowed)
    return stream


def _query(service: QueryService, run_id: str) -> dict:
    return service.request("query", {"pattern": PATTERN, "run": run_id})


def _service(root) -> QueryService:
    return QueryService.open(
        ServeConfig(root=str(root / "wh"), port=0), registry=MetricsRegistry()
    )


class TestLiveQuerying:
    def test_serve_answers_match_direct_query_while_live(self, tmp_path):
        stream = _open_stream(Warehouse.open(tmp_path / "wh"))
        stream.ingest(_rows(0, 6))
        stream.ingest(_rows(6, 10))
        service = _service(tmp_path)
        served = _query(service, stream.run_id)
        direct = full_parse_backtrace(stream.warehouse.load(stream.run_id).store, PATTERN)
        from repro.serve import result_to_json

        assert served["result"] == result_to_json(direct)
        assert served["server"]["cached"] is False
        assert _query(service, stream.run_id)["server"]["cached"]

    def test_run_detail_reports_liveness_and_watermark(self, tmp_path):
        stream = _open_stream(Warehouse.open(tmp_path / "wh"))
        stream.ingest(_rows(0, 6))
        service = _service(tmp_path)
        with ProvenanceServer(service, port=0) as server:
            client = repro.connect(server.url)
            detail = client.run(stream.run_id)
            assert detail["live"] is True
            assert detail["watermark"] == 5.0
            assert [entry["epoch"] for entry in detail["epochs"]] == [1]
            stream.finish(compact=False)
            service.check_catalog()
            sealed = client.run(stream.run_id)
        assert sealed["live"] is False
        # The final flush emits the still-open windows as one more epoch.
        assert [entry["epoch"] for entry in sealed["epochs"]] == [1, 2]

    def test_compacted_run_serves_through_the_batch_path(self, tmp_path):
        stream = _open_stream(Warehouse.open(tmp_path / "wh"))
        stream.ingest(_rows(0, 6))
        stream.ingest(_rows(6, 10))
        stream.finish(compact=True)
        service = _service(tmp_path)
        detail = service.run_detail(stream.run_id)
        assert "live" not in detail  # batch layout: no epoch surface
        from repro.serve import result_to_json

        compacted = _query(service, stream.run_id)
        direct = full_parse_backtrace(stream.warehouse.load(stream.run_id).store, PATTERN)
        assert compacted["result"] == result_to_json(direct)
        assert compacted["result"]["matched_output_ids"]


class TestLiveRunAccounting:
    def test_live_breakdown_books_segment_decode_and_item_counters(self, tmp_path):
        from repro.obs.breakdown import QueryBreakdown

        stream = _open_stream(Warehouse.open(tmp_path / "wh"))
        stream.ingest(_rows(0, 6))
        stream.ingest(_rows(6, 10))
        breakdown = QueryBreakdown()
        result, metrics = stream.warehouse.backtrace(
            stream.run_id, PATTERN, breakdown=breakdown
        )
        assert result.matched_output_ids
        assert breakdown.phases["segment_decode"] > 0.0
        assert metrics.misses > 0 and metrics.item_misses == 1
        assert metrics.item_hits > 0
        answer_items = sum(len(source) for source in result.sources)
        assert breakdown.counters["items_decoded"] == answer_items > 0
        assert breakdown.counters["rows_visited"] >= breakdown.counters["rows_decoded"]

    def test_load_honours_metrics_and_cache_size_on_epoch_runs(self, tmp_path):
        """A store opened with ``metrics=m, cache_size=n`` keeps both on an
        epoch-layout run (they were once dropped: own metrics, unbounded
        cache)."""
        from repro.engine.metrics import SegmentCacheMetrics
        from repro.warehouse.reader import LazyProvenanceStore, StoredRun

        stream = _open_stream(Warehouse.open(tmp_path / "wh"))
        stream.ingest(_rows(0, 6))
        stream.ingest(_rows(6, 10))
        stream.finish(compact=False)
        warehouse = stream.warehouse
        expected = full_parse_backtrace(warehouse.load(stream.run_id).store, PATTERN)

        metrics = SegmentCacheMetrics()
        run = StoredRun(
            LazyProvenanceStore(
                warehouse.run_dir(stream.run_id), metrics=metrics, cache_size=1
            )
        )
        assert run.store.metrics is metrics
        answer = run.backtrace(PATTERN)
        assert metrics.misses > 0 and metrics.evictions > 0
        assert answer.render() == expected.render()
        assert answer.all_ids() == expected.all_ids()

    def test_decayed_ids_are_answered_from_the_id_table(self, tmp_path):
        """A window closing after a TTL sweep still references the erased
        members; probing them (and every surviving id) parses no item."""
        stream = _open_stream(Warehouse.open(tmp_path / "wh"))
        stream.ingest(_rows(0, 3))
        time.sleep(0.05)
        warehouse = stream.warehouse
        assert warehouse.retain(0.01, run_id=stream.run_id)["swept"] == 1
        stream.ingest(_rows(3, 10))

        store = warehouse.load(stream.run_id).store
        assert store.decayed_source_id(1, 2), "pid 2 (row id 1) lived in epoch 1"
        assert not store.decayed_source_id(1, 4)
        assert store.metrics.items_decoded == 0

        result, metrics = warehouse.backtrace(stream.run_id, PATTERN)
        (source,) = result.sources
        # Window [0, 4) of u1 held rows 1 and 3; row 1 was erased.
        assert [entry.item["id"] for entry in source] == [3, 5, 7]
        assert metrics.items_decoded == len(source) == 3
        assert metrics.item_misses == 1, "one block read serves every probe"


class TestSegmentInvalidation:
    def test_append_invalidates_only_the_live_run(self, tmp_path):
        warehouse = Warehouse.open(tmp_path / "wh")
        stream = _open_stream(warehouse)
        stream.ingest(_rows(0, 6))
        batch_session = _open_stream(warehouse, name="done")
        batch_session.ingest(_rows(0, 6))
        batch_record = batch_session.finish(compact=True)

        service = _service(tmp_path)
        for run in (stream.run_id, batch_record.run_id):
            _query(service, run)
            assert _query(service, run)["server"]["cached"]

        stream.ingest(_rows(6, 10))
        assert service.check_catalog() is True
        assert _query(service, batch_record.run_id)["server"]["cached"]
        fresh = _query(service, stream.run_id)
        assert fresh["server"]["cached"] is False
        invalidations = service.registry.counter(
            "repro_serve_segment_invalidations_total"
        )
        assert invalidations.value >= 1.0


class TestRetention:
    def test_sweep_writes_verified_receipt_and_keeps_run_answering(self, tmp_path):
        stream = _open_stream(Warehouse.open(tmp_path / "wh"))
        stream.ingest(_rows(0, 6))
        stream.ingest(_rows(6, 10))
        warehouse = stream.warehouse
        before = warehouse.load(stream.run_id).backtrace(PATTERN)
        assert before.matched_output_ids

        time.sleep(0.05)
        report = warehouse.retain(0.01, run_id=stream.run_id)
        assert report["swept"] == 1
        (receipt,) = report["receipts"]
        assert receipt["run_id"] == stream.run_id
        assert [entry["epoch"] for entry in receipt["expired_epochs"]] == [1, 2]
        assert receipt["verified"] == {
            "sink_ids_absent": True,
            "source_ids_absent": True,
        }
        on_disk = json.loads(
            (warehouse.run_dir(stream.run_id) / "retention" / "receipt-0002.json")
            .read_text()
        )
        assert on_disk["digest"] == receipt["digest"]

        # Fully erased: the run answers empty, and still accepts new epochs.
        erased = warehouse.load(stream.run_id).backtrace(PATTERN)
        assert erased.matched_output_ids == []
        stream.ingest(_rows(10, 16))
        refilled = warehouse.load(stream.run_id).backtrace(PATTERN)
        assert refilled.matched_output_ids

    def test_service_sweep_counts_and_invalidates(self, tmp_path):
        stream = _open_stream(Warehouse.open(tmp_path / "wh"))
        stream.ingest(_rows(0, 6))
        service = _service(tmp_path)
        _query(service, stream.run_id)
        time.sleep(0.05)
        report = service.sweep_retention(0.01)
        assert report["swept"] == 1
        registry = service.registry
        assert registry.counter("repro_serve_retention_sweeps_total").value == 1.0
        assert registry.counter("repro_serve_segments_expired_total").value >= 1.0
        swept = _query(service, stream.run_id)
        assert swept["server"]["cached"] is False
        assert swept["result"]["matched_output_ids"] == []

    def test_background_sweeper_expires_invalidates_and_joins(self, tmp_path):
        stream = _open_stream(Warehouse.open(tmp_path / "wh"))
        stream.ingest(_rows(0, 6))
        stream.ingest(_rows(6, 10))
        stream.finish(compact=False)  # sealed, still in the epoch layout
        receipts = stream.warehouse.run_dir(stream.run_id) / "retention"
        service = QueryService.open(
            ServeConfig(
                root=str(tmp_path / "wh"),
                port=0,
                retention_ttl=0.01,
                retention_sweep_interval=0.02,
            ),
            registry=MetricsRegistry(),
        )
        sweeper = service._sweeper
        assert sweeper is not None and sweeper.is_alive()
        registry = service.registry
        try:
            deadline = time.monotonic() + 10
            while not (
                list(receipts.glob("receipt-*.json"))
                and registry.counter("repro_serve_retention_sweeps_total").value >= 1
                and registry.counter("repro_serve_segment_invalidations_total").value >= 1
            ):
                assert time.monotonic() < deadline, "the sweeper never swept"
                time.sleep(0.01)
            swept = _query(service, stream.run_id)
            assert swept["server"]["cached"] is False
            assert swept["result"]["matched_output_ids"] == []
        finally:
            service.close()
        assert service._sweeper is None and not sweeper.is_alive()
