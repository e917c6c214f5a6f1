"""StreamSession lifecycle, plan validation, and live-run bookkeeping."""

from __future__ import annotations

import pytest

from repro.engine.expressions import col, collect_list, count
from repro.errors import DataModelError, LiveRunError, StreamError
from repro.stream import StreamSession, TumblingWindow, window_by


@pytest.fixture
def stream(tmp_path) -> StreamSession:
    return StreamSession(warehouse=tmp_path / "wh", name="feed")


def _rows(lo: int, hi: int) -> list[dict]:
    return [{"id": i, "user": f"u{i % 2}", "ts": float(i)} for i in range(lo, hi)]


class TestLifecycle:
    def test_ingest_requires_open(self, stream):
        with pytest.raises(StreamError, match="open"):
            stream.ingest(_rows(0, 2))

    def test_finish_requires_open(self, stream):
        with pytest.raises(StreamError, match="open"):
            stream.finish()

    def test_open_requires_source(self, stream, session):
        dataset = session.create_dataset(_rows(0, 2), "other")
        with pytest.raises(StreamError, match="source"):
            stream.open(dataset)

    def test_source_is_singular(self, stream):
        stream.source("a")
        with pytest.raises(StreamError, match="exactly one source"):
            stream.source("b")

    def test_open_twice_fails(self, stream):
        dataset = stream.dataset().filter(col("id") >= 0)
        stream.open(dataset)
        with pytest.raises(StreamError, match="already open"):
            stream.open(dataset)

    def test_ingest_after_finish_fails(self, stream):
        stream.open(stream.dataset().filter(col("id") >= 0))
        stream.ingest(_rows(0, 2))
        stream.finish()
        with pytest.raises(StreamError, match="finished"):
            stream.ingest(_rows(2, 4))
        with pytest.raises(StreamError, match="finished"):
            stream.finish()

    def test_non_item_rows_are_rejected(self, stream):
        stream.open(stream.dataset().filter(col("id") >= 0))
        with pytest.raises(DataModelError):
            stream.ingest([42])

    def test_epoch_and_pid_bookkeeping(self, stream):
        record = stream.open(stream.dataset().filter(col("id") >= 0))
        assert record.live and record.segment_epoch == 0
        first = stream.ingest(_rows(0, 3))
        second = stream.ingest(_rows(3, 5))
        assert (first["epoch"], second["epoch"]) == (1, 2)
        assert stream.epochs == 2
        assert stream.run_id == record.run_id
        # Pids are globally unique across batches: the manifest persists the
        # session's id cursor so a resumed session cannot collide.
        from repro.warehouse.reader import load_manifest

        manifest = load_manifest(stream.warehouse.run_dir(record.run_id))
        assert manifest["next_pid"] == stream._next_pid > 1
        assert first["rows"] == 3 and second["rows"] == 2

    def test_watermark_advances_with_windows(self, stream):
        windowed = window_by(
            stream.dataset(), col("ts"), TumblingWindow(2.0), col("user")
        ).agg(count().alias("n"))
        stream.open(windowed)
        assert stream.watermark is None
        stream.ingest(_rows(0, 4))
        assert stream.watermark == 3.0
        stream.ingest(_rows(4, 8))
        assert stream.watermark == 7.0
        assert stream.late_rows == 0
        stream.finish(compact=False)

    def test_late_rows_counted(self, stream):
        windowed = window_by(
            stream.dataset(), col("ts"), TumblingWindow(2.0)
        ).agg(count().alias("n"))
        stream.open(windowed)
        stream.ingest(_rows(8, 10))
        stream.ingest(_rows(0, 2))  # both fall in windows the flush closed
        assert stream.late_rows == 2


class TestValidation:
    def test_join_rejected(self, stream):
        other = stream.session.create_dataset(_rows(0, 2), "dim")
        plan = stream.dataset().join(other, col("id") == col("id"))
        with pytest.raises(StreamError):
            stream.open(plan)

    def test_union_rejected(self, stream):
        base = stream.dataset()
        # Rejected either as a second consumer of the read or as a union --
        # both violate the single-chain rule.
        with pytest.raises(StreamError):
            stream.open(base.filter(col("id") >= 0).union(base.filter(col("id") < 0)))

    def test_blocking_operators_rejected(self, stream):
        with pytest.raises(StreamError, match="blocking"):
            stream.open(stream.dataset().distinct())

    def test_unbounded_aggregate_rejected(self, stream):
        plan = stream.dataset().group_by(col("user")).agg(
            collect_list(col("id")).alias("ids")
        )
        with pytest.raises(StreamError, match="window_by"):
            stream.open(plan)

    def test_foreign_source_rejected(self, stream, session):
        dataset = session.create_dataset(_rows(0, 2), "elsewhere")
        stream.source()
        with pytest.raises(StreamError, match="stream source"):
            stream.open(dataset.filter(col("id") >= 0))


class TestWarehouseGuards:
    def test_batch_index_build_fails_typed_on_live_run(self, stream):
        record = stream.open(stream.dataset().filter(col("id") >= 0))
        stream.ingest(_rows(0, 4))
        with pytest.raises(LiveRunError) as err:
            stream.warehouse.build_index(record.run_id)
        assert err.value.code == "run_live"
        assert "incrementally" in str(err.value)

    def test_append_to_sealed_run_fails(self, stream):
        record = stream.open(stream.dataset().filter(col("id") >= 0))
        stream.ingest(_rows(0, 2))
        stream.finish(compact=False)
        fresh = StreamSession(warehouse=stream.warehouse, name="feed2")
        fresh.open(fresh.dataset().filter(col("id") >= 0))
        with pytest.raises(LiveRunError):
            stream.warehouse.append_live_epoch(
                record.run_id, None, next_pid=99
            )
