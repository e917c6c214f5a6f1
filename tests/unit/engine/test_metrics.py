"""Unit tests for the per-run metric containers (engine.metrics)."""

from repro.engine.metrics import ExecutionMetrics, SegmentCacheMetrics, StageMetrics
from repro.obs.metrics import MetricsRegistry


class TestExecutionMetricsJson:
    def test_operator_rows_carry_capture_seconds(self):
        metrics = ExecutionMetrics()
        slot = metrics.operator(3, "filter", "filter(x)")
        slot.rows_in, slot.rows_out = 6, 4
        slot.capture_seconds = 0.125
        (row,) = metrics.to_json()["operators"]
        assert row["capture_seconds"] == 0.125
        # A fused stage is the measured grain: no per-operator wall time.
        assert "seconds" not in row

    def test_top_level_shape_is_stable(self):
        payload = ExecutionMetrics().to_json()
        assert set(payload) == {"total_seconds", "operators", "stages"}


class TestStageMetrics:
    def test_to_json_shape(self):
        stage = StageMetrics(1, "fused", "filter|select", (2, 3))
        stage.rows_in, stage.rows_out = 6, 4
        payload = stage.to_json()
        assert set(payload) == {
            "index", "kind", "label", "operators", "rows_in", "rows_out", "seconds",
        }
        assert payload["operators"] == [2, 3]
        assert (payload["rows_in"], payload["rows_out"]) == (6, 4)

    def test_publish_observes_latency_and_rows_out(self):
        registry = MetricsRegistry()
        stage = StageMetrics(0, "read", "read", (1,))
        stage.rows_out = 10
        stage.seconds = 0.002
        stage.publish(registry)
        assert registry.histogram("repro_stage_seconds", kind="read").count == 1
        assert registry.counter("repro_stage_rows_out_total", kind="read").value == 10
        names = {metric["name"] for metric in registry.to_json()["metrics"]}
        assert names == {"repro_stage_seconds", "repro_stage_rows_out_total"}


class TestSegmentCacheMetrics:
    def test_to_json_carries_every_counter_and_hit_rate(self):
        metrics = SegmentCacheMetrics()
        metrics.hits, metrics.misses = 3, 1
        metrics.item_hits, metrics.item_misses = 2, 2
        metrics.bytes_read = 4096
        metrics.add(rows_decoded=5, items_decoded=7)
        assert metrics.to_json() == {
            "hits": 3,
            "misses": 1,
            "item_hits": 2,
            "item_misses": 2,
            "bytes_read": 4096,
            "rows_decoded": 5,
            "items_decoded": 7,
            "hit_rate": 0.75,
        }

    def test_publish_folds_into_registry(self):
        registry = MetricsRegistry()
        metrics = SegmentCacheMetrics()
        metrics.misses, metrics.bytes_read = 4, 1024
        metrics.add(rows_decoded=3, items_decoded=2)
        metrics.publish(registry)
        metrics.publish(registry)  # two queries accumulate
        assert registry.counter("repro_segment_cache_misses_total").value == 8
        assert registry.counter("repro_segment_cache_bytes_read_total").value == 2048
        assert registry.counter("repro_segment_cache_rows_decoded_total").value == 6
        assert registry.counter("repro_segment_cache_items_decoded_total").value == 4


class TestExecutionMetricsPublish:
    def test_run_counters_and_per_type_latencies(self):
        registry = MetricsRegistry()
        metrics = ExecutionMetrics()
        metrics.total_seconds = 0.25
        slot = metrics.operator(1, "filter", "filter(x)")
        slot.rows_out = 5
        slot.capture_seconds = 0.01
        metrics.publish(registry)
        assert registry.counter("repro_runs_total").value == 1
        assert registry.histogram("repro_run_seconds").count == 1
        assert (
            registry.counter("repro_operator_rows_out_total", op_type="filter").value
            == 5
        )
        assert registry.counter("repro_capture_seconds_total").value == 0.01
