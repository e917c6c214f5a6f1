"""Unit tests for the process-wide metrics registry."""

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    ROWS_BUCKETS,
    MetricsRegistry,
    get_registry,
    set_build_info,
    set_registry,
)


class TestCounter:
    def test_increments(self):
        counter = MetricsRegistry().counter("repro_runs_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_decrease(self):
        counter = MetricsRegistry().counter("repro_runs_total")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("repro_cache_hit_rate")
        gauge.set(0.5)
        gauge.add(0.25)
        assert gauge.value == 0.75


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = MetricsRegistry().histogram(
            "repro_rows", buckets=ROWS_BUCKETS
        )
        histogram.observe(0)
        histogram.observe(5)
        histogram.observe(10)  # boundary: le=10
        histogram.observe(10_000_000)  # beyond the last boundary
        assert histogram.count == 4
        assert histogram.sum == 10_000_015
        assert histogram.counts[0] == 1  # le 0
        assert histogram.counts[2] == 2  # le 10 (5 and the boundary hit)
        assert histogram.counts[-1] == 1  # overflow

    def test_render_is_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_rows", buckets=(1, 10))
        histogram.observe(0.5)
        histogram.observe(5)
        text = registry.render_prometheus()
        assert 'repro_rows_bucket{le="1"} 1' in text
        assert 'repro_rows_bucket{le="10"} 2' in text
        assert 'repro_rows_bucket{le="+Inf"} 2' in text
        assert "repro_rows_count 2" in text

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", buckets=(10, 1))

    def test_render_order_is_buckets_inf_sum_count(self):
        registry = MetricsRegistry()
        registry.histogram("repro_rows", buckets=(1, 10)).observe(5)
        lines = [
            line for line in registry.render_prometheus().splitlines()
            if line.startswith("repro_rows")
        ]
        assert lines == [
            'repro_rows_bucket{le="1"} 0',
            'repro_rows_bucket{le="10"} 1',
            'repro_rows_bucket{le="+Inf"} 1',
            "repro_rows_sum 5",
            "repro_rows_count 1",
        ]

    def test_exemplar_rides_the_max_observation_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_q", buckets=(0.1, 1.0))
        histogram.observe(0.05, span_id=3)
        histogram.observe(0.5, span_id=17)
        histogram.observe(0.2)  # no span: never displaces an exemplar
        text = registry.render_prometheus()
        assert 'repro_q_bucket{le="1"} 3 # {span_id="17"} 0.5' in text
        assert '# {span_id="3"}' not in text
        payload = histogram.to_json()
        assert payload["exemplar"] == {"span_id": "17", "value": 0.5}

    def test_no_span_ids_means_no_exemplars(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_q", buckets=(1.0,))
        histogram.observe(0.5, span_id=None)
        assert "#" not in "".join(histogram.render())
        assert "exemplar" not in histogram.to_json()


class TestLabelEscaping:
    def test_special_characters_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("a_total", q='he said "hi"\\new\nline').inc()
        text = registry.render_prometheus()
        assert r'q="he said \"hi\"\\new\nline"' in text

    def test_backslash_escapes_first(self):
        # A literal backslash-then-quote must not double-escape: the
        # backslash pass runs before the quote pass.
        registry = MetricsRegistry()
        registry.counter("a_total", q='\\"').inc()
        assert 'q="\\\\\\""' in registry.render_prometheus()


class TestBuildInfo:
    def test_constant_one_gauge_with_version(self):
        import repro

        registry = MetricsRegistry()
        gauge = set_build_info(registry, component="test")
        assert gauge.value == 1
        text = registry.render_prometheus()
        assert "# TYPE repro_build_info gauge" in text
        assert f'version="{repro.__version__}"' in text
        assert 'component="test"' in text

    def test_defaults_to_process_registry(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            set_build_info(component="test")
            assert "repro_build_info" in fresh.render_prometheus()
        finally:
            set_registry(previous)

    def test_republish_is_idempotent(self):
        registry = MetricsRegistry()
        first = set_build_info(registry)
        second = set_build_info(registry)
        assert first is second and second.value == 1


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")
        assert registry.counter("a_total", op="x") is not registry.counter(
            "a_total", op="y"
        )

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total", x=1, y=2) is registry.counter(
            "a_total", y=2, x=1
        )

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a")

    def test_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1, 2))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h", buckets=(1, 2, 3))

    def test_default_buckets_are_latency(self):
        histogram = MetricsRegistry().histogram("repro_run_seconds")
        assert histogram.buckets == LATENCY_BUCKETS

    def test_to_json_is_sorted_and_complete(self):
        registry = MetricsRegistry()
        registry.gauge("z_gauge").set(1)
        registry.counter("a_total", op="x").inc(2)
        payload = registry.to_json()
        names = [entry["name"] for entry in payload["metrics"]]
        assert names == sorted(names)
        counter_entry = payload["metrics"][0]
        assert counter_entry == {
            "type": "counter",
            "name": "a_total",
            "labels": {"op": "x"},
            "value": 2.0,
        }

    def test_prometheus_type_headers_once_per_name(self):
        registry = MetricsRegistry()
        registry.counter("a_total", op="x").inc()
        registry.counter("a_total", op="y").inc()
        text = registry.render_prometheus()
        assert text.count("# TYPE a_total counter") == 1
        assert 'a_total{op="x"} 1' in text

    def test_reset_clears(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.reset()
        assert len(registry) == 0


class TestProcessWideRegistry:
    def test_set_registry_swaps_and_returns_previous(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous
