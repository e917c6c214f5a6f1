"""Unit tests for the measurement harness (fast configurations only)."""

from paperbench.harness import (
    ABLATION_CONFIGS,
    measure_capture_overhead,
    measure_provenance_size,
    measure_query_times,
    measure_titian_comparison,
)


class TestAblationLadder:
    def test_rung_names(self):
        assert [name for name, _ in ABLATION_CONFIGS] == [
            "no-opt",
            "prune",
            "prune+fuse",
            "prune+fuse+trace",
        ]


class TestCaptureOverhead:
    def test_produces_one_measurement_per_scenario_scale(self):
        measurements = measure_capture_overhead(["D1", "D2"], scales=(0.05, 0.1), repeats=1)
        assert [(m.scenario, m.scale) for m in measurements] == [
            ("D1", 0.05),
            ("D2", 0.05),
            ("D1", 0.1),
            ("D2", 0.1),
        ]
        assert all(m.plain_seconds > 0 and m.capture_seconds > 0 for m in measurements)


class TestProvenanceSize:
    def test_sizes_positive_and_split(self):
        [measurement] = measure_provenance_size(["D1"], scale=0.05)
        assert measurement.lineage_bytes > 0
        assert measurement.structural_bytes > 0
        assert measurement.total_bytes == (
            measurement.lineage_bytes + measurement.structural_bytes
        )
        assert measurement.records > 0

    def test_size_grows_with_scale(self):
        [small] = measure_provenance_size(["D1"], scale=0.05)
        [large] = measure_provenance_size(["D1"], scale=0.2)
        assert large.total_bytes > small.total_bytes


class TestQueryTimes:
    def test_eager_beats_lazy(self):
        [measurement] = measure_query_times(["D1"], scale=0.05, repeats=1)
        assert measurement.lazy_seconds > measurement.eager_seconds
        assert measurement.source_count == 2
        assert measurement.speedup > 1


class TestTitianComparison:
    def test_overheads_computed(self):
        measurement = measure_titian_comparison(scale=0.2, repeats=2)
        assert measurement.plain_seconds > 0
        # Overheads can be noisy at this tiny scale; just check they are finite.
        assert measurement.titian_overhead_pct == measurement.titian_overhead_pct
        assert measurement.pebble_overhead_pct == measurement.pebble_overhead_pct
